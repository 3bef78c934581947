// Package ingest loads external row data into the engine: a Source decodes
// an input stream (CSV, JSON lines) into typed column batches — sniffing
// each column as uint64 or string from the first batch — and Load feeds the
// batches through Engine.AppendStrings, which translates string columns
// through their per-column dictionaries and appends under the engine's
// admission and Close semantics.
//
// Malformed input fails with the engine's typed error taxonomy: structural
// defects of the byte stream (bad CSV quoting, invalid JSON, oversized
// lines) match qerr.ErrCorruptData, schema defects (ragged rows, duplicate
// or empty headers, a column changing type mid-stream) match
// qerr.ErrInvalidSchema, and sources never panic on hostile input
// (FuzzCSVIngest drives this contract).
package ingest

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"

	"morphstore/internal/core"
	"morphstore/internal/faultpoint"
	"morphstore/internal/qerr"
)

// Kind is the sniffed type of one source column.
type Kind uint8

const (
	// KindUint is a numeric column: every value parses as a decimal uint64.
	KindUint Kind = iota
	// KindString is a string column, dictionary-encoded on load.
	KindString
)

// Column describes one sniffed source column.
type Column struct {
	Name string
	Kind Kind
}

// Batch is one decoded batch of rows, split by column type the way
// Engine.AppendStrings consumes them. All slices are equally long.
type Batch struct {
	Nums map[string][]uint64
	Strs map[string][]string
}

// Rows returns the batch's row count.
func (b *Batch) Rows() int {
	for _, v := range b.Nums {
		return len(v)
	}
	for _, v := range b.Strs {
		return len(v)
	}
	return 0
}

// Source decodes an input stream into column batches. Implementations
// type-sniff their columns from the first batch and hold the schema fixed
// from then on.
type Source interface {
	// Next returns the next batch of at most max rows (max <= 0 means an
	// implementation-chosen default), or (nil, io.EOF) when the stream is
	// exhausted. Errors other than io.EOF match qerr.ErrCorruptData or
	// qerr.ErrInvalidSchema.
	Next(max int) (*Batch, error)
	// Schema returns the sniffed columns in stable order; nil before the
	// first Next call decoded any data.
	Schema() []Column
}

// Option configures Load.
type Option func(*config)

type config struct {
	batchRows int
}

// WithBatchRows sets the row count Load requests per source batch (default
// 4096). Each batch is one admission-gate byte reservation and one delta
// append.
func WithBatchRows(n int) Option {
	return func(c *config) {
		if n > 0 {
			c.batchRows = n
		}
	}
}

// Load streams src into the named table of e: every batch passes the
// ingest-batch fault point, then appends through Engine.AppendStrings
// (dictionary translation for string columns, bytes reserved at the
// admission gate, drained like any other engine operation). If the table does not exist
// in the engine's database yet, it is created empty from the source's
// sniffed schema before the first batch — callers creating tables this way
// must not run queries against the table until Load created it. Load
// returns the number of rows appended; on error the rows of already
// appended batches remain (ingest is batch-atomic, not load-atomic).
func Load(ctx context.Context, e *core.Engine, table string, src Source, opts ...Option) (int, error) {
	cfg := config{batchRows: 4096}
	for _, o := range opts {
		o(&cfg)
	}
	total := 0
	created := false
	for {
		b, err := src.Next(cfg.batchRows)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return total, nil
			}
			return total, err
		}
		if b == nil || b.Rows() == 0 {
			continue
		}
		if !created {
			if err := ensureTable(e.DB(), table, src.Schema()); err != nil {
				return total, err
			}
			created = true
		}
		if err := faultpoint.IngestBatch.Hit(); err != nil {
			return total, fmt.Errorf("ingest: batch into %q: %w", table, err)
		}
		if err := e.AppendStrings(ctx, table, b.Nums, b.Strs); err != nil {
			return total, err
		}
		total += b.Rows()
	}
}

// ensureTable creates an empty table matching the sniffed schema when the
// database has none of that name yet.
func ensureTable(db *core.DB, table string, schema []Column) error {
	if _, ok := db.Tables[table]; ok {
		return nil
	}
	if len(schema) == 0 {
		return qerr.Tag(fmt.Errorf("ingest: source for %q decoded no schema", table), qerr.ErrInvalidSchema)
	}
	nums := make(map[string][]uint64)
	var strCols []string
	for _, c := range schema {
		if c.Kind == KindUint {
			nums[c.Name] = nil
		} else {
			strCols = append(strCols, c.Name)
		}
	}
	if len(nums) > 0 {
		if err := db.AddTable(table, nums); err != nil {
			return err
		}
	}
	sort.Strings(strCols)
	for _, cn := range strCols {
		if err := db.AddStringColumn(table, cn, nil); err != nil {
			return err
		}
	}
	return nil
}

// corrupt tags a structural input defect.
func corrupt(format string, args ...any) error {
	return qerr.Tag(fmt.Errorf("ingest: "+format, args...), qerr.ErrCorruptData)
}

// badSchema tags a schema defect.
func badSchema(format string, args ...any) error {
	return qerr.Tag(fmt.Errorf("ingest: "+format, args...), qerr.ErrInvalidSchema)
}
