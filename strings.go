package morphstore

import (
	"context"
	"io"

	"morphstore/internal/dict"
	"morphstore/internal/ingest"
)

// This file is the facade over the string-column layer: per-column
// dictionaries (internal/dict) that encode a string column as a compressed
// uint64 ID column, and the ingest package (internal/ingest) that loads CSV
// or JSON-lines data into the engine through them.
//
// A string column is created with DB.AddStringColumn (or implicitly by
// Ingest when the table does not exist yet), appended to with
// Engine.AppendStrings, and queried with the plan builder's string
// predicates (SelectStrEq, SelectStrIn, SelectStrPrefix), which are
// translated to dictionary-ID space at Prepare time and executed by the
// existing compressed morsel-parallel select kernels.

// Dict is a per-column string dictionary: an append-only string→ID
// translator behind an atomic snapshot. IDs are assigned in
// first-occurrence order and never change, so the journal is append-only.
type Dict = dict.Dict

// DictSnap is an immutable dictionary snapshot: use Snapshot.Dict to pin
// one consistent with a query's rows and translate result IDs back to
// strings.
type DictSnap = dict.Snap

// ReplayDict rebuilds a dictionary from a journal returned by Dict.Journal;
// hostile bytes fail with ErrCorruptData and never panic.
func ReplayDict(journal []byte) (*Dict, error) { return dict.Replay(journal) }

// IngestSource decodes an input stream into typed column batches; see
// NewCSVSource and NewJSONLinesSource.
type IngestSource = ingest.Source

// IngestColumn is one sniffed source column (name and kind).
type IngestColumn = ingest.Column

// IngestBatch is one decoded batch of rows, split into numeric and string
// columns.
type IngestBatch = ingest.Batch

// IngestOption configures Ingest.
type IngestOption = ingest.Option

// WithBatchRows sets the row count Ingest requests per source batch
// (default 4096); each batch is one admission-gate byte reservation and one
// delta append.
func WithBatchRows(n int) IngestOption { return ingest.WithBatchRows(n) }

// NewCSVSource returns a source reading CSV from r: the first record is the
// header, and each column is sniffed numeric (every value a decimal uint64)
// or string over the first batch. Syntax defects fail with ErrCorruptData,
// schema defects (ragged rows, duplicate headers, type flips) with
// ErrInvalidSchema.
func NewCSVSource(r io.Reader) IngestSource { return ingest.NewCSV(r) }

// NewJSONLinesSource returns a source reading JSON lines from r: one object
// per line, schema fixed by the first object, under the same typed-error
// taxonomy as NewCSVSource.
func NewJSONLinesSource(r io.Reader) IngestSource { return ingest.NewJSONLines(r) }

// Ingest streams src into the named table of e, creating the table from the
// sniffed schema when it does not exist: string columns are translated
// through their dictionaries and every batch appends under the engine's
// admission and Close semantics. It returns the number of
// rows appended; on error, already appended batches remain.
func Ingest(ctx context.Context, e *Engine, table string, src IngestSource, opts ...IngestOption) (int, error) {
	return ingest.Load(ctx, e, table, src, opts...)
}
