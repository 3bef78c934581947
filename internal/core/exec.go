package core

import (
	"fmt"
	"time"

	"morphstore/internal/columns"
	"morphstore/internal/dict"
	"morphstore/internal/morph"
	"morphstore/internal/qerr"
	"morphstore/internal/stats"
)

// Table is a named collection of equally long columns.
type Table struct {
	Name string
	Cols map[string]*columns.Column
	// Dicts holds the per-column string dictionaries of the table's
	// dictionary-encoded columns (AddStringColumn): for each entry, Cols of
	// the same name is the uint64 ID column the engine compresses and
	// executes, and the dictionary translates between strings and IDs.
	Dicts map[string]*dict.Dict
}

// DB is the base data a plan executes against.
type DB struct {
	Tables map[string]*Table
}

// NewDB returns an empty database.
func NewDB() *DB { return &DB{Tables: make(map[string]*Table)} }

// AddTable registers a table built from value slices (uncompressed). All
// columns must be equally long and the table name must be new; a violation
// returns an error matching qerr.ErrInvalidSchema and registers nothing
// (the old silent overwrite/ragged-accept behavior is gone).
func (db *DB) AddTable(name string, cols map[string][]uint64) error {
	if _, ok := db.Tables[name]; ok {
		return qerr.Tag(fmt.Errorf("core: table %q already registered", name), qerr.ErrInvalidSchema)
	}
	t := &Table{Name: name, Cols: make(map[string]*columns.Column, len(cols))}
	n, first := -1, ""
	for cn, vals := range cols {
		if n < 0 {
			n, first = len(vals), cn
		} else if len(vals) != n {
			return qerr.Tag(
				fmt.Errorf("core: table %q: ragged columns: %q has %d values, %q has %d", name, cn, len(vals), first, n),
				qerr.ErrInvalidSchema)
		}
		t.Cols[cn] = columns.FromValues(vals)
	}
	db.Tables[name] = t
	return nil
}

// AddStringColumn adds a dictionary-encoded string column: values are
// translated through a fresh per-column dictionary (IDs in first-occurrence
// order) and stored as an uncompressed uint64 ID column. If the table does
// not exist it is created with this as its first column; otherwise the
// column name must be new and len(values) must match the table's row count.
// Violations return an error matching qerr.ErrInvalidSchema and change
// nothing.
func (db *DB) AddStringColumn(table, column string, values []string) error {
	t, ok := db.Tables[table]
	if !ok {
		t = &Table{Name: table, Cols: make(map[string]*columns.Column)}
	}
	if _, dup := t.Cols[column]; dup {
		return qerr.Tag(fmt.Errorf("core: table %q already has column %q", table, column), qerr.ErrInvalidSchema)
	}
	for cn, col := range t.Cols {
		if col.N() != len(values) {
			return qerr.Tag(
				fmt.Errorf("core: table %q: ragged columns: %q has %d values, %q has %d", table, column, len(values), cn, col.N()),
				qerr.ErrInvalidSchema)
		}
		break
	}
	d := dict.New()
	ids, err := d.Add(values)
	if err != nil {
		return err
	}
	if ids == nil {
		ids = []uint64{}
	}
	if t.Dicts == nil {
		t.Dicts = make(map[string]*dict.Dict)
	}
	t.Cols[column] = columns.FromValues(ids)
	t.Dicts[column] = d
	db.Tables[table] = t
	return nil
}

// Dict returns the dictionary of a dictionary-encoded string column, or nil
// when the table or column is unknown or the column is a plain uint64
// column.
func (db *DB) Dict(table, column string) *dict.Dict {
	t, ok := db.Tables[table]
	if !ok {
		return nil
	}
	return t.Dicts[column]
}

// Column resolves "table"/"column"; it reports an error for unknown names.
func (db *DB) Column(table, column string) (*columns.Column, error) {
	t, ok := db.Tables[table]
	if !ok {
		return nil, fmt.Errorf("core: unknown table %q", table)
	}
	c, ok := t.Cols[column]
	if !ok {
		return nil, fmt.Errorf("core: unknown column %q.%q", table, column)
	}
	return c, nil
}

// Encode returns a copy of the database with the listed base columns
// morphed into the requested formats (untouched columns are shared). Base
// data encoding is storage preparation and deliberately not part of any
// query runtime measurement.
func (db *DB) Encode(base map[string]columns.FormatDesc) (*DB, error) {
	out := NewDB()
	for tn, t := range db.Tables {
		nt := &Table{Name: tn, Cols: make(map[string]*columns.Column, len(t.Cols)), Dicts: t.Dicts}
		for cn, col := range t.Cols {
			desc, ok := base[tn+"."+cn]
			if !ok {
				nt.Cols[cn] = col
				continue
			}
			m, err := morph.Morph(col, desc)
			if err != nil {
				return nil, fmt.Errorf("core: encode %s.%s: %w", tn, cn, err)
			}
			nt.Cols[cn] = m
		}
		out.Tables[tn] = nt
	}
	return out, nil
}

// Measure aggregates the physical footprint and runtime of one execution,
// mirroring the paper's two evaluation metrics.
type Measure struct {
	// BaseBytes is the physical size of all distinct base columns scanned.
	BaseBytes int
	// InterBytes is the physical size of the intermediates this execution
	// materialized (including result columns). A node the rewrite pass
	// elided materializes nothing, so only a WithKeep execution, which runs
	// the plan as written, counts every intermediate of the plan.
	InterBytes int
	// Runtime is the total operator time (base encoding excluded). Under a
	// concurrent execution (parallelism > 1) it is the sum of the
	// individual operator times and can exceed the wall-clock time.
	Runtime time.Duration
	// PerOp records the runtime per operator kind.
	PerOp map[string]time.Duration
	// ColBytes records the physical size per column name.
	ColBytes map[string]int
}

// Footprint is the total memory footprint: base data plus intermediates.
func (m *Measure) Footprint() int { return m.BaseBytes + m.InterBytes }

// Result is the outcome of executing a plan.
type Result struct {
	// Cols holds the result columns by name.
	Cols map[string]*columns.Column
	// Inter holds every materialized column by name when keeping
	// intermediates (WithKeep).
	Inter map[string]*columns.Column
	// Meas carries the footprint/runtime accounting.
	Meas Measure
	// profiles holds every column's profile by name in a profiling run.
	profiles map[string]*stats.Profile
}
