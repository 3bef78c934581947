package core

import (
	"fmt"

	"morphstore/internal/columns"
	"morphstore/internal/costmodel"
	"morphstore/internal/formats"
	"morphstore/internal/stats"
)

// CostBasedAssignment selects a format for every base column and
// intermediate of the plan using the gray-box cost model with the
// compression-rate (memory footprint) objective — the compression-aware
// optimization step evaluated in Fig. 10.
//
// The profile of a base column is taken from its stored values once per
// column version and memoised on its table (see baseProfile), so plans that
// scan the same column share one profile. The plan is executed once
// uncompressed only to obtain the data characteristics of its intermediates
// (the paper assumes these are known to the optimizer); the cost model then
// picks each column's format from its compact profile without inspecting
// the data again.
func CostBasedAssignment(p *Plan, db *DB) (*Assignment, error) {
	cols, err := materializedColumns(p, db)
	if err != nil {
		return nil, err
	}
	a := NewAssignment()
	for _, n := range p.nodes {
		if n.op != OpScan {
			continue
		}
		name := n.outNames[0]
		prof, err := db.baseProfile(n.table, n.column)
		if err != nil {
			return nil, err
		}
		if a.Base[name], err = costmodel.ChooseBySize(prof, Candidates(p, name)); err != nil {
			return nil, err
		}
	}
	for _, name := range p.IntermediateNames() {
		if a.Inter[name], err = costmodel.ChooseBySize(stats.Collect(cols[name]), Candidates(p, name)); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// colProfile is one memo entry: the profile of col, the column that was
// stored under the entry's name when it was taken.
type colProfile struct {
	col  *columns.Column
	prof *stats.Profile
}

// baseProfile returns the profile of base column table.column, taken from
// the column's own values. The table memoises it per column name; the entry
// is valid only while Cols still holds the same column, so replacing a
// column misses and overwrites it. Concurrent misses may each profile the
// column; they compute the same profile and the last store wins.
func (db *DB) baseProfile(table, column string) (*stats.Profile, error) {
	col, err := db.Column(table, column)
	if err != nil {
		return nil, err
	}
	t := db.Tables[table]
	t.profMu.Lock()
	e, ok := t.profs[column]
	t.profMu.Unlock()
	if ok && e.col == col {
		return e.prof, nil
	}
	vals, ok := col.Values()
	if !ok {
		if vals, err = formats.Decompress(col); err != nil {
			return nil, fmt.Errorf("core: profile %s.%s: %w", table, column, err)
		}
	}
	prof := stats.Collect(vals)
	t.profMu.Lock()
	if t.profs == nil {
		t.profs = make(map[string]colProfile)
	}
	t.profs[column] = colProfile{col: col, prof: prof}
	t.profMu.Unlock()
	return prof, nil
}
