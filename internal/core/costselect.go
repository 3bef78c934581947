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
// The plan is executed once uncompressed, keeping every column, only to
// obtain the data characteristics of its intermediates (the paper assumes
// these are known to the optimizer); the cost model then picks each
// column's format from its compact profile without inspecting the data
// again. Profiles are taken through profileOf, so a base column is profiled
// once however many plans scan it.
func CostBasedAssignment(p *Plan, db *DB) (*Assignment, error) {
	cols, err := keptColumns(p, db)
	if err != nil {
		return nil, err
	}
	a := NewAssignment()
	nbase := len(p.BaseColumns())
	for i, name := range append(p.BaseColumns(), p.IntermediateNames()...) {
		prof, err := profileOf(cols[name])
		if err != nil {
			return nil, fmt.Errorf("core: profile %q: %w", name, err)
		}
		into := a.Inter
		if i < nbase {
			into = a.Base
		}
		if into[name], err = costmodel.ChooseBySize(prof, Candidates(p, name)); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// profileOf returns the profile stored with col, or collects it from the
// column's values and stores it: each column is profiled once, and
// concurrent first calls all return the one stored profile.
func profileOf(col *columns.Column) (*stats.Profile, error) {
	if prof := col.Profile(); prof != nil {
		return prof, nil
	}
	vals, err := valuesOf(col)
	if err != nil {
		return nil, err
	}
	return col.SetProfile(stats.Collect(vals)), nil
}

// valuesOf returns col's values: a view of an uncompressed column, a
// decoded copy of a compressed one.
func valuesOf(col *columns.Column) ([]uint64, error) {
	if vals, ok := col.Values(); ok {
		return vals, nil
	}
	return formats.Decompress(col)
}
