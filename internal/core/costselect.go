package core

import (
	"context"
	"fmt"
	"sync"

	"morphstore/internal/bufpool"
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
// The plan is executed once uncompressed as a profiling run, only to obtain
// the data characteristics of its intermediates (the paper assumes these are
// known to the optimizer): each column is profiled as its operator produces
// it and released as in a normal run, so no column outlives its readers. The
// cost model then picks each column's format from its compact profile
// without inspecting the data again. Profiles are taken through profileOf,
// so a base column is profiled once however many plans scan it.
func CostBasedAssignment(p *Plan, db *DB) (*Assignment, error) {
	profs, err := profiledColumns(p, db)
	if err != nil {
		return nil, err
	}
	a := NewAssignment()
	nbase := len(p.BaseColumns())
	for i, name := range append(p.BaseColumns(), p.IntermediateNames()...) {
		into := a.Inter
		if i < nbase {
			into = a.Base
		}
		if into[name], err = costmodel.ChooseBySize(profs[name], Candidates(p, name)); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// profilePools holds the buffer pools of finished profiling runs, so that
// back-to-back picks recycle each other's buffers instead of first-touching
// fresh ones; the GC frees a pool that stays idle.
var profilePools = sync.Pool{New: func() any { return bufpool.New() }}

// profiledColumns runs the plan once fully uncompressed, as written, and
// returns the profile of every base column and intermediate by name.
func profiledColumns(p *Plan, db *DB) (map[string]*stats.Profile, error) {
	pool := profilePools.Get().(*bufpool.Pool)
	defer profilePools.Put(pool)
	e := NewEngine(db)
	e.pool = pool
	pr, err := e.Prepare(p)
	if err != nil {
		return nil, err
	}
	opt := pr.opt
	opt.profile = true
	res, err := pr.execute(context.Background(), &opt)
	if err != nil {
		return nil, err
	}
	for _, name := range append(p.BaseColumns(), p.IntermediateNames()...) {
		if res.profiles[name] == nil {
			return nil, fmt.Errorf("core: no profile for column %q", name)
		}
	}
	return res.profiles, nil
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
