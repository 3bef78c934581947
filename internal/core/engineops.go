package core

import (
	"context"
	"errors"

	"morphstore/internal/bitutil"
	"morphstore/internal/columns"
	"morphstore/internal/ops"
	"morphstore/internal/qerr"
)

// This file implements the engine's one-off operator calls. Each call runs
// behind the same admission entry guard as the write path, its morsel workers
// draw tokens from the engine's worker budget like a prepared execution's,
// and it honours the context like a prepared execution.

// begin is the entry guard of every engine call that is not
// Prepared.Execute — the one-off operators, Append, AppendStrings, Delete,
// Remorph and the remorph worker's sweeps. It fails fast on a misconfigured
// or closed engine (ErrEngineClosed), registers the call with the admission
// layer (not slot-bounded, but visible to the Engine.Close drain), rejects a
// context that is already done before any work happens, and derives the
// call's context so that a Close which gave up on graceful draining cancels
// it. A nil ctx means context.Background(). The returned done must be
// deferred; opGuard classifies the errors.
func (e *Engine) begin(ctx context.Context) (context.Context, func(), error) {
	if e.err != nil {
		return nil, nil, e.err
	}
	exit, err := e.adm.enter()
	if err != nil {
		return nil, nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		exit()
		return nil, nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	stopKill := context.AfterFunc(e.killCtx, cancel)
	return ctx, func() {
		stopKill()
		cancel()
		exit()
	}, nil
}

// oneOff runs one ad-hoc operator call: it enters through begin, releases
// the registration on every exit — a panic included — and hands run the
// call's options and a runtime on the engine budget, sized by the call's
// parallelism option (default: the whole budget). opGuard, deferred first,
// classifies what run returns or throws.
func (e *Engine) oneOff(ctx context.Context, op string, o []Option, run func(options, ops.Runtime) error) (err error) {
	defer e.opGuard(op, &err)
	ctx, done, err := e.begin(ctx)
	if err != nil {
		return err
	}
	defer done()
	opt, err := e.defs.merged(scopeOp, o)
	if err != nil {
		return err
	}
	par := opt.par
	if par <= 0 {
		par = e.budget.Total()
	}
	return run(opt, ops.RT(ctx, e.budget, par))
}

// opGuard is the deferred failure boundary of every call begin guards: it
// converts a panic — in the operator's own phase; the morsel workers carry
// their own guards — into a *QueryError tagged with the operator name, and
// classifies context errors onto the taxonomy, mirroring what a prepared
// execution reports for the same failure. A cancellation caused by
// Engine.Close abandoning its graceful drain is additionally tagged with
// ErrEngineClosed.
func (e *Engine) opGuard(op string, errp *error) {
	if v := recover(); v != nil {
		qe := qerr.Recovered(v, -1)
		qe.Op = op
		*errp = qe
		return
	}
	*errp = qerr.Classify(*errp)
	if *errp != nil && e.killCtx.Err() != nil && errors.Is(*errp, qerr.ErrQueryCanceled) {
		*errp = qerr.Tag(*errp, qerr.ErrEngineClosed)
	}
}

// Select returns the sorted positions of elements matching `element op val`.
// Options: WithOutput, WithParallelism.
func (e *Engine) Select(ctx context.Context, in *columns.Column, op bitutil.CmpKind, val uint64, o ...Option) (out *columns.Column, err error) {
	err = e.oneOff(ctx, "select", o, func(opt options, rt ops.Runtime) error {
		out, err = rt.SelectAuto(in, op, val, opt.outputDesc(0))
		return err
	})
	return out, err
}

// SelectBetween returns the sorted positions of elements in [lo, hi].
func (e *Engine) SelectBetween(ctx context.Context, in *columns.Column, lo, hi uint64, o ...Option) (out *columns.Column, err error) {
	err = e.oneOff(ctx, "between", o, func(opt options, rt ops.Runtime) error {
		out, err = rt.SelectBetweenAuto(in, lo, hi, opt.outputDesc(0), 0, false)
		return err
	})
	return out, err
}

// Project gathers data values at the given positions; the data column must
// support random access (uncompressed or static BP).
func (e *Engine) Project(ctx context.Context, data, pos *columns.Column, o ...Option) (out *columns.Column, err error) {
	err = e.oneOff(ctx, "project", o, func(opt options, rt ops.Runtime) error {
		out, err = rt.Project(data, pos, opt.outputDesc(0))
		return err
	})
	return out, err
}

// Sum aggregates all elements of a column.
func (e *Engine) Sum(ctx context.Context, in *columns.Column, o ...Option) (sum uint64, err error) {
	err = e.oneOff(ctx, "sum", o, func(opt options, rt ops.Runtime) error {
		sum, _, err = rt.SumAuto(in)
		return err
	})
	return sum, err
}

// SumGrouped sums vals per group id, for group ids in [0, nGroups).
func (e *Engine) SumGrouped(ctx context.Context, gids, vals *columns.Column, nGroups int, o ...Option) (out *columns.Column, err error) {
	err = e.oneOff(ctx, "sum_grouped", o, func(opt options, rt ops.Runtime) error {
		out, err = rt.SumGrouped(gids, vals, nGroups)
		return err
	})
	return out, err
}

// SemiJoin emits probe positions whose key occurs in build.
func (e *Engine) SemiJoin(ctx context.Context, probe, build *columns.Column, o ...Option) (out *columns.Column, err error) {
	err = e.oneOff(ctx, "semijoin", o, func(opt options, rt ops.Runtime) error {
		out, err = rt.SemiJoin(probe, build, opt.outputDesc(0))
		return err
	})
	return out, err
}

// JoinN1 equi-joins a probe-side key column against a build-side key column
// with unique values, returning the matching probe positions and, aligned
// with them, the joined build positions (WithOutputs sets their formats).
func (e *Engine) JoinN1(ctx context.Context, probe, build *columns.Column, o ...Option) (probePos, buildPos *columns.Column, err error) {
	err = e.oneOff(ctx, "join", o, func(opt options, rt ops.Runtime) error {
		probePos, buildPos, err = rt.JoinN1(probe, build, opt.outputDesc(0), opt.outputDesc(1), 0)
		return err
	})
	return probePos, buildPos, err
}

// Calc combines two equal-length columns element-wise. An undefined op is an
// ErrInvalidSchema error.
func (e *Engine) Calc(ctx context.Context, op ops.CalcKind, a, b *columns.Column, o ...Option) (out *columns.Column, err error) {
	err = e.oneOff(ctx, "calc", o, func(opt options, rt ops.Runtime) error {
		out, err = rt.CalcBinary(op, a, b, opt.outputDesc(0))
		return err
	})
	return out, err
}

// Intersect intersects two sorted position lists in one pass.
func (e *Engine) Intersect(ctx context.Context, a, b *columns.Column, o ...Option) (out *columns.Column, err error) {
	err = e.oneOff(ctx, "intersect", o, func(opt options, rt ops.Runtime) error {
		out, err = rt.Intersect(a, b, opt.outputDesc(0))
		return err
	})
	return out, err
}

// Union merges two sorted position lists without duplicates in one pass.
func (e *Engine) Union(ctx context.Context, a, b *columns.Column, o ...Option) (out *columns.Column, err error) {
	err = e.oneOff(ctx, "merge", o, func(opt options, rt ops.Runtime) error {
		out, err = rt.Merge(a, b, opt.outputDesc(0))
		return err
	})
	return out, err
}

// GroupFirst assigns a dense group id (in order of first occurrence) to
// every element of keys, returning the per-row group ids and, per group, the
// position of its first occurrence (WithOutputs sets their formats).
func (e *Engine) GroupFirst(ctx context.Context, keys *columns.Column, o ...Option) (gids, extents *columns.Column, err error) {
	err = e.oneOff(ctx, "group", o, func(opt options, rt ops.Runtime) error {
		gids, extents, err = rt.GroupFirst(keys, opt.outputDesc(0), opt.outputDesc(1))
		return err
	})
	return gids, extents, err
}

// GroupNext refines an existing grouping with an additional key column: rows
// fall into the same output group iff they had the same previous group id
// and the same new key. Outputs follow the GroupFirst conventions.
func (e *Engine) GroupNext(ctx context.Context, prevGids, keys *columns.Column, o ...Option) (gids, extents *columns.Column, err error) {
	err = e.oneOff(ctx, "group_next", o, func(opt options, rt ops.Runtime) error {
		gids, extents, err = rt.GroupNext(prevGids, keys, opt.outputDesc(0), opt.outputDesc(1))
		return err
	})
	return gids, extents, err
}
