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
// under the engine's shared worker budget — a lease is opened for the duration, so
// ad-hoc operators and prepared queries divide the same allowance — and
// honours the context like a prepared execution.

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

// opRuntime opens a budget lease for one ad-hoc operator call behind the
// begin guard, sized by the call's parallelism option (default: the whole
// engine budget). Every operator — including the grouping and sorted-set
// calls, whose drivers are parallel now — leases its full share; there are
// no cap-1 leases left.
func (e *Engine) opRuntime(ctx context.Context, o []Option) (options, ops.Runtime, func(), error) {
	ctx, done, err := e.begin(ctx)
	if err != nil {
		return options{}, ops.Runtime{}, nil, err
	}
	opt, err := e.defs.merged(scopeOp, o)
	if err != nil {
		done()
		return options{}, ops.Runtime{}, nil, err
	}
	par := opt.par
	if par <= 0 {
		par = e.budget.Total()
	}
	lease := e.budget.Lease(par)
	return opt, ops.RT(ctx, lease, par), func() {
		lease.Close()
		done()
	}, nil
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
// Options: WithOutput, WithStyle, WithSpecialized, WithParallelism.
func (e *Engine) Select(ctx context.Context, in *columns.Column, op bitutil.CmpKind, val uint64, o ...Option) (out *columns.Column, err error) {
	defer e.opGuard("select", &err)
	opt, rt, done, err := e.opRuntime(ctx, o)
	if err != nil {
		return nil, err
	}
	defer done()
	return rt.SelectAuto(in, op, val, opt.outputDesc(0), opt.style, opt.specialized)
}

// SelectBetween returns the sorted positions of elements in [lo, hi].
func (e *Engine) SelectBetween(ctx context.Context, in *columns.Column, lo, hi uint64, o ...Option) (out *columns.Column, err error) {
	defer e.opGuard("between", &err)
	opt, rt, done, err := e.opRuntime(ctx, o)
	if err != nil {
		return nil, err
	}
	defer done()
	return rt.SelectBetweenAuto(in, lo, hi, opt.outputDesc(0), opt.style, opt.specialized)
}

// Project gathers data values at the given positions; the data column must
// support random access (uncompressed or static BP).
func (e *Engine) Project(ctx context.Context, data, pos *columns.Column, o ...Option) (out *columns.Column, err error) {
	defer e.opGuard("project", &err)
	opt, rt, done, err := e.opRuntime(ctx, o)
	if err != nil {
		return nil, err
	}
	defer done()
	return rt.Project(data, pos, opt.outputDesc(0), opt.style)
}

// Sum aggregates all elements of a column.
func (e *Engine) Sum(ctx context.Context, in *columns.Column, o ...Option) (sum uint64, err error) {
	defer e.opGuard("sum", &err)
	opt, rt, done, err := e.opRuntime(ctx, o)
	if err != nil {
		return 0, err
	}
	defer done()
	s, _, err := rt.SumAuto(in, opt.style, opt.specialized)
	return s, err
}

// SumGrouped sums vals per group id, for group ids in [0, nGroups).
func (e *Engine) SumGrouped(ctx context.Context, gids, vals *columns.Column, nGroups int, o ...Option) (out *columns.Column, err error) {
	defer e.opGuard("sum_grouped", &err)
	opt, rt, done, err := e.opRuntime(ctx, o)
	if err != nil {
		return nil, err
	}
	defer done()
	return rt.SumGrouped(gids, vals, nGroups, opt.style)
}

// SemiJoin emits probe positions whose key occurs in build.
func (e *Engine) SemiJoin(ctx context.Context, probe, build *columns.Column, o ...Option) (out *columns.Column, err error) {
	defer e.opGuard("semijoin", &err)
	opt, rt, done, err := e.opRuntime(ctx, o)
	if err != nil {
		return nil, err
	}
	defer done()
	return rt.SemiJoin(probe, build, opt.outputDesc(0), opt.style)
}

// JoinN1 equi-joins a probe-side key column against a build-side key column
// with unique values, returning the matching probe positions and, aligned
// with them, the joined build positions (WithOutputs sets their formats).
func (e *Engine) JoinN1(ctx context.Context, probe, build *columns.Column, o ...Option) (probePos, buildPos *columns.Column, err error) {
	defer e.opGuard("join", &err)
	opt, rt, done, err := e.opRuntime(ctx, o)
	if err != nil {
		return nil, nil, err
	}
	defer done()
	return rt.JoinN1(probe, build, opt.outputDesc(0), opt.outputDesc(1), opt.style)
}

// Calc combines two equal-length columns element-wise.
func (e *Engine) Calc(ctx context.Context, op ops.CalcKind, a, b *columns.Column, o ...Option) (out *columns.Column, err error) {
	defer e.opGuard("calc", &err)
	opt, rt, done, err := e.opRuntime(ctx, o)
	if err != nil {
		return nil, err
	}
	defer done()
	return rt.CalcBinary(op, a, b, opt.outputDesc(0), opt.style)
}

// Intersect intersects two sorted position lists, splitting both inputs at
// shared value-range boundaries for parallel processing.
func (e *Engine) Intersect(ctx context.Context, a, b *columns.Column, o ...Option) (out *columns.Column, err error) {
	defer e.opGuard("intersect", &err)
	opt, rt, done, err := e.opRuntime(ctx, o)
	if err != nil {
		return nil, err
	}
	defer done()
	return rt.Intersect(a, b, opt.outputDesc(0))
}

// Union merges two sorted position lists without duplicates, splitting both
// inputs at shared value-range boundaries for parallel processing.
func (e *Engine) Union(ctx context.Context, a, b *columns.Column, o ...Option) (out *columns.Column, err error) {
	defer e.opGuard("merge", &err)
	opt, rt, done, err := e.opRuntime(ctx, o)
	if err != nil {
		return nil, err
	}
	defer done()
	return rt.Merge(a, b, opt.outputDesc(0))
}

// GroupFirst assigns a dense group id (in order of first occurrence) to
// every element of keys, returning the per-row group ids and, per group, the
// position of its first occurrence (WithOutputs sets their formats).
func (e *Engine) GroupFirst(ctx context.Context, keys *columns.Column, o ...Option) (gids, extents *columns.Column, err error) {
	defer e.opGuard("group", &err)
	opt, rt, done, err := e.opRuntime(ctx, o)
	if err != nil {
		return nil, nil, err
	}
	defer done()
	return rt.GroupFirst(keys, opt.outputDesc(0), opt.outputDesc(1), opt.style)
}

// GroupNext refines an existing grouping with an additional key column: rows
// fall into the same output group iff they had the same previous group id
// and the same new key. Outputs follow the GroupFirst conventions.
func (e *Engine) GroupNext(ctx context.Context, prevGids, keys *columns.Column, o ...Option) (gids, extents *columns.Column, err error) {
	defer e.opGuard("group_next", &err)
	opt, rt, done, err := e.opRuntime(ctx, o)
	if err != nil {
		return nil, nil, err
	}
	defer done()
	return rt.GroupNext(prevGids, keys, opt.outputDesc(0), opt.outputDesc(1), opt.style)
}
