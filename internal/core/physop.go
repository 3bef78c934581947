package core

import (
	"fmt"

	"morphstore/internal/bitutil"
	"morphstore/internal/bufpool"
	"morphstore/internal/columns"
	"morphstore/internal/formats"
	"morphstore/internal/metrics"
	"morphstore/internal/morph"
	"morphstore/internal/ops"
)

// This file implements the physical-operator compilation step behind
// Engine.Prepare: every plan node is bound once — per-column output formats
// resolved, on-the-fly morph insertions decided, base columns fetched from
// the database — into one physOp closure with a uniform signature. The
// kernel each operator runs is not decided here: ops picks it from the
// format of the column it is handed. Execution then just walks the bound
// operators.
//
// All decisions that depend only on the plan, the configuration, and the
// database schema happen here, so configuration errors (a compressed result
// column, an unknown base column) surface at prepare time, before any data
// is touched.

// physOp runs one bound plan operator: it reads the already-complete outputs
// of its inputs from the execution state and returns its own output columns.
// Implementations only read bound data and the runtime, so one physOp can
// run on any goroutine and concurrently across executions of the same
// prepared plan.
type physOp func(es *execState, rt ops.Runtime) ([]*columns.Column, error)

// execState is the mutable state of one plan execution: the per-node output
// slots (emptied when a node's columns are released; a scan's never are),
// the execution's stats collector (nil when detached), the counter its
// materialized intermediates are charged to, its lease on the engine's
// buffer pool, from which every intermediate's buffers are drawn and to
// which they return, the snapshot pinning the writable tables' delta states
// (nil for a read-only engine — scans then hand out the prepare-bound
// columns), and whether it keeps every column (WithKeep) or profiles every
// column (a profiling run, CostBasedAssignment); both run the plan as
// written. The scheduler publishes a node's outputs before any
// dependent is popped, which establishes the happens-before edge for
// readers.
type execState struct {
	outs    [][]*columns.Column
	coll    *metrics.Collector
	mres    *ops.MemReservation
	bufs    *bufpool.Lease
	snap    *Snapshot
	keep    bool
	profile bool
}

// in resolves a bound input reference against the execution state.
func (es *execState) in(ref ColRef) *columns.Column { return es.outs[ref.node.id][ref.out] }

// compiler carries the context of one Prepare call and the row counts of
// the stored columns its scans bound.
type compiler struct {
	db    *DB
	opt   *options
	sinks map[string]bool
	rows  []int // per node id; set for scans
}

// outDesc resolves the format a node output materializes in, honouring the
// result-column rule (sinks stay uncompressed; Prepare has already rejected
// a compressed format configured for one).
func (c *compiler) outDesc(name string) columns.FormatDesc {
	if d, ok := c.opt.inter[name]; ok && !c.sinks[name] {
		return d
	}
	return columns.UncomprDesc
}

// randomInput reads a project data input: a column whose format lacks random
// access is morphed to static BP on the fly first (§3.3). The check runs on
// the column the execution actually holds, not on a format fixed at prepare:
// a writable table's stored format can drift across a remorph swap (the cost
// model re-picks it), and the merged main+delta view may gain or lose random
// access relative to the format seen at prepare.
func randomInput(es *execState, ref ColRef) (*columns.Column, error) {
	col := es.in(ref)
	if formats.HasRandomAccess(col.Desc().Kind) {
		return col, nil
	}
	return morph.Morph(col, columns.StaticBPDesc(0))
}

// compile binds one plan node into its physical operator. Every node gets
// the full per-query width: an operator on a morsel driver splits its input
// up to it, its workers drawing on the engine budget; the grouping and
// sorted-set operators run as one pass on the node's own goroutine and
// record a sequential fallback. The 0 and false passed to SelectBetweenAuto
// and JoinN1 are their ignored style and specialized arguments.
func (c *compiler) compile(n *Node) (physOp, error) {
	one := func(col *columns.Column, err error) ([]*columns.Column, error) {
		if err != nil {
			return nil, err
		}
		return []*columns.Column{col}, nil
	}
	switch n.op {
	case OpScan:
		col, err := c.db.Column(n.table, n.column)
		if err != nil {
			return nil, err
		}
		table, column := n.table, n.column
		c.rows[n.id] = col.N()
		return func(es *execState, _ ops.Runtime) ([]*columns.Column, error) {
			// A writable table is read at the execution's pinned snapshot:
			// the merged main+delta view of that epoch. Read-only tables (and
			// read-only engines, where the snapshot is nil) hand out the
			// prepare-bound column unchanged.
			sc, err := es.snap.columnOr(col, table, column)
			if err != nil {
				return nil, err
			}
			return []*columns.Column{sc}, nil
		}, nil
	case OpSelect:
		d := c.outDesc(n.outNames[0])
		in, cmp, val := n.inputs[0], n.cmp, n.val
		return func(es *execState, rt ops.Runtime) ([]*columns.Column, error) {
			return one(rt.SelectAuto(es.in(in), cmp, val, d))
		}, nil
	case OpBetween:
		d := c.outDesc(n.outNames[0])
		in, lo, hi := n.inputs[0], n.val, n.val2
		return func(es *execState, rt ops.Runtime) ([]*columns.Column, error) {
			return one(rt.SelectBetweenAuto(es.in(in), lo, hi, d, 0, false))
		}, nil
	case OpProject:
		d := c.outDesc(n.outNames[0])
		data, pos := n.inputs[0], n.inputs[1]
		return func(es *execState, rt ops.Runtime) ([]*columns.Column, error) {
			dcol, err := randomInput(es, data)
			if err != nil {
				return nil, err
			}
			return one(rt.Project(dcol, es.in(pos), d))
		}, nil
	case OpIntersect:
		d := c.outDesc(n.outNames[0])
		x, y := n.inputs[0], n.inputs[1]
		return func(es *execState, rt ops.Runtime) ([]*columns.Column, error) {
			return one(rt.Intersect(es.in(x), es.in(y), d))
		}, nil
	case OpMerge:
		d := c.outDesc(n.outNames[0])
		x, y := n.inputs[0], n.inputs[1]
		return func(es *execState, rt ops.Runtime) ([]*columns.Column, error) {
			return one(rt.Merge(es.in(x), es.in(y), d))
		}, nil
	case OpSemiJoin:
		d := c.outDesc(n.outNames[0])
		probe, build := n.inputs[0], n.inputs[1]
		return func(es *execState, rt ops.Runtime) ([]*columns.Column, error) {
			return one(rt.SemiJoin(es.in(probe), es.in(build), d))
		}, nil
	case OpJoinN1:
		dp := c.outDesc(n.outNames[0])
		db2 := c.outDesc(n.outNames[1])
		probe, build := n.inputs[0], n.inputs[1]
		return func(es *execState, rt ops.Runtime) ([]*columns.Column, error) {
			cp, cb, err := rt.JoinN1(es.in(probe), es.in(build), dp, db2, 0)
			if err != nil {
				return nil, err
			}
			return []*columns.Column{cp, cb}, nil
		}, nil
	case OpGroupFirst:
		dg := c.outDesc(n.outNames[0])
		de := c.outDesc(n.outNames[1])
		keys := n.inputs[0]
		return func(es *execState, rt ops.Runtime) ([]*columns.Column, error) {
			cg, ce, err := rt.GroupFirst(es.in(keys), dg, de)
			if err != nil {
				return nil, err
			}
			return []*columns.Column{cg, ce}, nil
		}, nil
	case OpGroupNext:
		dg := c.outDesc(n.outNames[0])
		de := c.outDesc(n.outNames[1])
		prev, keys := n.inputs[0], n.inputs[1]
		return func(es *execState, rt ops.Runtime) ([]*columns.Column, error) {
			cg, ce, err := rt.GroupNext(es.in(prev), es.in(keys), dg, de)
			if err != nil {
				return nil, err
			}
			return []*columns.Column{cg, ce}, nil
		}, nil
	case OpSumWhole:
		in := n.inputs[0]
		return func(es *execState, rt ops.Runtime) ([]*columns.Column, error) {
			_, col, err := rt.SumAuto(es.in(in))
			return one(col, err)
		}, nil
	case OpSumGrouped:
		gids, extents, vals := n.inputs[0], n.inputs[1], n.inputs[2]
		return func(es *execState, rt ops.Runtime) ([]*columns.Column, error) {
			nGroups := es.in(extents).N()
			return one(rt.SumGrouped(es.in(gids), es.in(vals), nGroups))
		}, nil
	case OpCalc:
		d := c.outDesc(n.outNames[0])
		op, x, y := n.calc, n.inputs[0], n.inputs[1]
		return func(es *execState, rt ops.Runtime) ([]*columns.Column, error) {
			return one(rt.CalcBinary(op, es.in(x), es.in(y), d))
		}, nil
	case OpSelectStr:
		d := c.outDesc(n.outNames[0])
		in := n.inputs[0]
		if in.node.op != OpScan {
			return nil, fmt.Errorf("core: string select %q: input %q is not a base-column scan", n.outNames[0], in.Name())
		}
		dd := c.db.Dict(in.node.table, in.node.column)
		if dd == nil {
			return nil, fmt.Errorf("core: string select %q: %s.%s is not a dictionary-encoded string column",
				n.outNames[0], in.node.table, in.node.column)
		}
		table, column := in.node.table, in.node.column
		kind, sval, svals := n.strKind, n.strVal, n.strVals
		// The predicate is translated to ID space now, against the dictionary
		// snapshot at prepare time; executions whose pinned snapshot holds a
		// different number of strings re-translate against theirs — IDs never
		// change, so only strings appended since can differ, and a prepared
		// plan stays valid across ingest and remorph.
		prepSnap := dd.Snap()
		prep := translateStrPred(prepSnap, kind, sval, svals)
		return func(es *execState, rt ops.Runtime) ([]*columns.Column, error) {
			pred := prep
			if ds := es.snap.Dict(table, column); ds != nil && ds.Len() != prepSnap.Len() {
				pred = translateStrPred(ds, kind, sval, svals)
			}
			switch pred.mode {
			case strPredEq:
				return one(rt.SelectAuto(es.in(in), bitutil.CmpEq, pred.id, d))
			case strPredRange:
				return one(rt.SelectBetweenAuto(es.in(in), pred.lo, pred.hi, d, 0, false))
			default:
				return one(rt.SelectIn(es.in(in), pred.set, d))
			}
		}, nil
	default:
		return nil, fmt.Errorf("core: unknown operator %v", n.op)
	}
}
