package core

import (
	"fmt"

	"morphstore/internal/bitutil"
	"morphstore/internal/columns"
	"morphstore/internal/formats"
	"morphstore/internal/metrics"
	"morphstore/internal/morph"
	"morphstore/internal/ops"
)

// This file implements the physical-operator compilation step behind
// Engine.Prepare: every plan node is bound once — per-column output formats
// resolved, on-the-fly morph insertions decided, base columns fetched from
// the database, and the kernel dispatch (generic morsel drivers vs
// specialized direct operators) fixed — into one physOp closure with a
// uniform signature. Execution then just walks the bound operators; the
// per-execution runNode type switch of the pre-engine executor is gone.
//
// All decisions that depend only on the plan, the configuration, and the
// database schema happen here, so configuration errors (a compressed result
// column, a random-access consumer of a non-random-access format without
// AutoMorph, an unknown base column) surface at prepare time, before any
// data is touched.

// physOp runs one bound plan operator: it reads the already-complete outputs
// of its inputs from the execution state and returns its own output columns.
// Implementations only read bound data and the runtime, so one physOp can
// run on any goroutine and concurrently across executions of the same
// prepared plan.
type physOp func(es *execState, rt ops.Runtime) ([]*columns.Column, error)

// boundNode pairs a plan node with its compiled physical operator. Every
// operator participates in morsel/range parallelism (since the grouping and
// sorted-set operators gained parallel drivers there are no capped,
// inherently sequential nodes left), so each node splits up to the full
// per-query width and its morsel workers draw on the engine budget.
type boundNode struct {
	n    *Node
	run  physOp
	rows int // scans: the prepare-bound stored column's length
}

// execState is the mutable state of one plan execution: the per-node output
// slots, the execution's stats collector (nil when detached), the counter its
// materialized intermediates are charged to, and the snapshot pinning the
// writable tables' delta states (nil for a read-only engine — scans then
// hand out the prepare-bound columns). The scheduler publishes a
// node's outputs before any dependent is popped, which establishes the
// happens-before edge for readers.
type execState struct {
	outs [][]*columns.Column
	coll *metrics.Collector
	mres *ops.MemReservation
	snap *Snapshot
}

// in resolves a bound input reference against the execution state.
func (es *execState) in(ref ColRef) *columns.Column { return es.outs[ref.node.id][ref.out] }

// compiler carries the immutable context of one Prepare call.
type compiler struct {
	p     *Plan
	db    *DB
	opt   *options
	sinks map[string]bool
}

// outDesc resolves the format a node output materializes in, honouring the
// result-column rule (sinks stay uncompressed; Prepare has already rejected
// a compressed format configured for one) and the random-access restriction
// (§4.2).
func (c *compiler) outDesc(name string) (columns.FormatDesc, error) {
	if c.sinks[name] {
		return columns.UncomprDesc, nil
	}
	d, ok := c.opt.inter[name]
	if !ok {
		d = columns.UncomprDesc
	}
	if c.p.RandomAccessed(name) && !formats.HasRandomAccess(d.Kind) && !c.opt.autoMorph {
		return columns.FormatDesc{}, fmt.Errorf("core: column %q needs random access but is configured %v (enable AutoMorph or choose uncompressed/static BP)", name, d)
	}
	return d, nil
}

// inputDesc resolves the format the referenced column materializes in: the
// stored format for base columns, the configured format for intermediates,
// uncompressed for result columns.
func (c *compiler) inputDesc(ref ColRef) (columns.FormatDesc, error) {
	if ref.node.op == OpScan {
		col, err := c.db.Column(ref.node.table, ref.node.column)
		if err != nil {
			return columns.FormatDesc{}, err
		}
		return col.Desc(), nil
	}
	if c.sinks[ref.Name()] {
		return columns.UncomprDesc, nil
	}
	if d, ok := c.opt.inter[ref.Name()]; ok {
		return d, nil
	}
	return columns.UncomprDesc, nil
}

// randomInput binds a project data input: if the column's bound format lacks
// random access, an on-the-fly morph to static BP is compiled in (AutoMorph)
// or the preparation fails (strict consistency, §3.3).
//
// A scanned base column gets the runtime-checked binding instead of a
// prepare-time one: on a writable table the stored format can drift across a
// remorph swap (the cost model re-picks it) and the merged main+delta view
// may gain or lose random access relative to the format seen at prepare —
// the closure re-checks the snapshot-resolved column and morphs only when
// actually needed. The strict-consistency rule still applies to the format
// known at prepare time.
func (c *compiler) randomInput(ref ColRef) (func(es *execState) (*columns.Column, error), error) {
	d, err := c.inputDesc(ref)
	if err != nil {
		return nil, err
	}
	if ref.node.op == OpScan {
		if !formats.HasRandomAccess(d.Kind) && !c.opt.autoMorph {
			return nil, fmt.Errorf("core: column %q needs random access but is %v (enable AutoMorph or choose uncompressed/static BP)", ref.Name(), d)
		}
		return func(es *execState) (*columns.Column, error) {
			col := es.in(ref)
			if formats.HasRandomAccess(col.Desc().Kind) {
				return col, nil
			}
			return morph.Morph(col, columns.StaticBPDesc(0))
		}, nil
	}
	if formats.HasRandomAccess(d.Kind) {
		return func(es *execState) (*columns.Column, error) { return es.in(ref), nil }, nil
	}
	if !c.opt.autoMorph {
		return nil, fmt.Errorf("core: column %q needs random access but is %v (enable AutoMorph or choose uncompressed/static BP)", ref.Name(), d)
	}
	return func(es *execState) (*columns.Column, error) {
		return morph.Morph(es.in(ref), columns.StaticBPDesc(0))
	}, nil
}

// compile binds one plan node into its physical operator. The 0 passed to
// SelectBetweenAuto and JoinN1 is their ignored style argument.
func (c *compiler) compile(n *Node) (boundNode, error) {
	specialized := c.opt.specialized
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
			return boundNode{}, err
		}
		table, column := n.table, n.column
		return boundNode{n: n, run: func(es *execState, _ ops.Runtime) ([]*columns.Column, error) {
			// A writable table is read at the execution's pinned snapshot:
			// the merged main+delta view of that epoch. Read-only tables (and
			// read-only engines, where the snapshot is nil) hand out the
			// prepare-bound column unchanged.
			sc, err := es.snap.columnOr(col, table, column)
			if err != nil {
				return nil, err
			}
			return []*columns.Column{sc}, nil
		}, rows: col.N()}, nil
	case OpSelect:
		d, err := c.outDesc(n.outNames[0])
		if err != nil {
			return boundNode{}, err
		}
		in, cmp, val := n.inputs[0], n.cmp, n.val
		return boundNode{n: n, run: func(es *execState, rt ops.Runtime) ([]*columns.Column, error) {
			return one(rt.SelectAuto(es.in(in), cmp, val, d, specialized))
		}}, nil
	case OpBetween:
		d, err := c.outDesc(n.outNames[0])
		if err != nil {
			return boundNode{}, err
		}
		in, lo, hi := n.inputs[0], n.val, n.val2
		return boundNode{n: n, run: func(es *execState, rt ops.Runtime) ([]*columns.Column, error) {
			return one(rt.SelectBetweenAuto(es.in(in), lo, hi, d, 0, specialized))
		}}, nil
	case OpProject:
		d, err := c.outDesc(n.outNames[0])
		if err != nil {
			return boundNode{}, err
		}
		data, err := c.randomInput(n.inputs[0])
		if err != nil {
			return boundNode{}, err
		}
		pos := n.inputs[1]
		return boundNode{n: n, run: func(es *execState, rt ops.Runtime) ([]*columns.Column, error) {
			dcol, err := data(es)
			if err != nil {
				return nil, err
			}
			return one(rt.Project(dcol, es.in(pos), d))
		}}, nil
	case OpIntersect:
		d, err := c.outDesc(n.outNames[0])
		if err != nil {
			return boundNode{}, err
		}
		x, y := n.inputs[0], n.inputs[1]
		return boundNode{n: n, run: func(es *execState, rt ops.Runtime) ([]*columns.Column, error) {
			return one(rt.Intersect(es.in(x), es.in(y), d))
		}}, nil
	case OpMerge:
		d, err := c.outDesc(n.outNames[0])
		if err != nil {
			return boundNode{}, err
		}
		x, y := n.inputs[0], n.inputs[1]
		return boundNode{n: n, run: func(es *execState, rt ops.Runtime) ([]*columns.Column, error) {
			return one(rt.Merge(es.in(x), es.in(y), d))
		}}, nil
	case OpSemiJoin:
		d, err := c.outDesc(n.outNames[0])
		if err != nil {
			return boundNode{}, err
		}
		probe, build := n.inputs[0], n.inputs[1]
		return boundNode{n: n, run: func(es *execState, rt ops.Runtime) ([]*columns.Column, error) {
			return one(rt.SemiJoin(es.in(probe), es.in(build), d))
		}}, nil
	case OpJoinN1:
		dp, err := c.outDesc(n.outNames[0])
		if err != nil {
			return boundNode{}, err
		}
		db2, err := c.outDesc(n.outNames[1])
		if err != nil {
			return boundNode{}, err
		}
		probe, build := n.inputs[0], n.inputs[1]
		return boundNode{n: n, run: func(es *execState, rt ops.Runtime) ([]*columns.Column, error) {
			cp, cb, err := rt.JoinN1(es.in(probe), es.in(build), dp, db2, 0)
			if err != nil {
				return nil, err
			}
			return []*columns.Column{cp, cb}, nil
		}}, nil
	case OpGroupFirst:
		dg, err := c.outDesc(n.outNames[0])
		if err != nil {
			return boundNode{}, err
		}
		de, err := c.outDesc(n.outNames[1])
		if err != nil {
			return boundNode{}, err
		}
		keys := n.inputs[0]
		return boundNode{n: n, run: func(es *execState, rt ops.Runtime) ([]*columns.Column, error) {
			cg, ce, err := rt.GroupFirst(es.in(keys), dg, de)
			if err != nil {
				return nil, err
			}
			return []*columns.Column{cg, ce}, nil
		}}, nil
	case OpGroupNext:
		dg, err := c.outDesc(n.outNames[0])
		if err != nil {
			return boundNode{}, err
		}
		de, err := c.outDesc(n.outNames[1])
		if err != nil {
			return boundNode{}, err
		}
		prev, keys := n.inputs[0], n.inputs[1]
		return boundNode{n: n, run: func(es *execState, rt ops.Runtime) ([]*columns.Column, error) {
			cg, ce, err := rt.GroupNext(es.in(prev), es.in(keys), dg, de)
			if err != nil {
				return nil, err
			}
			return []*columns.Column{cg, ce}, nil
		}}, nil
	case OpSumWhole:
		in := n.inputs[0]
		return boundNode{n: n, run: func(es *execState, rt ops.Runtime) ([]*columns.Column, error) {
			_, col, err := rt.SumAuto(es.in(in), specialized)
			return one(col, err)
		}}, nil
	case OpSumGrouped:
		gids, extents, vals := n.inputs[0], n.inputs[1], n.inputs[2]
		return boundNode{n: n, run: func(es *execState, rt ops.Runtime) ([]*columns.Column, error) {
			nGroups := es.in(extents).N()
			return one(rt.SumGrouped(es.in(gids), es.in(vals), nGroups))
		}}, nil
	case OpCalc:
		d, err := c.outDesc(n.outNames[0])
		if err != nil {
			return boundNode{}, err
		}
		op, x, y := n.calc, n.inputs[0], n.inputs[1]
		return boundNode{n: n, run: func(es *execState, rt ops.Runtime) ([]*columns.Column, error) {
			return one(rt.CalcBinary(op, es.in(x), es.in(y), d))
		}}, nil
	case OpSelectStr:
		d, err := c.outDesc(n.outNames[0])
		if err != nil {
			return boundNode{}, err
		}
		in := n.inputs[0]
		if in.node.op != OpScan {
			return boundNode{}, fmt.Errorf("core: string select %q: input %q is not a base-column scan", n.outNames[0], in.Name())
		}
		dd := c.db.Dict(in.node.table, in.node.column)
		if dd == nil {
			return boundNode{}, fmt.Errorf("core: string select %q: %s.%s is not a dictionary-encoded string column",
				n.outNames[0], in.node.table, in.node.column)
		}
		table, column := in.node.table, in.node.column
		kind, sval, svals := n.strKind, n.strVal, n.strVals
		// The predicate is translated to ID space now, against the dictionary
		// snapshot at prepare time; executions whose pinned snapshot carries a
		// different dictionary (new strings appended, or a sorted rebuild
		// renumbered the IDs) re-translate against theirs — a few map lookups,
		// so a prepared plan stays valid across ingest and remorph.
		prepSnap := dd.Snap()
		prep := translateStrPred(prepSnap, kind, sval, svals)
		return boundNode{n: n, run: func(es *execState, rt ops.Runtime) ([]*columns.Column, error) {
			pred := prep
			if ds := es.snap.Dict(table, column); ds != nil && (ds.Gen() != prepSnap.Gen() || ds.Len() != prepSnap.Len()) {
				pred = translateStrPred(ds, kind, sval, svals)
			}
			switch pred.mode {
			case strPredEq:
				return one(rt.SelectAuto(es.in(in), bitutil.CmpEq, pred.id, d, specialized))
			case strPredRange:
				return one(rt.SelectBetweenAuto(es.in(in), pred.lo, pred.hi, d, 0, specialized))
			default:
				return one(rt.SelectIn(es.in(in), pred.set, d))
			}
		}}, nil
	default:
		return boundNode{}, fmt.Errorf("core: unknown operator %v", n.op)
	}
}
