package core

import (
	"morphstore/internal/columns"
	"morphstore/internal/formats"
	"morphstore/internal/ops"
)

// This file implements the Prepare-time physical rewrite pass: a transform
// of the schedule as written into the schedule every execution that does not
// keep every column runs (sched.go). The logical plan stays the paper's
// operator-at-a-time MonetDB plan (§5.2): node ids, op names, output names
// and formats are those of the plan as built, and a WithKeep(true) execution
// runs every node exactly as written. The rewritten schedule may bind a node
// to an operator that produces its outputs from other columns than its
// logical inputs, or elide the node: it then runs and reads nothing, and its
// only consumer reads around it.
//
// One rule is implemented, the fused conjunction. An intersect of two range
// selections (select or between) is bound to ops.Runtime.SelectAnd over the
// two scanned columns when
//
//   - both selections read a scan of the same table,
//   - each is referenced exactly once, by the intersect, and
//   - neither is a result column.
//
// The fused operator streams both columns in lockstep and writes only the
// positions where both tests hold, in the intersect's own format; the two
// selections are elided. Its output is the intersection of the two
// position lists, so it is byte-identical to the unfused intersect's.

// rewrite transforms p's schedule as written into the rewritten schedule.
func (c *compiler) rewrite(p *Plan, written schedule) schedule {
	s := make(schedule, len(written))
	for i, st := range written {
		s[i] = step{run: st.run, inputs: st.inputs}
	}
	// A selection with one reader is referenced once unless that reader is
	// an intersect of the selection with itself (x == y below).
	fusable := func(sel *Node) bool {
		return (sel.op == OpSelect || sel.op == OpBetween) && sel.inputs[0].node.op == OpScan &&
			len(written[sel.id].readers) == 1 && !c.sinks[sel.outNames[0]]
	}
	for _, n := range p.nodes {
		if n.op != OpIntersect {
			continue
		}
		x, y := n.inputs[0].node, n.inputs[1].node
		if x == y || !fusable(x) || !fusable(y) || x.inputs[0].node.table != y.inputs[0].node.table {
			continue
		}
		s[x.id], s[y.id] = step{}, step{}
		s[n.id] = step{run: c.selectAnd(n, x, y), inputs: []ColRef{x.inputs[0], y.inputs[0]}}
	}
	return s.link()
}

// selectAnd binds the fused conjunction of the range selections x and y,
// which intersect n combines.
func (c *compiler) selectAnd(n, x, y *Node) physOp {
	d := c.outDesc(n.outNames[0])
	a, b := x.inputs[0], y.inputs[0]
	loA, spanA, emptyA := rangeTest(x)
	loB, spanB, emptyB := rangeTest(y)
	return func(es *execState, rt ops.Runtime) ([]*columns.Column, error) {
		if emptyA || emptyB {
			w, err := formats.NewWriterFrom(es.bufs, d, 0)
			if err != nil {
				return nil, err
			}
			col, err := w.Close()
			return []*columns.Column{col}, err
		}
		col, err := rt.SelectAnd(es.in(a), loA, spanA, es.in(b), loB, spanB, d)
		if err != nil {
			return nil, err
		}
		return []*columns.Column{col}, nil
	}
}

// rangeTest normalises the predicate of a select or between node to the
// range test v-lo <= span over the 64-bit domain, as ops does for every
// input without a SWAR kernel; empty reports a predicate nothing satisfies.
// A builder-checked select always has a defined comparison kind.
func rangeTest(s *Node) (lo, span uint64, empty bool) {
	if s.op == OpBetween {
		return s.val, s.val2 - s.val, s.val > s.val2
	}
	lo, span, empty, _ = s.cmp.Range(s.val)
	return lo, span, empty
}
