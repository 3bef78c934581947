package core

import (
	"math"

	"morphstore/internal/columns"
	"morphstore/internal/formats"
	"morphstore/internal/ops"
)

// This file implements the Prepare-time physical rewrite pass. The logical
// plan stays the paper's operator-at-a-time MonetDB plan (§5.2): node ids,
// op names, output names and formats are those of the plan as built, and a
// WithKeep(true) execution runs every node exactly as written. Every other
// execution runs a node's rewritten operator where the pass bound one, which
// may produce the node's outputs from other columns than its logical inputs,
// or elide the node: it then produces no column, and its only consumer reads
// around it.
//
// One rule is implemented, the fused conjunction. An intersect of two range
// selections (select or between) is bound to ops.Runtime.SelectAnd over the
// two scanned columns when
//
//   - both selections read a scan of the same table,
//   - each has exactly one consumer, the intersect, and
//   - neither is a result column.
//
// The fused operator streams both columns in lockstep and writes only the
// positions where both tests hold, in the intersect's own format; the two
// selections are elided. Its output is the intersection of the two
// position lists, so it is byte-identical to the unfused intersect's.

// rewritten is the operator a rewrite bound to a node, run instead of the
// node's own unless the execution keeps every column.
type rewritten struct {
	run physOp
	// inputs are the columns the operator reads, which its stats count; nil
	// for an elided node.
	inputs []ColRef
}

// elided is the rewritten operator of a node whose work another node does.
var elided = &rewritten{run: func(*execState, ops.Runtime) ([]*columns.Column, error) { return nil, nil }}

// rewrite binds the rewritten operators of the plan's nodes into bound.
func (c *compiler) rewrite(p *Plan, bound []boundNode) {
	consumers := make([]int, len(p.nodes))
	for _, n := range p.nodes {
		for _, in := range n.inputs {
			consumers[in.node.id]++
		}
	}
	fusable := func(s *Node) bool {
		return (s.op == OpSelect || s.op == OpBetween) && s.inputs[0].node.op == OpScan &&
			consumers[s.id] == 1 && !c.sinks[s.outNames[0]]
	}
	for _, n := range p.nodes {
		if n.op != OpIntersect {
			continue
		}
		x, y := n.inputs[0].node, n.inputs[1].node
		if !fusable(x) || !fusable(y) || x.inputs[0].node.table != y.inputs[0].node.table {
			continue
		}
		bound[x.id].alt, bound[y.id].alt = elided, elided
		bound[n.id].alt = c.selectAnd(n, x, y)
	}
}

// selectAnd binds the fused conjunction of the range selections x and y,
// which intersect n combines.
func (c *compiler) selectAnd(n, x, y *Node) *rewritten {
	d := c.outDesc(n.outNames[0])
	a, b := x.inputs[0], y.inputs[0]
	loA, spanA, emptyA := rangeTest(x)
	loB, spanB, emptyB := rangeTest(y)
	return &rewritten{inputs: []ColRef{a, b}, run: func(es *execState, rt ops.Runtime) ([]*columns.Column, error) {
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
	}}
}

// rangeTest normalises the predicate of a select or between node to the
// range test v-lo <= span over the 64-bit domain, as ops does for every
// input without a SWAR kernel; empty reports a predicate nothing satisfies.
// A builder-checked select always has a defined comparison kind.
func rangeTest(s *Node) (lo, span uint64, empty bool) {
	if s.op == OpBetween {
		return s.val, s.val2 - s.val, s.val > s.val2
	}
	lo, span, empty, _ = s.cmp.Range(s.val, math.MaxUint64)
	return lo, span, empty
}
