package core

import (
	"fmt"
	"math"
)

// This file implements the memory estimate a query reserves at the admission
// gate under WithMemoryBudget.
//
// Until the plan's first successful execution the estimate is a conservative
// upper bound on the bytes of intermediate columns one execution can
// materialize, for the tables' current rows: scans are sized from each
// table's live row count (main plus delta tail minus pending deletions, read
// when the query arrives at admission), per-operator output cardinalities
// are bounded from there (selections and joins emit at most their input's
// cardinality, a union at most the sum, an aggregate at most one row per
// input row), and every intermediate element is costed at a full 8-byte word
// — the uncompressed worst case; every compressed format is at most
// marginally larger than that bound (per-block headers), which the
// word-rounding absorbs for any column beyond a few blocks. The bound sums
// over all intermediates rather than a live-set peak: it must cover every
// schedule, a WithKeep(true) execution's — which releases nothing — among
// them.
//
// After a success the observation record knows the most bytes the plan
// really held at once — compressed formats and staging buffers included,
// each column released when its last consumer finished — and the estimate
// becomes that peak scaled by the tables' growth since, plus a quarter of
// headroom, still capped by the bound. A WithKeep(true) execution runs the
// plan as written and keeps every column, not the rewritten plan the record
// describes, so it always reserves the bound.
//
// A record is immutable once published: Prepared.obs swaps in a new one at
// the end of each successful execution, and a concurrent execution keeps
// reading the one it loaded when it started. A failed, cancelled or
// panicking execution publishes nothing, nor does a WithKeep(true) one.

// estimateHeadroom is the factor over the last run's peak.
const estimateHeadroom = 1.25

// observation is the record one successful execution publishes.
type observation struct {
	peak int64 // the most bytes the execution held charged at once
	scan []int // per scan node id, the rows it read; zero for other nodes
}

// observe builds the record of a successful execution. A scan's columns are
// never released, so its rows are still there to read at the end.
func (pr *Prepared) observe(es *execState) *observation {
	o := &observation{peak: es.mres.Peak(), scan: make([]int, len(pr.p.nodes))}
	for id, n := range pr.p.nodes {
		if n.op == OpScan {
			o.scan[id] = es.outs[id][0].N()
		}
	}
	return o
}

// memoryEstimate returns the bytes one execution of the prepared plan
// reserves over the tables' current rows: the upper bound without an
// observation record obs, ceil(1.25 × the recorded run's peak × growth)
// capped by the bound with one. growth is the largest ratio, never
// below 1, of a scanned table's current live rows to its rows at the
// observation. Base columns are excluded: scans hand out the stored columns
// without copying.
func (pr *Prepared) memoryEstimate(obs *observation) (int64, error) {
	// card bounds each node output's element count, two slots per node (no
	// operator has more than two outputs).
	card := make([]int, 2*len(pr.p.nodes))
	var bytes int64
	growth := 1.0
	e := pr.e
	e.wmu.Lock()
	defer e.wmu.Unlock()
	for i, n := range pr.p.nodes {
		in := func(j int) int { return card[2*n.inputs[j].node.id+n.inputs[j].out] }
		var c, outs int
		switch n.op {
		case OpScan:
			// A written table's rows live in its delta state; the stored
			// column of a table never written is immutable.
			card[2*i] = pr.rows[i]
			if wt := e.wtabs[n.table]; wt != nil {
				card[2*i] = wt.dt.State().Rows()
			}
			if obs != nil {
				// A table that was empty at the observation and is not now
				// grew by +Inf: the estimate falls back to the bound.
				if live, seen := card[2*i], obs.scan[i]; live > seen {
					growth = max(growth, float64(live)/float64(seen))
				}
			}
			continue
		case OpSelect, OpBetween, OpSelectStr, OpSemiJoin, OpCalc:
			c, outs = in(0), 1
		case OpProject, OpSumGrouped:
			c, outs = in(1), 1
		case OpIntersect:
			c, outs = min(in(0), in(1)), 1
		case OpMerge:
			c, outs = in(0)+in(1), 1
		case OpJoinN1, OpGroupFirst:
			c, outs = in(0), 2
		case OpGroupNext:
			c, outs = in(1), 2
		case OpSumWhole:
			c, outs = 1, 1
		default:
			return 0, fmt.Errorf("core: memory estimate: unhandled operator %v", n.op)
		}
		card[2*i] = c
		card[2*i+1] = c
		bytes += int64(c*outs) * 8
	}
	if obs == nil {
		return bytes, nil
	}
	// NaN (0 peak × +Inf growth) fails the comparison like +Inf does.
	if est := estimateHeadroom * float64(obs.peak) * growth; est < float64(bytes) {
		return int64(math.Ceil(est)), nil
	}
	return bytes, nil
}
