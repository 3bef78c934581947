package main

import (
	"context"
	"sort"
	"sync"
	"time"

	"morphstore/internal/columns"
	"morphstore/internal/core"
	"morphstore/internal/metrics"
)

// This file is the harness's tracing: spans recorded around every call into
// the engine (the query span) and, through the engine's public Tracer hook,
// around every plan operator; kept in memory and folded into per-sweep
// aggregates after the calls return.

// memTracer implements metrics.Tracer by keeping operator spans in memory.
type memTracer struct {
	mu    sync.Mutex
	open  map[[2]int64]time.Time // (query, node) -> begin
	spans map[uint64][]span      // finished operator spans by query
}

func newMemTracer() *memTracer {
	return &memTracer{open: make(map[[2]int64]time.Time), spans: make(map[uint64][]span)}
}

// Begin implements metrics.Tracer.
func (t *memTracer) Begin(s metrics.Span, at time.Time) {
	t.mu.Lock()
	t.open[[2]int64{int64(s.Query), int64(s.Node)}] = at
	t.mu.Unlock()
}

// End implements metrics.Tracer.
func (t *memTracer) End(s metrics.Span, at time.Time, _ metrics.NodeStats) {
	k := [2]int64{int64(s.Query), int64(s.Node)}
	t.mu.Lock()
	if start, ok := t.open[k]; ok {
		delete(t.open, k)
		t.spans[s.Query] = append(t.spans[s.Query], span{start: start, end: at})
	}
	t.mu.Unlock()
}

// Event implements metrics.Tracer; point events carry nothing the per-layer
// metrics need that QueryStats does not already hold.
func (t *memTracer) Event(metrics.Span, time.Time, metrics.Event) {}

// take removes and returns the operator spans of one execution.
func (t *memTracer) take(query uint64) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans[query]
	delete(t.spans, query)
	return s
}

// sweepAgg folds the traced executions of one sweep (or one mix cycle).
type sweepAgg struct {
	wall         time.Duration // sum of the query spans
	family       map[string]time.Duration
	in, out      int64
	kernel       time.Duration // sum of Kernel
	workerWall   time.Duration // sum of Wall x Workers
	morsels      int64
	seqFallbacks int64
	rtOverhead   time.Duration // sum of Wall - Kernel/Workers over morsel-driven nodes
	self         time.Duration // sum of query span - union of its operator spans
	admission    time.Duration
	memEstimate  int64
	memPeak      int64
}

// add folds one traced execution: its query span, its operator spans and its
// QueryStats tree.
func (a *sweepAgg) add(q span, nodes []span, qs *metrics.QueryStats, estimate int) error {
	if a.family == nil {
		a.family = make(map[string]time.Duration)
	}
	a.wall += q.end.Sub(q.start)
	a.self += selfTime(q, nodes)
	a.admission += qs.AdmissionWait
	a.memEstimate += int64(estimate)
	a.memPeak += qs.MemPeak
	for i := range qs.Nodes {
		ns := &qs.Nodes[i]
		fam, err := familyOf(ns.Op)
		if err != nil {
			return err
		}
		if fam == "" {
			continue
		}
		workers := max(ns.Workers, 1)
		a.family[fam] += ns.Wall
		a.in += ns.InValues
		a.out += ns.OutValues
		a.kernel += ns.Kernel
		a.workerWall += ns.Wall * time.Duration(workers)
		a.morsels += ns.Morsels
		if ns.SeqFallback {
			a.seqFallbacks++
		}
		if ns.Morsels > 0 {
			a.rtOverhead += ns.Wall - ns.Kernel/time.Duration(workers)
		}
	}
	return nil
}

// tracedExecute runs one prepared query with WithExecStats and the in-memory
// tracer attached, wrapped in a harness query span, and folds it into agg.
func tracedExecute(pq *core.Prepared, tr *memTracer, agg *sweepAgg) (*core.Result, error) {
	var qs metrics.QueryStats
	t0 := time.Now()
	res, err := pq.Execute(context.Background(), core.WithExecStats(&qs), core.WithTracer(tr))
	t1 := time.Now()
	if err != nil {
		return nil, err
	}
	return res, agg.add(span{start: t0, end: t1}, tr.take(qs.Query), &qs, pq.MemoryEstimate())
}

// msOf converts a duration to float milliseconds.
func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// pct returns (a/b - 1) in percent; 0 when b is 0.
func pct(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return (a/b - 1) * 100
}

// ratio returns a/b; 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// emitSweeps writes the ops.* and core.execute.* metrics of a set of traced
// sweeps: medians over the sweeps for times, the last sweep for the exact
// counts (they repeat sweep to sweep).
func emitSweeps(v values, aggs []sweepAgg) {
	med := func(f func(a *sweepAgg) float64) float64 {
		xs := make([]float64, len(aggs))
		for i := range aggs {
			xs[i] = f(&aggs[i])
		}
		return median(xs)
	}
	for _, fam := range families {
		v["ops."+fam+".ms"] = med(func(a *sweepAgg) float64 { return msOf(a.family[fam]) })
	}
	last := &aggs[len(aggs)-1]
	v["ops.in_values"] = float64(last.in)
	v["ops.out_values"] = float64(last.out)
	v["ops.runtime.morsels"] = float64(last.morsels)
	v["ops.runtime.seq_fallbacks"] = float64(last.seqFallbacks)
	v["ops.kernel_share"] = med(func(a *sweepAgg) float64 { return ratio(float64(a.kernel), float64(a.workerWall)) })
	v["ops.runtime.overhead_ms"] = med(func(a *sweepAgg) float64 { return msOf(a.rtOverhead) })
	v["core.execute.self_ms"] = med(func(a *sweepAgg) float64 { return msOf(a.self) })
	v["core.execute.admission_wait_ms"] = med(func(a *sweepAgg) float64 { return msOf(a.admission) })
	v["core.prepare.mem_estimate_ratio"] = ratio(float64(last.memEstimate), float64(last.memPeak))
}

// timed runs fn reps times and returns the median duration.
func timed(reps int, fn func()) time.Duration {
	ds := make([]time.Duration, reps)
	for i := range ds {
		t0 := time.Now()
		fn()
		ds[i] = time.Since(t0)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[reps/2]
}

// consumers counts, per column name, how many plan operators read it.
func consumers(p *core.Plan) map[string]int {
	nodes := p.Nodes()
	out := make(map[string]int)
	for _, n := range nodes {
		for _, in := range n.Inputs {
			out[nodes[in.Node].OutNames[in.Out]]++
		}
	}
	return out
}

// keptColumn is one column a WithKeep(true) execution materialised.
type keptColumn struct {
	name      string
	col       *columns.Column
	base      bool // a scanned base column (encoded at set-up, not per query)
	random    bool // read by random access in its plan
	consumers int
}

// keptColumns lists the columns of one kept execution in name order.
func keptColumns(p *core.Plan, res *core.Result) []keptColumn {
	base := make(map[string]bool)
	for _, n := range p.BaseColumns() {
		base[n] = true
	}
	cons := consumers(p)
	out := make([]keptColumn, 0, len(res.Inter))
	for name, col := range res.Inter {
		out = append(out, keptColumn{name: name, col: col, base: base[name], random: p.RandomAccessed(name), consumers: cons[name]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
