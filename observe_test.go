package morphstore

// Acceptance tests of the observability layer: a stats collector attached to
// Prepared.Execute returns a per-node QueryStats tree whose morsel timings,
// cardinalities and formats are populated for every SSB query; collection never changes the produced columns; failed
// executions carry a coherent partial tree on the *QueryError; and the
// detached bookkeeping stays within the overhead budget.

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"morphstore/internal/faultpoint"
	"morphstore/internal/metrics"
	"morphstore/internal/ssb"
)

// observeSSB builds a small SSB instance and one prepared plan per query on
// a 4-worker engine.
func observeSSB(t *testing.T) (*Engine, map[ssb.Query]*Prepared) {
	t.Helper()
	data, err := ssb.Generate(0.002, 42)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(data.DB, WithParallelism(4))
	prs := make(map[ssb.Query]*Prepared, len(ssb.Queries))
	for _, q := range ssb.Queries {
		p, err := ssb.BuildPlan(q, data.Dicts)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		pr, err := eng.Prepare(p, WithUniformFormat(DynBP))
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		prs[q] = pr
	}
	return eng, prs
}

// sameResultCols fails the test unless the two results carry byte-identical
// columns.
func sameResultCols(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if len(got.Cols) != len(want.Cols) {
		t.Fatalf("%s: %d result columns, want %d", label, len(got.Cols), len(want.Cols))
	}
	for name, w := range want.Cols {
		g := got.Cols[name]
		if g == nil {
			t.Fatalf("%s: column %q missing", label, name)
		}
		if g.N() != w.N() || len(g.Words()) != len(w.Words()) {
			t.Fatalf("%s: column %q shape mismatch", label, name)
		}
		for k, ww := range w.Words() {
			if g.Words()[k] != ww {
				t.Fatalf("%s: column %q word %d differs", label, name, k)
			}
		}
	}
}

// checkStatsTree asserts the per-node invariants of a successful execution's
// stats tree.
func checkStatsTree(t *testing.T, label string, qs *QueryStats) {
	t.Helper()
	if qs.Failed || qs.Err != "" {
		t.Fatalf("%s: successful execution marked failed: %q", label, qs.Err)
	}
	if qs.Wall <= 0 {
		t.Fatalf("%s: wall time not stamped", label)
	}
	if len(qs.Nodes) < 3 {
		t.Fatalf("%s: implausibly small stats tree (%d nodes)", label, len(qs.Nodes))
	}
	var morsels, kernels int64
	allFellBack := true
	elided := elidedNodes(t, label, qs)
	for i, ns := range qs.Nodes {
		if ns.Node != i {
			t.Fatalf("%s: node %d indexed as %d", label, i, ns.Node)
		}
		if ns.Name == "" || ns.Op == "" {
			t.Fatalf("%s: node %d missing identity (%q %q)", label, i, ns.Op, ns.Name)
		}
		if !ns.Started || !ns.Done || ns.Err != "" {
			t.Fatalf("%s: node %d (%s %q) not completed: started=%v done=%v err=%q",
				label, i, ns.Op, ns.Name, ns.Started, ns.Done, ns.Err)
		}
		if elided[i] {
			continue
		}
		if len(ns.Formats) == 0 {
			t.Fatalf("%s: node %d (%s %q) has no output formats", label, i, ns.Op, ns.Name)
		}
		for _, in := range ns.Inputs {
			if in < 0 || in >= i {
				t.Fatalf("%s: node %d references input %d outside topological order", label, i, in)
			}
		}
		if ns.Op == "scan" {
			if ns.OutValues == 0 {
				t.Fatalf("%s: scan node %d produced no values", label, i)
			}
			continue
		}
		if len(ns.Inputs) == 0 {
			t.Fatalf("%s: non-scan node %d (%s %q) has no inputs", label, i, ns.Op, ns.Name)
		}
		// Every non-scan operator either ran morsels/tasks through the
		// drivers or took a recorded sequential fallback.
		if ns.Morsels == 0 && !ns.SeqFallback {
			t.Fatalf("%s: node %d (%s %q) ran neither morsels nor a recorded fallback", label, i, ns.Op, ns.Name)
		}
		if !ns.SeqFallback {
			allFellBack = false
		}
		morsels += ns.Morsels
		kernels += int64(ns.Kernel)
	}
	// At par=1 every driver takes the recorded sequential fallback and no
	// morsel loop runs; in any other case the tree must carry morsel counts
	// and kernel time.
	if allFellBack {
		return
	}
	if morsels == 0 {
		t.Fatalf("%s: no morsels recorded anywhere in the tree", label)
	}
	if kernels == 0 {
		t.Fatalf("%s: no kernel time recorded anywhere in the tree", label)
	}
}

// elidedNodes returns the selections the conjunction fusion elided — the
// select and between nodes that completed without an output — after checking
// their shape: no values, morsels or fallback of their own, and one consumer,
// an intersect that counted the two scanned columns as its input instead.
func elidedNodes(t *testing.T, label string, qs *QueryStats) map[int]bool {
	t.Helper()
	consumers := make(map[int][]int)
	for i, ns := range qs.Nodes {
		for _, in := range ns.Inputs {
			consumers[in] = append(consumers[in], i)
		}
	}
	elided := make(map[int]bool)
	for i, ns := range qs.Nodes {
		if len(ns.Formats) != 0 || (ns.Op != "select" && ns.Op != "between") {
			continue
		}
		if ns.InValues != 0 || ns.OutValues != 0 || ns.Morsels != 0 || ns.SeqFallback {
			t.Fatalf("%s: elided node %d (%s %q) carries work: %+v", label, i, ns.Op, ns.Name, ns)
		}
		if c := consumers[i]; len(c) != 1 || qs.Nodes[c[0]].Op != "intersect" {
			t.Fatalf("%s: elided node %d (%s %q) is consumed by %v, want one intersect", label, i, ns.Op, ns.Name, c)
		}
		elided[i] = true
	}
	for i, ns := range qs.Nodes {
		if ns.Op != "intersect" || len(ns.Inputs) != 2 || !elided[ns.Inputs[0]] || !elided[ns.Inputs[1]] {
			continue
		}
		var scanned int64
		for _, sel := range ns.Inputs {
			scanned += qs.Nodes[qs.Nodes[sel].Inputs[0]].OutValues
		}
		if ns.InValues != scanned {
			t.Fatalf("%s: fused intersect %d counts %d input values, want the scanned %d", label, i, ns.InValues, scanned)
		}
	}
	return elided
}

// TestQueryStatsSSB runs every SSB query with and without a collector:
// stats must be fully populated at par=1 and par=4 alike, and the produced
// columns byte-identical across all three runs. The Q1.x conjunctions run
// fused: two of their selections complete without an output.
func TestQueryStatsSSB(t *testing.T) {
	eng, prs := observeSSB(t)
	execs := 0
	for _, q := range ssb.Queries {
		pr := prs[q]
		ref, err := pr.Execute(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		var qs QueryStats
		res, err := pr.Execute(context.Background(), WithExecStats(&qs))
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		sameResultCols(t, string(q), ref, res)
		checkStatsTree(t, string(q), &qs)
		if fused := len(elidedNodes(t, string(q), &qs)); (q == ssb.Q11 || q == ssb.Q12 || q == ssb.Q13) && fused < 2 {
			t.Fatalf("%s: %d selections elided, want the fused conjunction's two", q, fused)
		}

		var seq QueryStats
		resSeq, err := pr.Execute(context.Background(), WithParallelism(1), WithExecStats(&seq))
		if err != nil {
			t.Fatalf("%s seq: %v", q, err)
		}
		sameResultCols(t, string(q)+" seq", ref, resSeq)
		checkStatsTree(t, string(q)+" seq", &seq)
		execs += 3
	}
	st := eng.Stats()
	if st.QueriesStarted != int64(execs) || st.QueriesSucceeded != int64(execs) {
		t.Fatalf("engine counters: started=%d succeeded=%d, want %d", st.QueriesStarted, st.QueriesSucceeded, execs)
	}
	if st.BudgetInUse != 0 {
		t.Fatalf("idle engine reports %d worker tokens in use", st.BudgetInUse)
	}
}

// TestQueryStatsTracer runs one SSB query with a JSONL tracer attached and
// checks the span stream is complete and well-formed.
func TestQueryStatsTracer(t *testing.T) {
	_, prs := observeSSB(t)
	pr := prs[ssb.Queries[0]]
	var buf traceCountingWriter
	tr := NewJSONLTracer(&buf)
	var qs QueryStats
	if _, err := pr.Execute(context.Background(), WithTracer(tr), WithExecStats(&qs)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	// One begin and one end line per node, plus one event per sequential
	// fallback.
	minLines := 2 * len(qs.Nodes)
	for _, ns := range qs.Nodes {
		if ns.SeqFallback {
			minLines++
		}
	}
	if buf.lines < minLines {
		t.Fatalf("trace has %d lines, want at least %d for %d nodes", buf.lines, minLines, len(qs.Nodes))
	}
}

// traceCountingWriter counts JSONL lines without retaining them.
type traceCountingWriter struct{ lines int }

func (w *traceCountingWriter) Write(p []byte) (int, error) {
	for _, c := range p {
		if c == '\n' {
			w.lines++
		}
	}
	return len(p), nil
}

// TestQueryStatsOnFailure arms a kernel fault point and asserts that the
// failed execution still hands back a coherent partial tree — through the
// WithExecStats destination and attached to the *QueryError.
func TestQueryStatsOnFailure(t *testing.T) {
	defer faultpoint.DisarmAll()
	eng, prs := observeSSB(t)
	pr := prs[ssb.Queries[0]]
	faultpoint.KernelBody.Arm(func() error { panic("observability test panic") })
	var qs QueryStats
	_, err := pr.Execute(context.Background(), WithExecStats(&qs))
	faultpoint.DisarmAll()
	if err == nil {
		t.Fatal("armed kernel panic did not fail the execution")
	}
	var qe *QueryError
	if !errors.As(err, &qe) {
		t.Fatalf("expected *QueryError, got %T: %v", err, err)
	}
	if qe.Stats == nil {
		t.Fatal("failed execution did not attach stats to the QueryError")
	}
	for _, qsTree := range []*QueryStats{&qs, qe.Stats} {
		if !qsTree.Failed || qsTree.Err == "" {
			t.Fatalf("failed execution's tree not marked failed (failed=%v err=%q)", qsTree.Failed, qsTree.Err)
		}
		failing := 0
		for _, ns := range qsTree.Nodes {
			if ns.Done && ns.Err != "" {
				t.Fatalf("node %d both done and failed", ns.Node)
			}
			if ns.Err != "" {
				failing++
			}
		}
		if failing == 0 {
			t.Fatal("no node carries the failure in the partial tree")
		}
	}
	if st := eng.Stats(); st.QueriesPanicked == 0 {
		t.Fatalf("engine counters did not classify the panic: %+v", st)
	}
	if st := eng.Stats(); st.BudgetInUse != 0 {
		t.Fatalf("failed execution leaked budget: %+v", st)
	}
	// The engine and plan stay usable, and a fresh collected run matches an
	// uncollected reference again.
	ref, err := pr.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var after QueryStats
	res, err := pr.Execute(context.Background(), WithExecStats(&after))
	if err != nil {
		t.Fatal(err)
	}
	sameResultCols(t, "post-failure", ref, res)
	checkStatsTree(t, "post-failure", &after)
}

// TestEngineStatsOutcomeClasses drives one execution into each outcome class
// and checks the counters partition correctly.
func TestEngineStatsOutcomeClasses(t *testing.T) {
	eng, prs := observeSSB(t)
	pr := prs[ssb.Queries[0]]
	base := eng.Stats()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pr.Execute(ctx); err == nil {
		t.Fatal("cancelled execution succeeded")
	}
	tctx, tcancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer tcancel()
	if _, err := pr.Execute(tctx); err == nil {
		t.Fatal("timed-out execution succeeded")
	}
	if _, err := pr.Execute(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if got := st.QueriesCanceled - base.QueriesCanceled; got != 1 {
		t.Fatalf("canceled counter moved by %d, want 1", got)
	}
	if got := st.QueriesTimedOut - base.QueriesTimedOut; got != 1 {
		t.Fatalf("timed-out counter moved by %d, want 1", got)
	}
	if got := st.QueriesSucceeded - base.QueriesSucceeded; got != 1 {
		t.Fatalf("succeeded counter moved by %d, want 1", got)
	}
	if got := st.QueriesStarted - base.QueriesStarted; got != 3 {
		t.Fatalf("started counter moved by %d, want 3", got)
	}
}

// TestDetachedBookkeepingCheap bounds the per-event cost of the detached
// (nil-collector) bookkeeping — the only work a collector-free execution
// pays. The bound is deliberately loose (the budget is single-digit
// nanoseconds, the same class as a disarmed fault point); it exists to catch
// someone accidentally putting an allocation, lock, or clock read on the
// detached path.
func TestDetachedBookkeepingCheap(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	ncs := [2]*metrics.NodeCollector{}
	const calls = 1 << 22
	start := time.Now()
	for i := 0; i < calls; i++ {
		if ncs[i&1].Shards(0) != nil {
			t.Fatal("nil collector returned shards")
		}
	}
	perCall := float64(time.Since(start).Nanoseconds()) / calls
	if perCall > 100 {
		t.Fatalf("detached bookkeeping costs %.1f ns/call, budget is single-digit ns", perCall)
	}
	t.Logf("detached bookkeeping: %.2f ns/call", perCall)
}

// ExampleQueryStats demonstrates reading a stats tree (compiled, not run:
// output depends on timings).
func ExampleQueryStats() {
	var eng *Engine
	var plan *Plan
	pr, err := eng.Prepare(plan)
	if err != nil {
		panic(err)
	}
	var qs QueryStats
	if _, err := pr.Execute(context.Background(), WithExecStats(&qs)); err != nil {
		panic(err)
	}
	for _, n := range qs.Nodes {
		fmt.Printf("%s %q: %d morsels, %v kernel, %d -> %d values\n",
			n.Op, n.Name, n.Morsels, n.Kernel, n.InValues, n.OutValues)
	}
}
