package core_test

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"morphstore/internal/columns"
	"morphstore/internal/core"
	"morphstore/internal/metrics"
	"morphstore/internal/ssb"
)

// The lifetime tests pin the contract of the engine's buffer pool: what an
// execution hands its caller is never recycled, what it releases early is
// only what no node reads any more, and the pool is bounded and emptied by
// Close. They run with released buffers poisoned (poison_test.go), so a
// column read after its release shows up as a wrong result.

// snapshot copies the words of every column, so a later change to a
// column's buffer is visible.
func snapshot(cols map[string]*columns.Column) map[string][]uint64 {
	s := make(map[string][]uint64, len(cols))
	for name, col := range cols {
		s[name] = slices.Clone(col.Words())
	}
	return s
}

// unchanged reports the first column of cols whose words differ from snap.
func unchanged(snap map[string][]uint64, cols map[string]*columns.Column) error {
	for name, words := range snap {
		if !slices.Equal(words, cols[name].Words()) {
			return fmt.Errorf("column %q changed", name)
		}
	}
	return nil
}

// lifetimeEngine prepares the 13 SSB plans at SF 0.005 on an engine of two
// workers, uncompressed or with every intermediate at a cost-based format.
func lifetimeEngine(t *testing.T, costBased bool) (*core.Engine, []*core.Prepared) {
	t.Helper()
	data, err := ssb.Generate(0.005, 3)
	if err != nil {
		t.Fatal(err)
	}
	e := core.NewEngine(data.DB, core.WithParallelism(2))
	var prs []*core.Prepared
	for _, q := range ssb.Queries {
		p, err := ssb.BuildPlan(q, data.Dicts)
		if err != nil {
			t.Fatal(err)
		}
		var opts []core.Option
		if costBased {
			opts = append(opts, core.WithCostBasedFormats())
		}
		pr, err := e.Prepare(p, opts...)
		if err != nil {
			t.Fatalf("Q%s: %v", q, err)
		}
		prs = append(prs, pr)
	}
	return e, prs
}

// TestResultColumnsOutliveLaterRuns: the result columns of run N stay
// byte-identical after run N+1 on the same Prepared, and after two
// concurrent runs on it, though those runs recycle every intermediate.
func TestResultColumnsOutliveLaterRuns(t *testing.T) {
	ctx := context.Background()
	for _, costBased := range []bool{false, true} {
		e, prs := lifetimeEngine(t, costBased)
		for i, pr := range prs {
			label := fmt.Sprintf("Q%s/costbased=%v", ssb.Queries[i], costBased)
			res, err := pr.Execute(ctx)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			snap := snapshot(res.Cols)
			if _, err := pr.Execute(ctx); err != nil {
				t.Fatalf("%s: run 2: %v", label, err)
			}
			if err := unchanged(snap, res.Cols); err != nil {
				t.Fatalf("%s: after run 2: %v", label, err)
			}
			var wg sync.WaitGroup
			errs := make([]error, 2)
			for g := range errs {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					_, errs[g] = pr.Execute(ctx)
				}(g)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatalf("%s: concurrent run: %v", label, err)
				}
			}
			if err := unchanged(snap, res.Cols); err != nil {
				t.Fatalf("%s: after concurrent runs: %v", label, err)
			}
		}
		e.Close(ctx)
	}
}

// TestKeepRunOutlivesLaterRuns: a WithKeep(true) execution releases nothing,
// so every column of its Inter stays byte-identical while three later runs
// of the same Prepared recycle their own intermediates.
func TestKeepRunOutlivesLaterRuns(t *testing.T) {
	ctx := context.Background()
	e, prs := lifetimeEngine(t, true)
	defer e.Close(ctx)
	for i, pr := range prs {
		kept, err := pr.Execute(ctx, core.WithKeep(true))
		if err != nil {
			t.Fatalf("Q%s: %v", ssb.Queries[i], err)
		}
		snap := snapshot(kept.Inter)
		for run := 0; run < 3; run++ {
			if _, err := pr.Execute(ctx); err != nil {
				t.Fatalf("Q%s: run %d: %v", ssb.Queries[i], run, err)
			}
		}
		if err := unchanged(snap, kept.Inter); err != nil {
			t.Fatalf("Q%s: kept intermediates: %v", ssb.Queries[i], err)
		}
	}
}

// TestPoolRetentionBound: after three sweeps of the 13 plans no lease is
// open, the pool retains no more than its cap — four times the most bytes one
// execution drew at once, times the most executions at once — and it does
// retain buffers for the next sweep; Close empties it.
func TestPoolRetentionBound(t *testing.T) {
	ctx := context.Background()
	e, prs := lifetimeEngine(t, true)
	for sweep := 0; sweep < 3; sweep++ {
		for i, pr := range prs {
			if _, err := pr.Execute(ctx); err != nil {
				t.Fatalf("sweep %d Q%s: %v", sweep, ssb.Queries[i], err)
			}
		}
	}
	if n := core.PoolLeases(e); n != 0 {
		t.Fatalf("%d pool leases open after the sweeps", n)
	}
	held, limit := e.Stats().PooledBytes, core.PoolLimit(e)
	t.Logf("pool retains %d bytes, cap %d", held, limit)
	if held <= 0 || held > limit {
		t.Fatalf("pool retains %d bytes, want within (0, %d]", held, limit)
	}
	if err := e.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().PooledBytes; got != 0 {
		t.Fatalf("pool retains %d bytes after Close", got)
	}
}

// TestMemPeakIsLivePeak: each column is released when its last consumer
// finishes, so on the Q3.x and Q4.x plans the most bytes an execution holds
// at once (MemPeak) is below the bytes it materializes in all (at one worker
// that sum is what it charges: Meas.InterBytes).
func TestMemPeakIsLivePeak(t *testing.T) {
	ctx := context.Background()
	e, prs := lifetimeEngine(t, true)
	defer e.Close(ctx)
	for i, pr := range prs {
		q := ssb.Queries[i]
		if q[0] != '3' && q[0] != '4' {
			continue
		}
		var qs metrics.QueryStats
		res, err := pr.Execute(ctx, core.WithParallelism(1), core.WithExecStats(&qs))
		if err != nil {
			t.Fatalf("Q%s: %v", q, err)
		}
		t.Logf("Q%s: MemPeak %d of %d bytes materialized", q, qs.MemPeak, res.Meas.InterBytes)
		if qs.MemPeak <= 0 || qs.MemPeak >= int64(res.Meas.InterBytes) {
			t.Fatalf("Q%s: MemPeak %d, want below the %d bytes materialized", q, qs.MemPeak, res.Meas.InterBytes)
		}
	}
}

// TestMemoryBudgetAdmitsTwoQ41: the estimate after a run follows the peak,
// not the sum, so under a WithMemoryBudget between the two a second Q4.1 is
// admitted beside a running one at once, where two sum-sized estimates
// would not fit. The bound before any record is the sum of the upper
// bounds, which the budget does not cover; the Prepared under test takes the
// record of the same plan run on an engine without a budget.
func TestMemoryBudgetAdmitsTwoQ41(t *testing.T) {
	ctx := context.Background()
	data, err := ssb.Generate(0.005, 3)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ssb.BuildPlan(ssb.Q41, data.Dicts)
	if err != nil {
		t.Fatal(err)
	}
	free := core.NewEngine(data.DB, core.WithParallelism(1))
	defer free.Close(ctx)
	warm, err := free.Prepare(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := warm.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	est := int64(warm.MemoryEstimate())
	sumEst := int64(math.Ceil(1.25 * float64(res.Meas.InterBytes))) // the estimate from the charged sum
	budget := 2 * est
	t.Logf("estimate %d from the peak, %d from the sum, budget %d", est, sumEst, budget)
	if 2*sumEst <= budget {
		t.Fatalf("two sum estimates (%d) fit the budget %d: the test shows nothing", 2*sumEst, budget)
	}

	e := core.NewEngine(data.DB, core.WithParallelism(1), core.WithMemoryBudget(budget),
		core.WithAdmissionQueue(0, 5*time.Second))
	defer e.Close(ctx)
	pr, err := e.Prepare(p)
	if err != nil {
		t.Fatal(err)
	}
	core.ShareRecord(pr, warm)
	if got := int64(pr.MemoryEstimate()); got != est {
		t.Fatalf("estimate %d with the shared record, want %d", got, est)
	}
	running, err := core.AdmitQuery(ctx, e, est) // one Q4.1 in flight
	if err != nil {
		t.Fatal(err)
	}
	defer running()
	var qs metrics.QueryStats
	got, err := pr.Execute(ctx, core.WithExecStats(&qs))
	if err != nil {
		t.Fatalf("second Q4.1: %v", err)
	}
	if err := sameResultPair(res, got); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.AdmissionWaits != 0 || st.MemPeakReserved != 2*est {
		t.Fatalf("second Q4.1 waited %d times, peak reservation %d; want admitted at once beside the first (%d)",
			st.AdmissionWaits, st.MemPeakReserved, 2*est)
	}
	if qs.MemPeak > est {
		t.Fatalf("second Q4.1 held %d bytes at once, over its estimate %d", qs.MemPeak, est)
	}
}

// sameResultPair compares the result columns of two executions word for
// word.
func sameResultPair(want, got *core.Result) error {
	if len(got.Cols) != len(want.Cols) {
		return fmt.Errorf("%d result columns, want %d", len(got.Cols), len(want.Cols))
	}
	for name, w := range want.Cols {
		if g := got.Cols[name]; g == nil || !slices.Equal(g.Words(), w.Words()) {
			return fmt.Errorf("result column %q differs", name)
		}
	}
	return nil
}
