package ssb

import (
	"context"
	"maps"
	"runtime"
	"slices"
	"testing"

	"morphstore/internal/core"
)

// TestPooledKeepRunsKeepResults: every execution of a Prepared draws its
// output buffers from the engine's buffer pool, dirty with what earlier
// executions released, and sizes them from the inputs' upper bounds. Only
// capacities may differ: on all 13 plans, uncompressed and cost-based, at one
// and two workers, the kept columns and footprints of keep runs 2 and 3 are
// byte-identical to run 1's, though a normal (WithKeep(false)) execution of
// the same Prepared runs before each of them and gives its buffers back.
func TestPooledKeepRunsKeepResults(t *testing.T) {
	d := getData(t)
	eng := core.NewEngine(d.DB, core.WithParallelism(2))
	configs := []struct {
		name string
		opts []core.Option
	}{
		{"uncompressed", []core.Option{core.WithKeep(true)}},
		{"cost-based", []core.Option{core.WithKeep(true), core.WithCostBasedFormats()}},
	}
	for _, q := range Queries {
		plan, err := BuildPlan(q, d.Dicts)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range configs {
			for _, par := range []int{1, 2} {
				pr, err := eng.Prepare(plan, append(c.opts, core.WithParallelism(par))...)
				if err != nil {
					t.Fatalf("%s %s: %v", q, c.name, err)
				}
				var first *core.Result
				for run := 1; run <= 3; run++ {
					if _, err := pr.Execute(context.Background(), core.WithKeep(false)); err != nil {
						t.Fatalf("%s %s par %d normal run before keep run %d: %v", q, c.name, par, run, err)
					}
					res, err := pr.Execute(context.Background())
					if err != nil {
						t.Fatalf("%s %s par %d run %d: %v", q, c.name, par, run, err)
					}
					if run == 1 {
						first = res
						continue
					}
					if msg := sameKept(first, res); msg != "" {
						t.Fatalf("%s %s par %d run %d: %s", q, c.name, par, run, msg)
					}
				}
			}
		}
	}
}

// sameKept compares the kept columns and the footprint accounting of two
// executions of one plan; it returns "" when they are byte-identical.
func sameKept(a, b *core.Result) string {
	if len(a.Inter) != len(b.Inter) {
		return "kept column sets differ"
	}
	for name, x := range a.Inter {
		y := b.Inter[name]
		if y == nil || x.Desc() != y.Desc() || x.N() != y.N() || !slices.Equal(x.Words(), y.Words()) {
			return "column " + name + " differs"
		}
	}
	if a.Meas.BaseBytes != b.Meas.BaseBytes || a.Meas.InterBytes != b.Meas.InterBytes || !maps.Equal(a.Meas.ColBytes, b.Meas.ColBytes) {
		return "footprint accounting differs"
	}
	return ""
}

// TestSteadyStateAllocation pins what recycling intermediates through the
// engine's buffer pool saves, on one worker at SF 0.02 with uncompressed
// intermediates. Every execution sizes its buffers from their inputs' upper
// bounds and draws them from the pool, which the earlier sweeps filled. The
// third sweep of the 13 queries allocates at most 0.6× what the first sweep,
// whose buffers are not yet pooled, allocates. And it allocates at most
// 0.075× the bytes of the intermediates it materializes (the summed
// Meas.InterBytes): every intermediate's words, the drivers' staging and
// scratch and the join and grouping tables come from the pool, so what is
// left is the result columns and the per-execution bookkeeping (measured
// 0.047×, 284 kB of 6.0 MB, on a two-core x86-64 container; 1.62× before
// the pool).
func TestSteadyStateAllocation(t *testing.T) {
	d, err := Generate(0.02, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(d.DB, core.WithParallelism(1))
	var prepared []*core.Prepared
	for _, q := range Queries {
		plan, err := BuildPlan(q, d.Dicts)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := eng.Prepare(plan)
		if err != nil {
			t.Fatal(err)
		}
		prepared = append(prepared, pr)
	}
	// sweep returns the bytes one sweep allocates and the bytes of the
	// intermediates its executions materialize.
	sweep := func() (alloc uint64, inter int) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i, pr := range prepared {
			res, err := pr.Execute(context.Background())
			if err != nil {
				t.Fatalf("Q%s: %v", Queries[i], err)
			}
			inter += res.Meas.InterBytes
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, inter
	}
	first, _ := sweep()
	sweep()
	third, inter := sweep()
	t.Logf("first sweep %d B, third %d B (%.2f×); third sweep's intermediates %d B (%.2f×)",
		first, third, float64(third)/float64(first), inter, float64(third)/float64(inter))
	if float64(third) > 0.6*float64(first) {
		t.Fatalf("third sweep allocated %d B, more than 0.6× the first sweep's %d B", third, first)
	}
	if float64(third) > 0.075*float64(inter) {
		t.Fatalf("third sweep allocated %d B, more than 0.075× the %d B of intermediates it materialized", third, inter)
	}
}
