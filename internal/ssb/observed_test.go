package ssb

import (
	"context"
	"maps"
	"runtime"
	"slices"
	"testing"

	"morphstore/internal/core"
)

// TestObservedReservationsKeepResults: the second and third execution of a
// Prepared size their output buffers from what the previous one produced,
// the first from the inputs' upper bounds. Only capacities may differ: on all
// 13 plans, uncompressed and cost-based, at one and two workers, the kept
// columns and footprints of runs 2 and 3 are byte-identical to run 1's.
func TestObservedReservationsKeepResults(t *testing.T) {
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

// TestSteadyStateAllocation pins what sizing buffers from the last run saves:
// on one worker at SF 0.02, the third sweep of the 13 queries, whose buffers
// are sized from the second's outputs, allocates at most 0.6× what the first
// sweep, whose buffers are reserved for their inputs' lengths, allocates.
// Intermediates stay uncompressed, so the writers' reservations are most of
// what a sweep allocates; compressed, a fixed share — the join tables, the
// auto-width static BP writers' buffers — sits on top at this scale.
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
	sweep := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i, pr := range prepared {
			if _, err := pr.Execute(context.Background()); err != nil {
				t.Fatalf("Q%s: %v", Queries[i], err)
			}
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	first := sweep()
	sweep()
	third := sweep()
	t.Logf("first sweep %d B, third %d B (%.2f×)", first, third, float64(third)/float64(first))
	if float64(third) > 0.6*float64(first) {
		t.Fatalf("third sweep allocated %d B, more than 0.6× the first sweep's %d B", third, first)
	}
}
