package core_test

import (
	"context"
	"fmt"
	"testing"

	"morphstore/internal/core"
	"morphstore/internal/metrics"
	"morphstore/internal/ssb"
)

// TestRewriteSSBMatchesPlanAsWritten runs the 13 SSB plans uncompressed and
// with cost-based formats (base columns encoded as picked, as the repository
// benchmark does) at par 1 and 2: the result columns of three consecutive
// rewritten executions — the later ones sized from the observation record
// and recycling the earlier ones' released buffers — are byte-identical to a
// WithKeep(true) execution's, which runs the plan as written, and the Q1.x
// conjunctions run fused.
func TestRewriteSSBMatchesPlanAsWritten(t *testing.T) {
	data, err := ssb.Generate(0.002, 11)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, costBased := range []bool{false, true} {
		for _, q := range ssb.Queries {
			p, err := ssb.BuildPlan(q, data.Dicts)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			db, opts := data.DB, []core.Option(nil)
			if costBased {
				a, err := core.CostBasedAssignment(p, data.DB)
				if err != nil {
					t.Fatalf("%s: %v", q, err)
				}
				if db, err = data.DB.Encode(a.Base); err != nil {
					t.Fatalf("%s: %v", q, err)
				}
				opts = append(opts, core.WithFormats(a.Inter))
			}
			e := core.NewEngine(db, core.WithParallelism(2))
			pr, err := e.Prepare(p, opts...)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			for _, par := range []int{1, 2} {
				label := fmt.Sprintf("Q%s/costbased=%v/par%d", q, costBased, par)
				kept, err := pr.Execute(ctx, core.WithKeep(true), core.WithParallelism(par))
				if err != nil {
					t.Fatalf("%s: kept: %v", label, err)
				}
				var qs metrics.QueryStats
				var got *core.Result
				for run := 1; run <= 3; run++ {
					if got, err = pr.Execute(ctx, core.WithParallelism(par), core.WithExecStats(&qs)); err != nil {
						t.Fatalf("%s run %d: %v", label, run, err)
					}
					sameResultCols(t, fmt.Sprintf("%s run %d", label, run), kept, got)
				}
				rows, err := ssb.ExtractResult(q, got)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if ref, err := ssb.Reference(q, data); err != nil || !ssb.RowsEqual(rows, ref) {
					t.Fatalf("%s: result differs from the row-wise reference (%v)", label, err)
				}
				elided := 0
				for _, ns := range qs.Nodes {
					if (ns.Op == "select" || ns.Op == "between") && len(ns.Formats) == 0 {
						elided++
					}
				}
				if fusedQ1 := q == ssb.Q11 || q == ssb.Q12 || q == ssb.Q13; fusedQ1 && elided < 2 || !fusedQ1 && elided != 0 {
					t.Fatalf("%s: %d selections elided", label, elided)
				}
			}
			e.Close(ctx)
		}
	}
}

// TestScheduleEdgesSSB checks the schedules of the 13 SSB plans
// (CheckSchedules): the edges of each are one another's inverse, the
// elided Q1.x selections read nothing, and the stats tree reports the plan's
// inputs.
func TestScheduleEdgesSSB(t *testing.T) {
	data, err := ssb.Generate(0.002, 11)
	if err != nil {
		t.Fatal(err)
	}
	e := core.NewEngine(data.DB, core.WithParallelism(2))
	defer e.Close(context.Background())
	for _, q := range ssb.Queries {
		p, err := ssb.BuildPlan(q, data.Dicts)
		if err != nil {
			t.Fatalf("Q%s: %v", q, err)
		}
		pr, err := e.Prepare(p, core.WithCostBasedFormats())
		if err != nil {
			t.Fatalf("Q%s: %v", q, err)
		}
		var qs metrics.QueryStats
		if _, err := pr.Execute(context.Background(), core.WithExecStats(&qs)); err != nil {
			t.Fatalf("Q%s: %v", q, err)
		}
		if err := core.CheckSchedules(pr, &qs); err != nil {
			t.Fatalf("Q%s: %v", q, err)
		}
	}
}

// sameResultCols fails the test unless both results carry the same result
// columns with the same words.
func sameResultCols(t *testing.T, label string, want, got *core.Result) {
	t.Helper()
	if len(got.Cols) != len(want.Cols) {
		t.Fatalf("%s: %d result columns, want %d", label, len(got.Cols), len(want.Cols))
	}
	for name, w := range want.Cols {
		g := got.Cols[name]
		if g == nil || g.Desc() != w.Desc() || g.N() != w.N() || len(g.Words()) != len(w.Words()) {
			t.Fatalf("%s: result column %q missing or reshaped", label, name)
		}
		for k, ww := range w.Words() {
			if g.Words()[k] != ww {
				t.Fatalf("%s: result column %q word %d differs", label, name, k)
			}
		}
	}
}
