package ssb

import (
	"context"
	"testing"

	"morphstore/internal/columns"
	"morphstore/internal/core"
)

// TestGroupedQueriesParallelEquivalence is the cross-product equivalence
// check for the group-by-tailed SSB queries: Q3.x (iterative three-key
// grouping, two-city Merge predicates in Q3.3/Q3.4) and Q4.x (join-heavy
// plans with grouped profit sums) are prepared once per format and
// executed at parallelism 1, 2, 3, and 8 from the same Prepared — with the
// grouping and sorted-set operators running their parallel drivers under the
// engine budget — and every result column must be byte-identical to the
// sequential execution.
func TestGroupedQueriesParallelEquivalence(t *testing.T) {
	d := getData(t)
	queries := []Query{Q31, Q32, Q33, Q34, Q41, Q42, Q43}
	interDescs := []columns.FormatDesc{columns.UncomprDesc, columns.DynBPDesc, columns.DeltaBPDesc}
	parLevels := []int{1, 2, 3, 8}
	ctx := context.Background()

	for _, q := range queries {
		q := q
		t.Run(string(q), func(t *testing.T) {
			want, err := Reference(q, d)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := BuildPlan(q, d.Dicts)
			if err != nil {
				t.Fatal(err)
			}
			eng := core.NewEngine(d.DB, core.WithParallelism(8))
			for _, interDesc := range interDescs {
				name := interDesc.String()
				pq, err := eng.Prepare(plan, core.WithUniformFormat(interDesc))
				if err != nil {
					t.Fatalf("%s: prepare: %v", name, err)
				}
				var ref *core.Result
				for _, par := range parLevels {
					res, err := pq.Execute(ctx, core.WithParallelism(par))
					if err != nil {
						t.Fatalf("%s p=%d: %v", name, par, err)
					}
					if par == 1 {
						ref = res
						// The sequential run must also agree with the
						// row-wise ground truth.
						got, err := ExtractResult(q, res)
						if err != nil {
							t.Fatal(err)
						}
						if !RowsEqual(got, want) {
							t.Fatalf("%s: sequential result differs from reference", name)
						}
						continue
					}
					for cn, wc := range ref.Cols {
						gc, ok := res.Cols[cn]
						if !ok {
							t.Fatalf("%s p=%d: missing result column %q", name, par, cn)
						}
						if gc.Desc() != wc.Desc() || gc.N() != wc.N() {
							t.Fatalf("%s p=%d col %s: shape %v/%d, want %v/%d",
								name, par, cn, gc.Desc(), gc.N(), wc.Desc(), wc.N())
						}
						gw, ww := gc.Words(), wc.Words()
						if len(gw) != len(ww) {
							t.Fatalf("%s p=%d col %s: %d words, want %d", name, par, cn, len(gw), len(ww))
						}
						for i := range ww {
							if gw[i] != ww[i] {
								t.Fatalf("%s p=%d col %s: word %d differs", name, par, cn, i)
							}
						}
					}
				}
			}
		})
	}
}
