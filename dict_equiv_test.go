package morphstore_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	ms "morphstore"
)

// stringSelectPlan builds: positions of t.s matching the predicate,
// projected onto t.v.
func stringSelectPlan(t *testing.T, pred func(b *ms.PlanBuilder, s ms.ColRef) ms.ColRef) *ms.Plan {
	t.Helper()
	b := ms.NewPlanBuilder()
	s := b.Scan("t", "s")
	v := b.Scan("t", "v")
	b.Result(b.Project("vals", v, pred(b, s)))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// idSelectPlan is the pre-translated reference: the same shape over the
// plain uint64 ID column.
func idSelectPlan(t *testing.T, id uint64, hit bool) *ms.Plan {
	t.Helper()
	b := ms.NewPlanBuilder()
	sid := b.Scan("t", "sid")
	v := b.Scan("t", "v")
	var pos ms.ColRef
	if hit {
		pos = b.Select("pos", sid, ms.CmpEq, id)
	} else {
		// An absent string has no ID; selecting above every ID matches the
		// same empty position set.
		pos = b.Select("pos", sid, ms.CmpGt, id)
	}
	b.Result(b.Project("vals", v, pos))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestDictIngestEquivalence is the string-layer equivalence proof: a table
// grown through CSV ingest, JSON-lines ingest, direct AppendStrings batches,
// and remorph folds (which keep every dictionary ID) must answer
// string-equality queries byte-identically to a read-only reference engine
// holding the same rows as a pre-translated uint64 ID column queried
// with a plain integer select — across four formats, parallelism 1 and 4
// and both kernel paths.
func TestDictIngestEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	words := make([]string, 40)
	for i := range words {
		// Letters-first so CSV sniffing keeps the column a string column.
		words[i] = fmt.Sprintf("w%c%02d", 'a'+byte(i%7), i)
	}
	const total = 3000
	strsAll := make([]string, total)
	valsAll := make([]uint64, total)
	// The model dictionary pre-translates in first-occurrence order; the
	// engine's own numbering need not match it, and that must not be
	// observable in query results.
	modelID := make(map[string]uint64)
	sidAll := make([]uint64, total)
	for i := range strsAll {
		w := words[rng.Intn(len(words))]
		strsAll[i] = w
		valsAll[i] = uint64(rng.Intn(100000))
		id, ok := modelID[w]
		if !ok {
			id = uint64(len(modelID))
			modelID[w] = id
		}
		sidAll[i] = id
	}

	dbA := ms.NewDB()
	engA := ms.NewEngine(dbA, ms.WithParallelism(4),
		ms.WithRemorph(0.05, time.Millisecond)) // background folds race the ingest
	defer engA.Close(context.Background())
	ctx := context.Background()

	// First chunk arrives through CSV ingest (this also creates the table),
	// the rest through a randomized interleaving of JSON-lines ingest,
	// direct AppendStrings batches, and explicit remorphs.
	p0 := total / 3
	var csvBuf strings.Builder
	csvBuf.WriteString("s,v\n")
	for i := 0; i < p0; i++ {
		fmt.Fprintf(&csvBuf, "%s,%d\n", strsAll[i], valsAll[i])
	}
	if n, err := ms.Ingest(ctx, engA, "t", ms.NewCSVSource(strings.NewReader(csvBuf.String())), ms.WithBatchRows(512)); err != nil || n != p0 {
		t.Fatalf("csv ingest = %d, %v", n, err)
	}
	next := p0
	for next < total {
		k := 1 + rng.Intn(total-next)
		if k > 400 {
			k = 400
		}
		switch rng.Intn(4) {
		case 0: // JSON-lines ingest
			var jb strings.Builder
			for i := next; i < next+k; i++ {
				fmt.Fprintf(&jb, "{\"s\": %q, \"v\": %d}\n", strsAll[i], valsAll[i])
			}
			if n, err := ms.Ingest(ctx, engA, "t", ms.NewJSONLinesSource(strings.NewReader(jb.String())), ms.WithBatchRows(128)); err != nil || n != k {
				t.Fatalf("jsonl ingest = %d, %v", n, err)
			}
		case 1: // direct batch append
			if err := engA.AppendStrings(ctx, "t",
				map[string][]uint64{"v": valsAll[next : next+k]},
				map[string][]string{"s": strsAll[next : next+k]}); err != nil {
				t.Fatalf("append strings: %v", err)
			}
		default: // CSV ingest again
			var cb strings.Builder
			cb.WriteString("s,v\n")
			for i := next; i < next+k; i++ {
				fmt.Fprintf(&cb, "%s,%d\n", strsAll[i], valsAll[i])
			}
			if n, err := ms.Ingest(ctx, engA, "t", ms.NewCSVSource(strings.NewReader(cb.String())), ms.WithBatchRows(256)); err != nil || n != k {
				t.Fatalf("csv ingest = %d, %v", n, err)
			}
		}
		next += k
		if rng.Intn(3) == 0 {
			if err := engA.Remorph(ctx, "t"); err != nil {
				t.Fatalf("remorph: %v", err)
			}
		}
	}
	if n, ok := engA.Snapshot().Rows("t"); !ok || n != total {
		t.Fatalf("grown engine has %d rows, want %d", n, total)
	}

	// The reference engine holds the same rows with the string column
	// pre-translated to model IDs, read-only.
	dbB := ms.NewDB()
	if err := dbB.AddTable("t", map[string][]uint64{"sid": sidAll, "v": valsAll}); err != nil {
		t.Fatal(err)
	}
	engB := ms.NewEngine(dbB, ms.WithParallelism(4))
	defer engB.Close(context.Background())

	descs := map[string]ms.FormatDesc{
		"uncompr": ms.Uncompressed, "dyn_bp": ms.DynBP, "for_bp": ms.ForBP, "rle": ms.RLE,
	}
	targets := []string{words[0], words[13], words[39], "absent"}
	for _, w := range targets {
		w := w
		planA := stringSelectPlan(t, func(b *ms.PlanBuilder, s ms.ColRef) ms.ColRef {
			return b.SelectStrEq("pos", s, w)
		})
		id, hit := modelID[w]
		if !hit {
			id = uint64(len(modelID)) // CmpGt above the top ID: empty
		}
		planB := idSelectPlan(t, id, hit)
		for dn, desc := range descs {
			for _, par := range []int{1, 4} {
				opts := []ms.Option{ms.WithUniformFormat(desc), ms.WithParallelism(par)}
				prA, err := engA.Prepare(planA, opts...)
				if err != nil {
					t.Fatalf("%s/%s/par%d prepare strings: %v", w, dn, par, err)
				}
				prB, err := engB.Prepare(planB, opts...)
				if err != nil {
					t.Fatalf("%s/%s/par%d prepare reference: %v", w, dn, par, err)
				}
				var ref *ms.Result
				eachKernelPath(func(path string) {
					resA, err := prA.Execute(ctx)
					if err != nil {
						t.Fatalf("%s/%s/par%d/%s strings: %v", w, dn, par, path, err)
					}
					resB, err := prB.Execute(ctx)
					if err != nil {
						t.Fatalf("%s/%s/par%d/%s reference: %v", w, dn, par, path, err)
					}
					if ref == nil {
						ref = resB
					}
					if err := sameResultCols(ref, resA); err != nil {
						t.Fatalf("%s/%s/par%d/%s: string engine diverges from pre-translated reference: %v", w, dn, par, path, err)
					}
					if err := sameResultCols(ref, resB); err != nil {
						t.Fatalf("%s/%s/par%d/%s: reference diverges across kernel paths: %v", w, dn, par, path, err)
					}
				})
			}
		}
	}

	// IN and prefix predicates against a plain-Go model: par 1 and par 4, on
	// both kernel paths, must stay byte-identical, and the values must match
	// the model.
	inSet := []string{words[3], words[17], words[24], "absent"}
	prefix := "wb"
	model := func(match func(string) bool) map[uint64]int {
		counts := make(map[uint64]int)
		for i, s := range strsAll {
			if match(s) {
				counts[valsAll[i]]++
			}
		}
		return counts
	}
	checks := []struct {
		name  string
		plan  *ms.Plan
		match func(string) bool
	}{
		{"in", stringSelectPlan(t, func(b *ms.PlanBuilder, s ms.ColRef) ms.ColRef {
			return b.SelectStrIn("pos", s, inSet...)
		}), func(s string) bool {
			for _, w := range inSet {
				if s == w {
					return true
				}
			}
			return false
		}},
		{"prefix", stringSelectPlan(t, func(b *ms.PlanBuilder, s ms.ColRef) ms.ColRef {
			return b.SelectStrPrefix("pos", s, prefix)
		}), func(s string) bool { return strings.HasPrefix(s, prefix) }},
	}
	for _, c := range checks {
		want := model(c.match)
		var res1 *ms.Result
		eachKernelPath(func(path string) {
			for _, par := range []int{1, 4} {
				pr, err := engA.Prepare(c.plan, ms.WithUniformFormat(ms.DynBP), ms.WithParallelism(par))
				if err != nil {
					t.Fatalf("%s/par%d/%s: %v", c.name, par, path, err)
				}
				res, err := pr.Execute(ctx)
				if err != nil {
					t.Fatalf("%s/par%d/%s: %v", c.name, par, path, err)
				}
				if res1 == nil {
					res1 = res
					vals, err := ms.Decompress(res.Cols["vals"])
					if err != nil {
						t.Fatal(err)
					}
					got := make(map[uint64]int)
					for _, v := range vals {
						got[v]++
					}
					if len(got) != len(want) {
						t.Fatalf("%s: %d distinct values, want %d", c.name, len(got), len(want))
					}
					for v, n := range want {
						if got[v] != n {
							t.Fatalf("%s: value %d appears %d times, want %d", c.name, v, got[v], n)
						}
					}
				} else if err := sameResultCols(res1, res); err != nil {
					t.Fatalf("%s/par%d/%s: diverges from par 1: %v", c.name, par, path, err)
				}
			}
		})
	}

	// The grown dictionary can translate a result back: every live row's
	// string is resolvable through the pinned snapshot.
	ds := engA.Snapshot().Dict("t", "s")
	if ds == nil {
		t.Fatal("Snapshot.Dict is nil on the grown engine")
	}
	if ds.Len() != len(modelID) {
		t.Fatalf("dict has %d strings, model has %d", ds.Len(), len(modelID))
	}
	for w := range modelID {
		if _, ok := ds.ID(w); !ok {
			t.Fatalf("dict lost %q", w)
		}
	}
}
