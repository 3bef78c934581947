package morphstore_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	ms "morphstore"
)

// tableValues extracts every column of a table as plain values.
func tableValues(t *testing.T, db *ms.DB, table string) map[string][]uint64 {
	t.Helper()
	tab, ok := db.Tables[table]
	if !ok {
		t.Fatalf("table %q missing", table)
	}
	out := make(map[string][]uint64, len(tab.Cols))
	for cn, col := range tab.Cols {
		vals, err := ms.Decompress(col)
		if err != nil {
			t.Fatalf("%s.%s: %v", table, cn, err)
		}
		out[cn] = vals
	}
	return out
}

// addTables builds a DB from per-table value maps.
func addTables(t *testing.T, tables map[string]map[string][]uint64) *ms.DB {
	t.Helper()
	db := ms.NewDB()
	for name, cols := range tables {
		if err := db.AddTable(name, cols); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// sameResultCols byte-compares two results column by column.
func sameResultCols(want, got *ms.Result) error {
	if len(got.Cols) != len(want.Cols) {
		return fmt.Errorf("%d result columns, want %d", len(got.Cols), len(want.Cols))
	}
	for name, w := range want.Cols {
		g := got.Cols[name]
		if g == nil {
			return fmt.Errorf("column %q missing", name)
		}
		if g.N() != w.N() || g.MainElems() != w.MainElems() || len(g.Words()) != len(w.Words()) {
			return fmt.Errorf("column %q shape mismatch", name)
		}
		gw, ww := g.Words(), w.Words()
		for k := range ww {
			if gw[k] != ww[k] {
				return fmt.Errorf("column %q word %d differs", name, k)
			}
		}
	}
	return nil
}

// TestWritableSSBEquivalence is the write-path equivalence proof: an SSB
// database grown through a randomized interleaving of Engine.Append,
// Engine.Delete, and remorph folds (explicit and background) must answer
// all 13 SSB queries byte-identically to a freshly loaded read-only
// database holding the same final rows, across intermediate formats,
// parallelism levels and both kernel paths.
func TestWritableSSBEquivalence(t *testing.T) {
	data, err := ms.GenerateSSB(0.002, 11)
	if err != nil {
		t.Fatal(err)
	}
	full := tableValues(t, data.DB, "lineorder")
	var total int
	for _, vals := range full {
		total = len(vals)
		break
	}

	// The mutated engine starts from a lineorder prefix; the rest arrives
	// through Append, interleaved with deletes and remorphs. The model
	// mirrors every mutation with plain slice surgery.
	p0 := total * 3 / 5
	tables := map[string]map[string][]uint64{}
	for name := range data.DB.Tables {
		if name == "lineorder" {
			continue
		}
		tables[name] = tableValues(t, data.DB, name)
	}
	prefix := make(map[string][]uint64, len(full))
	model := make(map[string][]uint64, len(full))
	for cn, vals := range full {
		prefix[cn] = vals[:p0:p0]
		model[cn] = append([]uint64(nil), vals[:p0]...)
	}
	tables["lineorder"] = prefix
	dbA := addTables(t, tables)

	engA := ms.NewEngine(dbA, ms.WithParallelism(4),
		ms.WithRemorph(0.08, time.Millisecond)) // background folds race the storm
	defer engA.Close(context.Background())
	ctx := context.Background()

	rng := rand.New(rand.NewSource(99))
	next := p0
	for step := 0; step < 40; step++ {
		switch op := rng.Intn(5); {
		case op <= 2 && next < total: // append a random-size chunk
			k := 1 + rng.Intn(total-next)
			if k > 700 {
				k = 700
			}
			rows := make(map[string][]uint64, len(full))
			for cn, vals := range full {
				rows[cn] = vals[next : next+k]
			}
			if err := engA.Append(ctx, "lineorder", rows); err != nil {
				t.Fatalf("step %d append: %v", step, err)
			}
			for cn := range model {
				model[cn] = append(model[cn], full[cn][next:next+k]...)
			}
			next += k
		case op == 3: // delete a few distinct live rows
			live := len(model["lo_quantity"])
			seen := map[uint64]bool{}
			var pos []uint64
			for len(pos) < 1+rng.Intn(8) {
				p := uint64(rng.Intn(live))
				if !seen[p] {
					seen[p] = true
					pos = append(pos, p)
				}
			}
			if err := engA.Delete(ctx, "lineorder", pos); err != nil {
				t.Fatalf("step %d delete: %v", step, err)
			}
			for cn, vals := range model {
				out := vals[:0]
				for i, v := range vals {
					if !seen[uint64(i)] {
						out = append(out, v)
					}
				}
				model[cn] = out
			}
		default: // fold
			if err := engA.Remorph(ctx, "lineorder"); err != nil {
				t.Fatalf("step %d remorph: %v", step, err)
			}
		}
	}
	if n, ok := engA.Snapshot().Rows("lineorder"); !ok || n != len(model["lo_quantity"]) {
		t.Fatalf("mutated engine has %d live rows, model has %d", n, len(model["lo_quantity"]))
	}

	// The reference engine loads the final rows read-only.
	tables["lineorder"] = model
	dbB := addTables(t, tables)
	engB := ms.NewEngine(dbB, ms.WithParallelism(4))
	defer engB.Close(context.Background())

	descs := map[string]ms.FormatDesc{
		"uncompr": ms.Uncompressed, "dyn_bp": ms.DynBP, "for_bp": ms.ForBP, "rle": ms.RLE,
	}
	for _, q := range ms.SSBQueries {
		plan, err := ms.BuildSSBPlan(q, data)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		for dn, desc := range descs {
			for _, par := range []int{1, 4} {
				opts := []ms.Option{ms.WithUniformFormat(desc), ms.WithParallelism(par)}
				prA, err := engA.Prepare(plan, opts...)
				if err != nil {
					t.Fatalf("%s/%s/par%d prepare mutated: %v", q, dn, par, err)
				}
				prB, err := engB.Prepare(plan, opts...)
				if err != nil {
					t.Fatalf("%s/%s/par%d prepare fresh: %v", q, dn, par, err)
				}
				var ref *ms.Result
				eachKernelPath(func(path string) {
					resA, err := prA.Execute(ctx)
					if err != nil {
						t.Fatalf("%s/%s/par%d/%s mutated: %v", q, dn, par, path, err)
					}
					resB, err := prB.Execute(ctx)
					if err != nil {
						t.Fatalf("%s/%s/par%d/%s fresh: %v", q, dn, par, path, err)
					}
					if ref == nil {
						ref = resB
					}
					if err := sameResultCols(ref, resA); err != nil {
						t.Fatalf("%s/%s/par%d/%s: mutated diverges from fresh reload: %v", q, dn, par, path, err)
					}
					if err := sameResultCols(ref, resB); err != nil {
						t.Fatalf("%s/%s/par%d/%s: fresh reload diverges across kernel paths: %v", q, dn, par, path, err)
					}
				})
			}
		}
	}
}
