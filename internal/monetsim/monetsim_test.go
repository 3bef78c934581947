package monetsim

import (
	"context"
	"math/rand"
	"testing"

	"morphstore/internal/bitutil"
	"morphstore/internal/columns"
	"morphstore/internal/core"
	"morphstore/internal/ops"
)

func TestBATWidths(t *testing.T) {
	cases := []struct {
		vals []uint64
		want Width
	}{
		{[]uint64{0, 255}, W8},
		{[]uint64{256}, W16},
		{[]uint64{1 << 16}, W32},
		{[]uint64{1 << 32}, W64},
		{nil, W8},
	}
	for _, c := range cases {
		b := FromValuesNarrow(c.vals)
		if b.w != c.want {
			t.Errorf("FromValuesNarrow(%v) width %d, want %d", c.vals, b.w, c.want)
		}
		for i, v := range c.vals {
			if b.Get(i) != v {
				t.Errorf("Get(%d) = %d, want %d", i, b.Get(i), v)
			}
		}
	}
	wide := FromValues([]uint64{1, 2, 3})
	if wide.PhysicalBytes() != 24 {
		t.Errorf("wide bytes = %d", wide.PhysicalBytes())
	}
	narrow := FromValuesNarrow([]uint64{1, 2, 3})
	if narrow.PhysicalBytes() != 3 {
		t.Errorf("narrow bytes = %d", narrow.PhysicalBytes())
	}
}

// buildTestPlan constructs the engine-shared test query:
// SELECT attr, SUM(val*wgt) FROM fact JOIN dim ON fk=pk
// WHERE sel BETWEEN 2 AND 7 GROUP BY attr.
func buildTestPlan(t *testing.T) *core.Plan {
	t.Helper()
	b := core.NewBuilder()
	fk := b.Scan("fact", "fk")
	sel := b.Scan("fact", "sel")
	val := b.Scan("fact", "val")
	wgt := b.Scan("fact", "wgt")
	pk := b.Scan("dim", "pk")
	attr := b.Scan("dim", "attr")

	pos := b.Between("pos", sel, 2, 7)
	fkP := b.Project("fk_p", fk, pos)
	pp, bp := b.JoinN1("j", fkP, pk)
	posJ := b.Project("pos_j", pos, pp)
	attrRow := b.Project("attr_row", attr, bp)
	valRow := b.Project("val_row", val, posJ)
	wgtRow := b.Project("wgt_row", wgt, posJ)
	prod := b.Calc("prod", ops.CalcMul, valRow, wgtRow)
	gids, ext := b.GroupFirst("g", attrRow)
	sums := b.SumGrouped("sums", gids, ext, prod)
	keys := b.Project("keys", attr, b.Project("ext_b", bp, ext))
	b.Result(sums)
	b.Result(keys)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func buildTestDB(t *testing.T, n int, seed int64) *core.DB {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	fk := make([]uint64, n)
	sel := make([]uint64, n)
	val := make([]uint64, n)
	wgt := make([]uint64, n)
	for i := 0; i < n; i++ {
		fk[i] = uint64(rng.Intn(40))
		sel[i] = uint64(rng.Intn(10))
		val[i] = uint64(rng.Intn(1000))
		wgt[i] = uint64(rng.Intn(10))
	}
	pk := make([]uint64, 30) // only 30 of 40 fks match: real join selectivity
	attr := make([]uint64, 30)
	for i := range pk {
		pk[i] = uint64(i)
		attr[i] = uint64(i % 5)
	}
	db := core.NewDB()
	db.AddTable("fact", map[string][]uint64{"fk": fk, "sel": sel, "val": val, "wgt": wgt})
	db.AddTable("dim", map[string][]uint64{"pk": pk, "attr": attr})
	return db
}

// TestMatchesMorphStoreEngine is the cross-engine equivalence test: the
// baseline must produce exactly the same query results as the MorphStore
// engine on the same plan, in both storage modes.
func TestMatchesMorphStoreEngine(t *testing.T) {
	p := buildTestPlan(t)
	db := buildTestDB(t, 20000, 3)

	pr, err := core.NewEngine(db).Prepare(p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := pr.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantSums, _ := want.Cols["sums"].Values()
	wantKeys, _ := want.Cols["keys"].Values()

	for _, narrow := range []bool{false, true} {
		mdb, err := NewDB(db, narrow)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Execute(p, mdb)
		if err != nil {
			t.Fatalf("narrow=%v: %v", narrow, err)
		}
		if len(got.Cols["sums"]) != len(wantSums) {
			t.Fatalf("narrow=%v: %d groups, want %d", narrow, len(got.Cols["sums"]), len(wantSums))
		}
		for i := range wantSums {
			if got.Cols["sums"][i] != wantSums[i] || got.Cols["keys"][i] != wantKeys[i] {
				t.Fatalf("narrow=%v: group %d = (%d,%d), want (%d,%d)", narrow, i,
					got.Cols["keys"][i], got.Cols["sums"][i], wantKeys[i], wantSums[i])
			}
		}
		if got.Runtime <= 0 || got.Footprint <= 0 {
			t.Errorf("narrow=%v: missing measurements", narrow)
		}
	}
}

// TestNarrowFootprintSmaller verifies the narrow-types mode actually shrinks
// the base data footprint (the effect the paper simulates in MonetDB).
func TestNarrowFootprintSmaller(t *testing.T) {
	p := buildTestPlan(t)
	db := buildTestDB(t, 50000, 4)
	wide, err := NewDB(db, false)
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := NewDB(db, true)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := Execute(p, wide)
	if err != nil {
		t.Fatal(err)
	}
	rn, err := Execute(p, narrow)
	if err != nil {
		t.Fatal(err)
	}
	if rn.Footprint >= rw.Footprint {
		t.Errorf("narrow footprint %d >= wide %d", rn.Footprint, rw.Footprint)
	}
}

func TestScalarKernels(t *testing.T) {
	vals := []uint64{5, 300, 70000, 1 << 40, 5}
	b := FromValues(vals)
	sel := selectCmp(b, bitutil.CmpEq, 5)
	if got := sel.Values(); len(got) != 2 || got[0] != 0 || got[1] != 4 {
		t.Errorf("selectCmp = %v", got)
	}
	bet := selectBetween(b, 100, 100000)
	if got := bet.Values(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("selectBetween = %v", got)
	}
	proj, err := project(b, FromValues([]uint64{4, 0}))
	if err != nil || proj.Get(0) != 5 || proj.Get(1) != 5 {
		t.Errorf("project = %v (%v)", proj.Values(), err)
	}
	if _, err := project(b, FromValues([]uint64{99})); err == nil {
		t.Error("out-of-range project must fail")
	}
	s := sumWhole(FromValuesNarrow([]uint64{1, 2, 3}))
	if s.Get(0) != 6 {
		t.Errorf("sum = %d", s.Get(0))
	}
}

func TestNewDBRejectsCompressedBase(t *testing.T) {
	db := buildTestDB(t, 100, 5)
	enc, err := db.Encode(map[string]columns.FormatDesc{"fact.fk": columns.DynBPDesc})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDB(enc, false); err == nil {
		t.Error("compressed base data must be rejected")
	}
}
