package core

import (
	"fmt"
	"math/rand"
	"testing"

	"morphstore/internal/bitutil"
	"morphstore/internal/columns"
	"morphstore/internal/formats"
	"morphstore/internal/ops"
)

// buildParTestDB builds a star-schema-like database: a fact table with
// foreign keys, quantities and prices, and a small dimension table. The fact
// cardinality is deliberately not block-aligned.
func buildParTestDB(t *testing.T) *DB {
	t.Helper()
	const nFact = 10*512 + 300 // > 2 morsels, not block-aligned
	const nDim = 400
	rng := rand.New(rand.NewSource(4))
	fk := make([]uint64, nFact)
	qty := make([]uint64, nFact)
	price := make([]uint64, nFact)
	for i := 0; i < nFact; i++ {
		fk[i] = uint64(rng.Intn(nDim))
		qty[i] = uint64(rng.Intn(50))
		price[i] = uint64(100 + rng.Intn(900))
	}
	id := make([]uint64, nDim)
	attr := make([]uint64, nDim)
	for i := 0; i < nDim; i++ {
		id[i] = uint64(i)
		attr[i] = uint64(rng.Intn(7))
	}
	db := NewDB()
	db.AddTable("fact", map[string][]uint64{"fk": fk, "qty": qty, "price": price})
	db.AddTable("dim", map[string][]uint64{"id": id, "attr": attr})
	return db
}

// buildParTestPlan assembles a plan with two independent filter branches
// (fodder for the concurrent scheduler), a semijoin, an N:1 join with both
// outputs consumed, projects, a calc, a grouped and a whole-column
// aggregation — every morsel-parallel streamed operator appears at least
// once.
func buildParTestPlan(t *testing.T) *Plan {
	t.Helper()
	b := NewBuilder()
	attr := b.Scan("dim", "attr")
	dimID := b.Scan("dim", "id")
	dSel := b.Select("d_sel", attr, bitutil.CmpEq, 3)
	dIDs := b.Project("d_ids", dimID, dSel)

	fk := b.Scan("fact", "fk")
	qty := b.Scan("fact", "qty")
	price := b.Scan("fact", "price")
	loPos := b.SemiJoin("lo_pos", fk, dIDs)
	qSel := b.Between("q_sel", qty, 10, 40)
	pos := b.Intersect("pos", loPos, qSel)

	pricePos := b.Project("price_pos", price, pos)
	qtyPos := b.Project("qty_pos", qty, pos)
	rev := b.Calc("rev", ops.CalcMul, pricePos, qtyPos)
	fkPos := b.Project("fk_pos", fk, pos)
	gids, extents := b.GroupFirst("g", fkPos)
	b.Result(b.SumGrouped("rev_g", gids, extents, rev))
	b.Result(b.SumWhole("rev_total", rev))

	// N:1 join branch: both the probe-side and the build-side position
	// outputs feed projects, pinning the dual-output stitch order.
	jp, jb := b.JoinN1("j", fk, dIDs)
	idJ := b.Project("id_j", dimID, jb)
	qtyJ := b.Project("qty_j", qty, jp)
	prod := b.Calc("jprod", ops.CalcMul, qtyJ, idJ)
	b.Result(b.SumWhole("jtotal", prod))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func sameColumns(t *testing.T, ctx string, want, got *columns.Column) {
	t.Helper()
	if got.Desc() != want.Desc() || got.N() != want.N() || got.MainElems() != want.MainElems() {
		t.Fatalf("%s: column shape %v/%d/%d, want %v/%d/%d",
			ctx, got.Desc(), got.N(), got.MainElems(), want.Desc(), want.N(), want.MainElems())
	}
	gw, ww := got.Words(), want.Words()
	if len(gw) != len(ww) {
		t.Fatalf("%s: %d words, want %d", ctx, len(gw), len(ww))
	}
	for i := range ww {
		if gw[i] != ww[i] {
			t.Fatalf("%s: word %d differs", ctx, i)
		}
	}
}

// TestExecuteParallelismEquivalence runs the same plan at parallelism 1, 2,
// 3, 8 and blocks+1 (more workers than fact-column blocks — degenerate
// partitions) under several format configurations and asserts that the
// result columns and the byte accounting are identical at every level.
func TestExecuteParallelismEquivalence(t *testing.T) {
	db := buildParTestDB(t)
	plan := buildParTestPlan(t)

	base := map[string]columns.FormatDesc{
		"fact.fk":  columns.StaticBPDesc(0), // randomly accessed -> static BP
		"fact.qty": columns.StaticBPDesc(0),
		"dim.id":   columns.StaticBPDesc(0),
		"dim.attr": columns.DynBPDesc,
	}
	enc, err := db.Encode(base)
	if err != nil {
		t.Fatal(err)
	}

	interDescs := []columns.FormatDesc{columns.UncomprDesc, columns.DynBPDesc, columns.DeltaBPDesc}
	for _, dbCase := range []struct {
		name string
		db   *DB
	}{{"plain", db}, {"encoded", enc}} {
		for _, interDesc := range interDescs {
			name := fmt.Sprintf("%s/%v", dbCase.name, interDesc)
			opts := []Option{WithUniformFormat(interDesc), WithKeep(true)}
			want, err := execPlan(plan, dbCase.db, 1, opts...)
			if err != nil {
				t.Fatalf("%s: sequential: %v", name, err)
			}
			// 10*512+300 fact elements span 11 blocks; 12 over-subscribes.
			for _, par := range []int{2, 3, 8, 12} {
				got, err := execPlan(plan, dbCase.db, par, opts...)
				if err != nil {
					t.Fatalf("%s p=%d: %v", name, par, err)
				}
				for cn, wc := range want.Cols {
					gc, ok := got.Cols[cn]
					if !ok {
						t.Fatalf("%s p=%d: missing result column %q", name, par, cn)
					}
					sameColumns(t, fmt.Sprintf("%s p=%d col %s", name, par, cn), wc, gc)
				}
				for cn, wc := range want.Inter {
					gc, ok := got.Inter[cn]
					if !ok {
						t.Fatalf("%s p=%d: missing intermediate %q", name, par, cn)
					}
					sameColumns(t, fmt.Sprintf("%s p=%d inter %s", name, par, cn), wc, gc)
				}
				if got.Meas.BaseBytes != want.Meas.BaseBytes || got.Meas.InterBytes != want.Meas.InterBytes {
					t.Fatalf("%s p=%d: footprint %d/%d, want %d/%d", name, par,
						got.Meas.BaseBytes, got.Meas.InterBytes, want.Meas.BaseBytes, want.Meas.InterBytes)
				}
				if len(got.Meas.ColBytes) != len(want.Meas.ColBytes) {
					t.Fatalf("%s p=%d: ColBytes has %d entries, want %d", name, par,
						len(got.Meas.ColBytes), len(want.Meas.ColBytes))
				}
				for cn, wb := range want.Meas.ColBytes {
					if gb := got.Meas.ColBytes[cn]; gb != wb {
						t.Fatalf("%s p=%d: ColBytes[%s] = %d, want %d", name, par, cn, gb, wb)
					}
				}
			}
		}
	}
}

// TestExecuteParallelErrorPropagation checks that a plan binding a
// non-random-access format to a randomly accessed intermediate is rejected at
// every width, and that no result is returned.
func TestExecuteParallelErrorPropagation(t *testing.T) {
	db := buildParTestDB(t)
	b := NewBuilder()
	qty := b.Scan("fact", "qty")
	sel := b.Select("sel", qty, bitutil.CmpLt, 10)
	// DynBP positions are randomly accessed by the project below: illegal
	// without AutoMorph.
	b.Result(b.Project("bad", sel, b.Select("sel2", qty, bitutil.CmpLt, 5)))
	plan, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		res, err := execPlan(plan, db, par, WithFormats(
			map[string]columns.FormatDesc{"sel": columns.DynBPDesc, "sel2": columns.DynBPDesc}))
		if err == nil {
			t.Fatalf("p=%d: expected random-access error, got result %v", par, res)
		}
	}
}

// TestBetweenPlanRanges runs a one-node range select as a plan over every
// base format, with specialized operators on and off, sequentially and
// morsel-parallel: an ordinary range and an inverted one (lo > hi, which
// matches nothing) must both equal the plain-Go reference on every path.
func TestBetweenPlanRanges(t *testing.T) {
	db := buildParTestDB(t)
	qty, _ := db.Tables["fact"].Cols["qty"].Values()
	for _, bounds := range [][2]uint64{{10, 40}, {40, 10}} {
		lo, hi := bounds[0], bounds[1]
		var want []uint64
		for i, v := range qty {
			if v >= lo && v <= hi {
				want = append(want, uint64(i))
			}
		}
		b := NewBuilder()
		b.Result(b.Between("sel", b.Scan("fact", "qty"), lo, hi))
		plan, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		for _, desc := range append(formats.AllDescs(), columns.StaticBPDesc(8)) {
			enc, err := db.Encode(map[string]columns.FormatDesc{"fact.qty": desc})
			if err != nil {
				t.Fatal(err)
			}
			for _, specialized := range []bool{false, true} {
				for _, par := range []int{1, 4} {
					res, err := execPlan(plan, enc, par, WithSpecialized(specialized))
					if err != nil {
						t.Fatalf("[%d,%d] %v specialized=%v par=%d: %v", lo, hi, desc, specialized, par, err)
					}
					got, _ := res.Cols["sel"].Values()
					if len(got) != len(want) {
						t.Fatalf("[%d,%d] %v specialized=%v par=%d: %d positions, want %d",
							lo, hi, desc, specialized, par, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("[%d,%d] %v specialized=%v par=%d: position %d = %d, want %d",
								lo, hi, desc, specialized, par, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}
