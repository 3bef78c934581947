package morphstore

import (
	"context"
	"fmt"
	"testing"
)

// TestFacadeQuickstart exercises the public API end to end: compress,
// analyze, morph, select, project, sum.
func TestFacadeQuickstart(t *testing.T) {
	vals := make([]uint64, 10000)
	var want uint64
	for i := range vals {
		vals[i] = uint64(i % 97)
		if vals[i] < 10 {
			want += vals[i]
		}
	}
	col, err := Compress(vals, DynBP)
	if err != nil {
		t.Fatal(err)
	}
	if col.N() != len(vals) {
		t.Fatal("bad length")
	}
	prof := Analyze(vals)
	if prof.MaxBits != 7 {
		t.Fatalf("maxbits = %d", prof.MaxBits)
	}
	rec, err := SuggestFormat(prof, Formats())
	if err != nil {
		t.Fatal(err)
	}
	if !rec.IsCompressed() {
		t.Fatal("small values should compress")
	}
	static, err := Morph(col, StaticBP)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(nil, WithStyle(Vec512))
	ctx := context.Background()
	pos, err := eng.Select(ctx, static, CmpLt, 10, WithOutput(DeltaBP))
	if err != nil {
		t.Fatal(err)
	}
	vcol, err := eng.Project(ctx, static, pos, WithOutput(DynBP))
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Sum(ctx, vcol)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
	dec, err := Decompress(col)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if dec[i] != vals[i] {
			t.Fatal("round trip")
		}
	}
}

// execPlan prepares the plan on a fresh engine over db with a par-worker
// budget (0 = GOMAXPROCS) and the case's options, and executes it once.
func execPlan(p *Plan, db *DB, par int, o ...Option) (*Result, error) {
	pr, err := NewEngine(db, WithParallelism(par)).Prepare(p, o...)
	if err != nil {
		return nil, err
	}
	return pr.Execute(context.Background())
}

// TestFacadePlanAPI exercises plan building and execution via the facade.
func TestFacadePlanAPI(t *testing.T) {
	db := NewDB()
	db.AddTable("t", map[string][]uint64{
		"a": {1, 2, 3, 4, 5, 6},
		"b": {10, 20, 30, 40, 50, 60},
	})
	bld := NewPlanBuilder()
	a := bld.Scan("t", "a")
	bv := bld.Scan("t", "b")
	sel := bld.Select("sel", a, CmpGe, 4)
	proj := bld.Project("proj", bv, sel)
	bld.Result(bld.SumWhole("total", proj))
	plan, err := bld.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range [][]Option{
		{WithStyle(Scalar)},
		{WithStyle(Vec512), WithUniformFormat(DynBP)},
	} {
		res, err := execPlan(plan, db, 0, opts...)
		if err != nil {
			t.Fatal(err)
		}
		sum, _ := res.Cols["total"].Values()
		if sum[0] != 150 {
			t.Fatalf("sum = %d, want 150", sum[0])
		}
	}
	best, worst, err := FootprintSearch(plan, db)
	if err != nil {
		t.Fatal(err)
	}
	if best == nil || worst == nil {
		t.Fatal("searches returned nil")
	}
	if _, err := CostBasedAssignment(plan, db); err != nil {
		t.Fatal(err)
	}
}

// TestFacadeSSB exercises the SSB facade at a tiny scale.
func TestFacadeSSB(t *testing.T) {
	data, err := GenerateSSB(0.001, 3)
	if err != nil {
		t.Fatal(err)
	}
	q := SSBQueries[0]
	plan, err := BuildSSBPlan(q, data)
	if err != nil {
		t.Fatal(err)
	}
	res, err := execPlan(plan, data.DB, 0, WithStyle(Vec512))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ExtractSSBResult(q, res)
	if err != nil {
		t.Fatal(err)
	}
	want, err := SSBReference(q, data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || got[0].Sum != want[0].Sum {
		t.Fatalf("facade SSB result mismatch: %v vs %v", got, want)
	}
}

// TestFacadeSSBParallel runs all 13 SSB queries under the concurrent
// scheduler + morsel-parallel kernels and checks the canonical result rows
// against the row-wise ground truth.
func TestFacadeSSBParallel(t *testing.T) {
	data, err := GenerateSSB(0.005, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range SSBQueries {
		plan, err := BuildSSBPlan(q, data)
		if err != nil {
			t.Fatal(err)
		}
		res, err := execPlan(plan, data.DB, 8, WithStyle(Vec512))
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		got, err := ExtractSSBResult(q, res)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		want, err := SSBReference(q, data)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, want %d", q, len(got), len(want))
		}
		for i := range want {
			if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
				t.Fatalf("%s row %d: %v, want %v", q, i, got[i], want[i])
			}
		}
	}
}

// TestFacadeParallelOps checks the engine's one-off operators at parallelism
// 4 against the same calls at parallelism 1.
func TestFacadeParallelOps(t *testing.T) {
	// Large enough to clear the 2*MinMorsel split threshold, so the
	// morsel-parallel drivers genuinely run rather than falling back.
	vals := make([]uint64, 9000)
	for i := range vals {
		vals[i] = uint64(i % 777)
	}
	col, err := Compress(vals, DynBP)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	seq := NewEngine(nil, WithStyle(Vec512), WithParallelism(1))
	par := NewEngine(nil, WithStyle(Vec512), WithParallelism(4))
	want, err := seq.Select(ctx, col, CmpLt, 100, WithOutput(DeltaBP))
	if err != nil {
		t.Fatal(err)
	}
	got, err := par.Select(ctx, col, CmpLt, 100, WithOutput(DeltaBP))
	if err != nil {
		t.Fatal(err)
	}
	if want.String() != got.String() {
		t.Fatalf("parallel select: %v, want %v", got, want)
	}
	if _, err := par.SelectBetween(ctx, col, 10, 20, WithStyle(Scalar)); err != nil {
		t.Fatal(err)
	}
	if _, err := par.SemiJoin(ctx, col, FromValues([]uint64{5, 6}), WithStyle(Scalar)); err != nil {
		t.Fatal(err)
	}
	data := FromValues(vals)
	if _, err := par.Project(ctx, data, want, WithStyle(Scalar)); err != nil {
		t.Fatal(err)
	}
	ws, err := seq.Sum(ctx, col)
	if err != nil {
		t.Fatal(err)
	}
	gs, err := par.Sum(ctx, col)
	if err != nil {
		t.Fatal(err)
	}
	if ws != gs {
		t.Fatalf("parallel sum = %d, want %d", gs, ws)
	}

	build := FromValues([]uint64{3, 50, 200, 600})
	wp, wb, err := seq.JoinN1(ctx, col, build)
	if err != nil {
		t.Fatal(err)
	}
	gp, gb, err := par.JoinN1(ctx, col, build)
	if err != nil {
		t.Fatal(err)
	}
	if wp.String() != gp.String() || wb.String() != gb.String() {
		t.Fatal("parallel join outputs diverge from the sequential join")
	}
	wc, err := seq.Calc(ctx, CalcAdd, col, col, WithOutput(DynBP))
	if err != nil {
		t.Fatal(err)
	}
	gc, err := par.Calc(ctx, CalcAdd, col, col, WithOutput(DynBP))
	if err != nil {
		t.Fatal(err)
	}
	if wc.String() != gc.String() {
		t.Fatalf("parallel calc: %v, want %v", gc, wc)
	}
	gids := make([]uint64, len(vals))
	for i := range gids {
		gids[i] = uint64(i % 5)
	}
	wg, err := seq.SumGrouped(ctx, FromValues(gids), col, 5)
	if err != nil {
		t.Fatal(err)
	}
	gg, err := par.SumGrouped(ctx, FromValues(gids), col, 5)
	if err != nil {
		t.Fatal(err)
	}
	if wg.String() != gg.String() {
		t.Fatalf("parallel grouped sum: %v, want %v", gg, wg)
	}
	wgf, wge, err := seq.GroupFirst(ctx, FromValues(gids), WithOutputs(DynBP, Uncompressed))
	if err != nil {
		t.Fatal(err)
	}
	ggf, gge, err := par.GroupFirst(ctx, FromValues(gids), WithOutputs(DynBP, Uncompressed))
	if err != nil {
		t.Fatal(err)
	}
	if wgf.String() != ggf.String() || wge.String() != gge.String() {
		t.Fatal("parallel GroupFirst outputs diverge from the sequential ones")
	}
	wgn, _, err := seq.GroupNext(ctx, wgf, col, WithOutputs(DynBP, Uncompressed))
	if err != nil {
		t.Fatal(err)
	}
	ggn, _, err := par.GroupNext(ctx, ggf, col, WithOutputs(DynBP, Uncompressed))
	if err != nil {
		t.Fatal(err)
	}
	if wgn.String() != ggn.String() {
		t.Fatal("parallel GroupNext diverges from the sequential one")
	}
	posA := make([]uint64, 0, len(vals))
	posB := make([]uint64, 0, len(vals))
	for i := range vals {
		if i%2 == 0 {
			posA = append(posA, uint64(i))
		}
		if i%3 == 0 {
			posB = append(posB, uint64(i))
		}
	}
	wi, err := seq.Intersect(ctx, FromValues(posA), FromValues(posB), WithOutput(DeltaBP))
	if err != nil {
		t.Fatal(err)
	}
	gi, err := par.Intersect(ctx, FromValues(posA), FromValues(posB), WithOutput(DeltaBP))
	if err != nil {
		t.Fatal(err)
	}
	if wi.String() != gi.String() {
		t.Fatal("parallel Intersect diverges from the sequential one")
	}
	wu, err := seq.Union(ctx, FromValues(posA), FromValues(posB), WithOutput(DeltaBP))
	if err != nil {
		t.Fatal(err)
	}
	gu, err := par.Union(ctx, FromValues(posA), FromValues(posB), WithOutput(DeltaBP))
	if err != nil {
		t.Fatal(err)
	}
	if wu.String() != gu.String() {
		t.Fatal("parallel Union diverges from the sequential one")
	}
}

// TestFacadeFormats sanity-checks the format constructors.
func TestFacadeFormats(t *testing.T) {
	if len(Formats()) != 5 {
		t.Errorf("Formats() = %d entries, want the paper's 5", len(Formats()))
	}
	if len(AllFormats()) != 6 {
		t.Errorf("AllFormats() = %d entries, want 6", len(AllFormats()))
	}
	if StaticBPWidth(13).Bits != 13 {
		t.Error("StaticBPWidth")
	}
	c := FromValues([]uint64{1, 2})
	if c.N() != 2 {
		t.Error("FromValues")
	}
	eng, ctx := NewEngine(nil), context.Background()
	if _, err := eng.Calc(ctx, CalcMul, c, c); err != nil {
		t.Error(err)
	}
	if _, err := eng.Intersect(ctx, c, c); err != nil {
		t.Error(err)
	}
	if _, err := eng.Union(ctx, c, c); err != nil {
		t.Error(err)
	}
	if _, err := eng.SelectBetween(ctx, c, 1, 2); err != nil {
		t.Error(err)
	}
	p := Analyze([]uint64{5, 5, 5})
	if n, err := EstimateBytes(p, RLE); err != nil || n <= 0 {
		t.Error("EstimateBytes")
	}
}

func TestFacadeConcatCompressed(t *testing.T) {
	vals := make([]uint64, 3000)
	for i := range vals {
		vals[i] = uint64(2 * i)
	}
	for _, desc := range AllFormats() {
		whole, err := Compress(vals, desc)
		if err != nil {
			t.Fatal(err)
		}
		a, err := Compress(vals[:1024], desc)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Compress(vals[1024:], desc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ConcatCompressed(desc, []*Column{a, b})
		if err != nil {
			t.Fatalf("%v: %v", desc, err)
		}
		gw, ww := got.Words(), whole.Words()
		if got.Desc() != whole.Desc() || got.N() != whole.N() || len(gw) != len(ww) {
			t.Fatalf("%v: concat shape differs: %v vs %v", desc, got, whole)
		}
		for i := range ww {
			if gw[i] != ww[i] {
				t.Fatalf("%v: word %d differs", desc, i)
			}
		}
	}
}
