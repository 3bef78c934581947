package core

import (
	"context"
	"math/rand"
	"testing"

	"morphstore/internal/bitutil"
	"morphstore/internal/columns"
	"morphstore/internal/formats"
	"morphstore/internal/ops"
)

// simpleQueryPlan builds SELECT SUM(Y) FROM R WHERE X = c (the paper's §5.1
// simple query): select on X -> project Y -> sum.
func simpleQueryPlan(t *testing.T, c uint64) *Plan {
	t.Helper()
	b := NewBuilder()
	x := b.Scan("r", "x")
	y := b.Scan("r", "y")
	xp := b.Select("x_sel", x, bitutil.CmpEq, c)
	yp := b.Project("y_proj", y, xp)
	sum := b.SumWhole("total", yp)
	b.Result(sum)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func simpleDB(n int, seed int64) (*DB, uint64) {
	rng := rand.New(rand.NewSource(seed))
	x := make([]uint64, n)
	y := make([]uint64, n)
	var want uint64
	for i := range x {
		if rng.Float64() < 0.9 {
			x[i] = 7
		} else {
			x[i] = uint64(rng.Intn(64))
		}
		y[i] = uint64(rng.Intn(1000))
		if x[i] == 7 {
			want += y[i]
		}
	}
	db := NewDB()
	db.AddTable("r", map[string][]uint64{"x": x, "y": y})
	return db, want
}

// execPlan is the one way the equivalence suites of this package run a plan:
// a fresh engine over db with a par-worker budget (0 = GOMAXPROCS), one
// Prepare with the case's options, one Execute.
func execPlan(p *Plan, db *DB, par int, o ...Option) (*Result, error) {
	pr, err := NewEngine(db, WithParallelism(par)).Prepare(p, o...)
	if err != nil {
		return nil, err
	}
	return pr.Execute(context.Background())
}

func TestSimpleQueryAllConfigs(t *testing.T) {
	db, want := simpleDB(10000, 1)
	p := simpleQueryPlan(t, 7)

	configs := map[string][]Option{
		"uncompressed": nil,
		"staticbp":     {WithUniformFormat(columns.StaticBPDesc(0))},
		"dynbp":        {WithUniformFormat(columns.DynBPDesc)},
		"delta":        {WithUniformFormat(columns.DeltaBPDesc)},
		"forbp":        {WithUniformFormat(columns.ForBPDesc)},
	}
	for name, opts := range configs {
		res, err := execPlan(p, db, 0, opts...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, ok := res.Cols["total"].Values()
		if !ok || len(got) != 1 {
			t.Fatalf("%s: bad result column", name)
		}
		if got[0] != want {
			t.Fatalf("%s: sum = %d, want %d", name, got[0], want)
		}
		if res.Meas.Runtime <= 0 {
			t.Errorf("%s: no runtime recorded", name)
		}
		if res.Meas.BaseBytes <= 0 || res.Meas.InterBytes <= 0 {
			t.Errorf("%s: no footprint recorded", name)
		}
	}
}

func TestSpecializedMatchesGeneric(t *testing.T) {
	db, want := simpleDB(8000, 2)
	p := simpleQueryPlan(t, 7)
	encoded, err := db.Encode(map[string]columns.FormatDesc{
		"r.x": columns.StaticBPDesc(8),
		"r.y": columns.StaticBPDesc(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, specialized := range []bool{false, true} {
		res, err := execPlan(p, encoded, 0,
			WithUniformFormat(columns.DeltaBPDesc), WithSpecialized(specialized))
		if err != nil {
			t.Fatalf("specialized=%v: %v", specialized, err)
		}
		got, _ := res.Cols["total"].Values()
		if got[0] != want {
			t.Fatalf("specialized=%v: sum = %d, want %d", specialized, got[0], want)
		}
	}
}

func TestCompressedFootprintSmaller(t *testing.T) {
	db, _ := simpleDB(50000, 3)
	p := simpleQueryPlan(t, 7)

	resU, err := execPlan(p, db, 0)
	if err != nil {
		t.Fatal(err)
	}
	encoded, err := db.Encode(map[string]columns.FormatDesc{
		"r.x": columns.StaticBPDesc(0),
		"r.y": columns.StaticBPDesc(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	resC, err := execPlan(p, encoded, 0, WithUniformFormat(columns.DynBPDesc))
	if err != nil {
		t.Fatal(err)
	}
	if resC.Meas.Footprint() >= resU.Meas.Footprint() {
		t.Errorf("compressed footprint %d >= uncompressed %d",
			resC.Meas.Footprint(), resU.Meas.Footprint())
	}
	// The paper's small-value case compresses to about half or better.
	ratio := float64(resC.Meas.Footprint()) / float64(resU.Meas.Footprint())
	if ratio > 0.6 {
		t.Errorf("footprint ratio %.2f, want <= 0.6 on small values", ratio)
	}
}

func TestRandomAccessRestriction(t *testing.T) {
	db, _ := simpleDB(5000, 4)
	p := simpleQueryPlan(t, 7)
	if !p.RandomAccessed("r.y") {
		t.Fatal("r.y must be marked randomly accessed")
	}
	// Encoding the project data column in DynBP must fail without AutoMorph.
	encoded, err := db.Encode(map[string]columns.FormatDesc{"r.y": columns.DynBPDesc})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := execPlan(p, encoded, 0); err == nil {
		t.Fatal("project on DynBP data must fail without AutoMorph")
	}
	// With AutoMorph the executor inserts an on-the-fly morph.
	res, err := execPlan(p, encoded, 0, WithAutoMorph(true))
	if err != nil {
		t.Fatalf("AutoMorph execution failed: %v", err)
	}
	if len(res.Cols) != 1 {
		t.Fatal("missing result")
	}
	// An intermediate consumed via random access must also be rejected when
	// configured with a non-random-access format.
	b := NewBuilder()
	x := b.Scan("r", "x")
	d := b.Project("d", x, b.Select("s", x, bitutil.CmpEq, 7))
	b.Result(b.SumWhole("t", b.Project("p", d, b.Select("s2", d, bitutil.CmpEq, 7))))
	p2, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := execPlan(p2, db, 0, WithFormat("d", columns.DynBPDesc)); err == nil {
		t.Fatal("project on a DynBP intermediate must fail without AutoMorph")
	}
	if _, err := execPlan(p2, db, 0, WithFormat("d", columns.DynBPDesc), WithAutoMorph(true)); err != nil {
		t.Fatalf("AutoMorph execution on a DynBP intermediate failed: %v", err)
	}
}

func TestResultMustStayUncompressed(t *testing.T) {
	db, _ := simpleDB(1000, 5)
	p := simpleQueryPlan(t, 7)
	_, err := execPlan(p, db, 0, WithFormat("total", columns.DynBPDesc))
	if want := `core: result column "total" must stay uncompressed, configured ` + columns.DynBPDesc.String(); err == nil || err.Error() != want {
		t.Fatalf("compressed result column: got error %v, want %q", err, want)
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder()
	x := b.Scan("r", "x")
	b.Select("s", x, bitutil.CmpEq, 1)
	b.Select("s", x, bitutil.CmpEq, 2) // duplicate name
	if _, err := b.Build(); err == nil {
		t.Error("duplicate name must fail")
	}

	b2 := NewBuilder()
	b2.Select("s", ColRef{}, bitutil.CmpEq, 1) // invalid input
	if _, err := b2.Build(); err == nil {
		t.Error("invalid input must fail")
	}

	b3 := NewBuilder()
	b3.Scan("r", "x")
	if _, err := b3.Build(); err == nil {
		t.Error("plan without results must fail")
	}
}

func TestScanDedup(t *testing.T) {
	b := NewBuilder()
	x1 := b.Scan("r", "x")
	x2 := b.Scan("r", "x")
	if x1 != x2 {
		t.Error("scanning the same column twice must reuse the node")
	}
}

func TestUnknownTableColumn(t *testing.T) {
	db := NewDB()
	db.AddTable("r", map[string][]uint64{"x": {1, 2}})
	b := NewBuilder()
	bad := b.Scan("nope", "x")
	b.Result(b.SumWhole("t", bad))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := execPlan(p, db, 0); err == nil {
		t.Error("unknown table must fail")
	}
}

// TestGroupedQueryPlan exercises join + group + grouped aggregation through
// the engine (the SSB Q2.x shape in miniature).
func TestGroupedQueryPlan(t *testing.T) {
	// fact(fk, val); dim(pk, attr); GROUP BY attr SUM(val) for attr matches.
	fk := []uint64{0, 1, 2, 0, 1, 3, 0}
	val := []uint64{10, 20, 30, 40, 50, 60, 70}
	pk := []uint64{0, 1, 2, 3}
	attr := []uint64{5, 6, 5, 7}
	db := NewDB()
	db.AddTable("fact", map[string][]uint64{"fk": fk, "val": val})
	db.AddTable("dim", map[string][]uint64{"pk": pk, "attr": attr})

	b := NewBuilder()
	fkc := b.Scan("fact", "fk")
	valc := b.Scan("fact", "val")
	pkc := b.Scan("dim", "pk")
	attrc := b.Scan("dim", "attr")
	probePos, buildPos := b.JoinN1("j", fkc, pkc)
	attrPerRow := b.Project("attr_row", attrc, buildPos)
	valPerRow := b.Project("val_row", valc, probePos)
	gids, extents := b.GroupFirst("g", attrPerRow)
	sums := b.SumGrouped("sums", gids, extents, valPerRow)
	keys := b.Project("keys", attrc, b.Project("ext_build", buildPos, extents))
	b.Result(sums)
	b.Result(keys)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	for _, cfgName := range []string{"uncompressed", "compressed"} {
		var opts []Option
		if cfgName == "compressed" {
			opts = append(opts, WithUniformFormat(columns.DynBPDesc))
		}
		res, err := execPlan(p, db, 0, opts...)
		if err != nil {
			t.Fatalf("%s: %v", cfgName, err)
		}
		sums, _ := res.Cols["sums"].Values()
		keys, _ := res.Cols["keys"].Values()
		got := map[uint64]uint64{}
		for i := range sums {
			got[keys[i]] = sums[i]
		}
		// attr 5 <- pk 0 (10+40+70) + pk 2 (30) = 150; attr 6 <- pk 1 (20+50)=70; attr 7 <- pk 3 (60).
		want := map[uint64]uint64{5: 150, 6: 70, 7: 60}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("%s: group %d = %d, want %d (all: %v)", cfgName, k, got[k], v, got)
			}
		}
	}
}

func TestFootprintSearch(t *testing.T) {
	db, _ := simpleDB(20000, 6)
	p := simpleQueryPlan(t, 7)
	best, worst, err := FootprintSearch(p, db)
	if err != nil {
		t.Fatal(err)
	}
	// Evaluate both assignments for real.
	run := func(a *Assignment) int {
		enc, err := db.Encode(a.Base)
		if err != nil {
			t.Fatal(err)
		}
		res, err := execPlan(p, enc, 0, WithFormats(a.Inter))
		if err != nil {
			t.Fatal(err)
		}
		return res.Meas.Footprint()
	}
	bf, wf := run(best), run(worst)
	if bf >= wf {
		t.Errorf("best footprint %d >= worst %d", bf, wf)
	}
	// The best assignment must respect random-access restrictions.
	if d, ok := best.Base["r.y"]; ok && !formats.HasRandomAccess(d.Kind) {
		t.Errorf("best assigned non-random-access format %v to r.y", d)
	}
	// Searched best must beat naive static BP everywhere.
	uni := NewAssignment()
	for _, name := range p.BaseColumns() {
		uni.Base[name] = columns.StaticBPDesc(0)
	}
	for _, name := range p.IntermediateNames() {
		uni.Inter[name] = columns.StaticBPDesc(0)
	}
	if sf := run(uni); bf > sf {
		t.Errorf("searched best %d worse than uniform static BP %d", bf, sf)
	}
}

func TestCostBasedAssignmentNearOptimal(t *testing.T) {
	db, _ := simpleDB(30000, 7)
	p := simpleQueryPlan(t, 7)
	best, _, err := FootprintSearch(p, db)
	if err != nil {
		t.Fatal(err)
	}
	costBased, err := CostBasedAssignment(p, db)
	if err != nil {
		t.Fatal(err)
	}
	run := func(a *Assignment) int {
		enc, err := db.Encode(a.Base)
		if err != nil {
			t.Fatal(err)
		}
		res, err := execPlan(p, enc, 0, WithFormats(a.Inter))
		if err != nil {
			t.Fatal(err)
		}
		return res.Meas.Footprint()
	}
	bf, cf := run(best), run(costBased)
	// Fig. 10: cost-based selection is virtually equal to the optimum.
	if float64(cf) > 1.10*float64(bf) {
		t.Errorf("cost-based footprint %d more than 10%% above optimum %d", cf, bf)
	}
}

func TestRuntimeGreedySearchRuns(t *testing.T) {
	db, want := simpleDB(4000, 8)
	p := simpleQueryPlan(t, 7)
	a, err := RuntimeGreedySearch(p, db, false, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := db.Encode(a.Base)
	if err != nil {
		t.Fatal(err)
	}
	res, err := execPlan(p, enc, 0, WithFormats(a.Inter))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := res.Cols["total"].Values()
	if got[0] != want {
		t.Fatalf("greedy config broke the query: %d != %d", got[0], want)
	}
}

func TestUniformFormatRespectsRandomAccess(t *testing.T) {
	db, _ := simpleDB(100, 1)
	p := simpleQueryPlan(t, 7)
	pr, err := NewEngine(db).Prepare(p, WithUniformFormat(columns.DeltaBPDesc))
	if err != nil {
		t.Fatal(err)
	}
	for name, d := range pr.Formats() {
		if p.RandomAccessed(name) && !formats.HasRandomAccess(d.Kind) {
			t.Errorf("uniform format assigned %v to randomly accessed %q", d, name)
		}
	}
}

func TestPerOpRuntimes(t *testing.T) {
	db, _ := simpleDB(20000, 9)
	p := simpleQueryPlan(t, 7)
	res, err := execPlan(p, db, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []string{"select", "project", "sum"} {
		if _, ok := res.Meas.PerOp[op]; !ok {
			t.Errorf("missing per-op runtime for %s", op)
		}
	}
	if len(res.Meas.ColBytes) == 0 {
		t.Error("missing per-column sizes")
	}
}

func TestCalcThroughEngine(t *testing.T) {
	a := []uint64{1, 2, 3, 4}
	c := []uint64{10, 20, 30, 40}
	db := NewDB()
	db.AddTable("t", map[string][]uint64{"a": a, "c": c})
	b := NewBuilder()
	av := b.Scan("t", "a")
	cv := b.Scan("t", "c")
	prod := b.Calc("prod", ops.CalcMul, av, cv)
	b.Result(b.SumWhole("s", prod))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := execPlan(p, db, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := res.Cols["s"].Values()
	if got[0] != 10+40+90+160 {
		t.Fatalf("sum = %d", got[0])
	}
}
