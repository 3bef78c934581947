package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"morphstore/internal/bitutil"
	"morphstore/internal/columns"
	"morphstore/internal/faultpoint"
	"morphstore/internal/formats"
	"morphstore/internal/metrics"
	"morphstore/internal/ops"
)

// rewriteRows is the row count of the rewrite tests' tables: more than two
// morsels, not block-aligned, so par 2 splits the fused scan.
const rewriteRows = 3*formats.MinMorsel + 333

// rewriteDB builds table t — x in 0..10, y in 1..50, bit in 0..1, name a
// string column over four values — and table u, as long as t, with v in
// 0..99.
func rewriteDB(t *testing.T) *DB {
	t.Helper()
	rng := rand.New(rand.NewSource(32))
	x, y, bit, v := make([]uint64, rewriteRows), make([]uint64, rewriteRows), make([]uint64, rewriteRows), make([]uint64, rewriteRows)
	names := make([]string, rewriteRows)
	for i := range x {
		x[i], y[i], bit[i], v[i] = uint64(rng.Intn(11)), uint64(1+rng.Intn(50)), uint64(rng.Intn(2)), uint64(rng.Intn(100))
		names[i] = []string{"ant", "bee", "cat", "dog"}[rng.Intn(4)]
	}
	db := NewDB()
	if err := db.AddTable("t", map[string][]uint64{"x": x, "y": y, "bit": bit}); err != nil {
		t.Fatal(err)
	}
	if err := db.AddStringColumn("t", "name", names); err != nil {
		t.Fatal(err)
	}
	if err := db.AddTable("u", map[string][]uint64{"v": v}); err != nil {
		t.Fatal(err)
	}
	return db
}

// rewriteShape is one hand-built plan of the rewrite tests: a conjunction
// whose intersect "pos" feeds a project and a sum, plus whatever the shape
// adds around it.
type rewriteShape struct {
	name  string
	fused bool
	build func(b *Builder)
}

// conj builds the common tail: pos = s1 ∩ s2, projected from t.y and summed.
func conj(b *Builder, s1, s2 ColRef) ColRef {
	pos := b.Intersect("pos", s1, s2)
	b.Result(b.SumWhole("total", b.Project("ys", b.Scan("t", "y"), pos)))
	return pos
}

var rewriteShapes = func() []rewriteShape {
	shapes := []rewriteShape{
		{"q1_shape", true, func(b *Builder) {
			conj(b, b.Between("s1", b.Scan("t", "x"), 1, 3), b.Between("s2", b.Scan("t", "y"), 1, 24))
		}},
		{"empty_between", true, func(b *Builder) {
			conj(b, b.Between("s1", b.Scan("t", "x"), 7, 2), b.Between("s2", b.Scan("t", "y"), 1, 24))
		}},
		{"empty_lt0", true, func(b *Builder) {
			conj(b, b.Between("s1", b.Scan("t", "x"), 1, 9), b.Select("s2", b.Scan("t", "y"), bitutil.CmpLt, 0))
		}},
		{"same_column", true, func(b *Builder) {
			x := b.Scan("t", "x")
			conj(b, b.Select("s1", x, bitutil.CmpGe, 3), b.Select("s2", x, bitutil.CmpNe, 5))
		}},
		{"swar_width1", true, func(b *Builder) {
			conj(b, b.Select("s1", b.Scan("t", "bit"), bitutil.CmpEq, 1), b.Between("s2", b.Scan("t", "y"), 10, 40))
		}},
		{"pos_is_result", true, func(b *Builder) {
			b.Result(conj(b, b.Between("s1", b.Scan("t", "x"), 0, 4), b.Select("s2", b.Scan("t", "y"), bitutil.CmpGt, 20)))
		}},
		{"two_consumers", false, func(b *Builder) {
			s1 := b.Between("s1", b.Scan("t", "x"), 1, 3)
			conj(b, s1, b.Between("s2", b.Scan("t", "y"), 1, 24))
			b.Result(b.SumWhole("xs_total", b.Project("xs", b.Scan("t", "x"), s1)))
		}},
		{"select_is_result", false, func(b *Builder) {
			s1 := b.Between("s1", b.Scan("t", "x"), 1, 3)
			conj(b, s1, b.Between("s2", b.Scan("t", "y"), 1, 24))
			b.Result(s1)
		}},
		{"self_intersect", false, func(b *Builder) {
			s1 := b.Between("s1", b.Scan("t", "x"), 1, 3)
			conj(b, s1, s1)
			b.Result(b.Between("s2", b.Scan("t", "y"), 1, 24))
		}},
		{"two_tables", false, func(b *Builder) {
			conj(b, b.Between("s1", b.Scan("t", "x"), 1, 3), b.Select("s2", b.Scan("u", "v"), bitutil.CmpLt, 60))
		}},
		{"select_str", false, func(b *Builder) {
			conj(b, b.SelectStrIn("s1", b.Scan("t", "name"), "bee", "dog"), b.Between("s2", b.Scan("t", "y"), 1, 24))
		}},
	}
	for _, cmp := range []bitutil.CmpKind{bitutil.CmpEq, bitutil.CmpNe, bitutil.CmpLt, bitutil.CmpLe, bitutil.CmpGt, bitutil.CmpGe} {
		shapes = append(shapes, rewriteShape{fmt.Sprintf("cmp_%d", cmp), true, func(b *Builder) {
			conj(b, b.Select("s1", b.Scan("t", "x"), cmp, 4), b.Select("s2", b.Scan("t", "y"), cmp, 25))
		}})
	}
	return shapes
}()

// rewriteFormats are the base and intermediate format configurations the
// shapes run under: bit is static BP at width 1 in every compressed one, so
// the unfused reference answers its select with the SWAR kernel.
var rewriteFormats = []struct {
	name  string
	base  map[string]columns.FormatDesc
	inter []Option
}{
	{"uncompressed", nil, nil},
	{"staticbp", map[string]columns.FormatDesc{"t.x": columns.StaticBPDesc(0), "t.y": columns.StaticBPDesc(0), "t.bit": columns.StaticBPDesc(1), "u.v": columns.StaticBPDesc(0)},
		[]Option{WithUniformFormat(columns.StaticBPDesc(0))}},
	{"mixed", map[string]columns.FormatDesc{"t.x": columns.DynBPDesc, "t.y": columns.StaticBPDesc(6), "t.bit": columns.StaticBPDesc(1), "u.v": columns.DeltaBPDesc},
		[]Option{WithUniformFormat(columns.DeltaBPDesc)}},
}

// keptState rebuilds the execution state a kept execution ran with: every
// node's outputs, by name, from the result's kept columns. A kept execution
// runs the plan as written, so every output must be there, the elided
// selections' included.
func keptState(t *testing.T, label string, pr *Prepared, kept *Result) *execState {
	t.Helper()
	es := &execState{outs: make([][]*columns.Column, len(pr.p.nodes))}
	for _, n := range pr.p.nodes {
		for _, name := range n.outNames {
			if kept.Inter[name] == nil {
				t.Fatalf("%s: the kept execution did not materialize %q", label, name)
			}
			es.outs[n.id] = append(es.outs[n.id], kept.Inter[name])
		}
	}
	return es
}

// checkRewrites executes pr as written (WithKeep) and as rewritten at par,
// requires byte-identical result columns, and runs every fused operator over
// the kept execution's inputs: its output must be the kept intersect's bytes.
// It returns the number of fused nodes.
func checkRewrites(t *testing.T, label string, pr *Prepared, par int) int {
	t.Helper()
	ctx := context.Background()
	kept, err := pr.Execute(ctx, WithKeep(true), WithParallelism(par))
	if err != nil {
		t.Fatalf("%s: kept: %v", label, err)
	}
	for i := 0; i < 2; i++ { // the second run reads the first one's observation
		got, err := pr.Execute(ctx, WithParallelism(par))
		if err != nil {
			t.Fatalf("%s: rewritten: %v", label, err)
		}
		if err := sameResult(kept, got); err != nil {
			t.Fatalf("%s: rewritten run %d differs from the plan as written: %v", label, i, err)
		}
	}
	es := keptState(t, label, pr, kept)
	fused := 0
	for i, st := range pr.rewritten {
		if !fusedNode(pr, i) {
			continue
		}
		fused++
		name := pr.p.nodes[i].outNames[0]
		out, err := st.run(es, ops.FixedRT(par))
		if err != nil {
			t.Fatalf("%s: fused %q: %v", label, name, err)
		}
		sameColumns(t, label+" fused "+name, kept.Inter[name], out[0])
	}
	return fused
}

// fusedNode reports whether the rewritten schedule runs node id over other
// columns than the plan as written does.
func fusedNode(pr *Prepared, id int) bool {
	st := pr.rewritten[id]
	return st.run != nil && !slices.Equal(st.inputs, pr.written[id].inputs)
}

// TestRewriteFusesConjunctions runs the hand-built shapes under every format
// configuration at par 1 and 2: the shapes that must fuse do, with both
// selections elided, the others do not, and every rewritten execution is
// byte-identical to the plan as written.
func TestRewriteFusesConjunctions(t *testing.T) {
	db := rewriteDB(t)
	for _, fc := range rewriteFormats {
		enc, err := db.Encode(fc.base)
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(enc, WithParallelism(2))
		for _, sh := range rewriteShapes {
			b := NewBuilder()
			sh.build(b)
			p, err := b.Build()
			if err != nil {
				t.Fatalf("%s: %v", sh.name, err)
			}
			pr, err := e.Prepare(p, fc.inter...)
			if err != nil {
				t.Fatalf("%s/%s: %v", fc.name, sh.name, err)
			}
			want := 0
			if sh.fused {
				want = 1
			}
			for _, par := range []int{1, 2} {
				label := fmt.Sprintf("%s/%s/par%d", fc.name, sh.name, par)
				if got := checkRewrites(t, label, pr, par); got != want {
					t.Fatalf("%s: %d fused nodes, want %d", label, got, want)
				}
			}
			for _, name := range []string{"s1", "s2"} {
				if got := pr.rewritten[p.byName[name].node.id].run == nil; got != sh.fused {
					t.Fatalf("%s/%s: %s elided = %v, want %v", fc.name, sh.name, name, got, sh.fused)
				}
			}
		}
	}
}

// TestRewriteWritableTable fuses a conjunction over a writable table whose
// delta holds appended rows and pending deletions: the fused scan reads the
// merged main+delta view of the pinned snapshot, like the selections would.
func TestRewriteWritableTable(t *testing.T) {
	db, err := rewriteDB(t).Encode(map[string]columns.FormatDesc{"t.x": columns.StaticBPDesc(0), "t.y": columns.DynBPDesc})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	e := NewEngine(db, WithParallelism(2))
	b := NewBuilder()
	rewriteShapes[0].build(b)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pr, err := e.Prepare(p, WithUniformFormat(columns.DeltaBPDesc))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 3; round++ {
		rows := map[string][]uint64{"x": make([]uint64, 700), "y": make([]uint64, 700), "bit": make([]uint64, 700)}
		for i := range rows["x"] {
			rows["x"][i], rows["y"][i] = uint64(rng.Intn(11)), uint64(1+rng.Intn(50))
		}
		if err := e.AppendStrings(ctx, "t", rows, map[string][]string{"name": make([]string, 700)}); err != nil {
			t.Fatal(err)
		}
		if err := e.Delete(ctx, "t", []uint64{uint64(round), uint64(100 + 7*round), uint64(rewriteRows + round)}); err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 2} {
			if got := checkRewrites(t, fmt.Sprintf("round %d par %d", round, par), pr, par); got != 1 {
				t.Fatalf("round %d: %d fused nodes, want 1", round, got)
			}
		}
	}
}

// TestKeepRunReservesTheBound: a WithKeep(true) execution runs the plan as
// written, which materializes the selections a fused run elides, so it
// neither reads nor publishes the fused run's observation record: it
// reserves the upper bound, charges no more than that, and the next normal
// run reserves what it did before the keep run.
func TestKeepRunReservesTheBound(t *testing.T) {
	ctx := context.Background()
	e := NewEngine(rewriteDB(t), WithParallelism(1), WithMemoryBudget(1<<30))
	b := NewBuilder()
	rewriteShapes[0].build(b)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pr, err := e.Prepare(p)
	if err != nil {
		t.Fatal(err)
	}
	bound := pr.MemoryEstimate()
	if _, err := pr.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	fused := pr.MemoryEstimate()
	if fused >= bound {
		t.Fatalf("estimate after a fused run = %d, want below the bound %d", fused, bound)
	}
	var kept metrics.QueryStats
	if _, err := pr.Execute(ctx, WithKeep(true), WithExecStats(&kept)); err != nil {
		t.Fatal(err)
	}
	if kept.MemEstimate != int64(bound) || kept.MemPeak > kept.MemEstimate {
		t.Fatalf("keep run reserved %d and charged %d, want the bound %d and at most that", kept.MemEstimate, kept.MemPeak, bound)
	}
	var next metrics.QueryStats
	if _, err := pr.Execute(ctx, WithExecStats(&next)); err != nil {
		t.Fatal(err)
	}
	if next.MemEstimate != int64(fused) {
		t.Fatalf("normal run after the keep run reserved %d, want %d as before it", next.MemEstimate, fused)
	}
}

// TestRewriteFaultInFusedKernel fires the kernel fault point inside the fused
// scan, the only operator of the plan that runs morsels: the execution fails
// with a typed error, holds no worker token or charged byte afterwards, and
// the next execution is byte-identical to the plan as written.
func TestRewriteFaultInFusedKernel(t *testing.T) {
	defer faultpoint.DisarmAll()
	ctx := context.Background()
	e := NewEngine(rewriteDB(t), WithParallelism(2), WithMemoryBudget(1<<30))
	b := NewBuilder()
	b.Result(b.Intersect("pos", b.Between("s1", b.Scan("t", "x"), 1, 3), b.Between("s2", b.Scan("t", "y"), 1, 24)))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pr, err := e.Prepare(p)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := pr.Execute(ctx, WithKeep(true))
	if err != nil {
		t.Fatal(err)
	}
	injected := fmt.Errorf("injected: %w", formats.ErrCorrupt)
	for _, fail := range []func() error{
		func() error { return injected },
		func() error { panic(injected) },
	} {
		faultpoint.KernelBody.Arm(fail)
		var qs metrics.QueryStats
		_, err := pr.Execute(ctx, WithExecStats(&qs))
		faultpoint.DisarmAll()
		if err == nil || !chaosTyped(err) {
			t.Fatalf("fault inside the fused kernel: err = %v, want a typed error", err)
		}
		if pos := qs.Nodes[p.byName["pos"].node.id]; pos.Err == "" || pos.Done {
			t.Fatalf("the fused node does not carry the failure: %+v", pos)
		}
		st := e.Stats()
		if st.BudgetInUse != 0 || st.MemReserved != 0 {
			t.Fatalf("failed fused execution leaked: %d tokens, %d bytes reserved", st.BudgetInUse, st.MemReserved)
		}
		got, err := pr.Execute(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameResult(ref, got); err != nil {
			t.Fatalf("execution after the fault: %v", err)
		}
	}
}
