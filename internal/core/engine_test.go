package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"morphstore/internal/bitutil"
	"morphstore/internal/columns"
	"morphstore/internal/formats"
	"morphstore/internal/ops"
)

// TestEnginePreparedMatchesWidth1: on an engine of any budget, Prepare +
// Execute(ctx) must produce columns byte-identical to a fresh width-1 engine,
// for uncompressed and compressed configurations.
func TestEnginePreparedMatchesWidth1(t *testing.T) {
	db := buildParTestDB(t)
	plan := buildParTestPlan(t)
	base := map[string]columns.FormatDesc{
		"fact.fk":  columns.StaticBPDesc(0),
		"fact.qty": columns.StaticBPDesc(0),
		"dim.id":   columns.StaticBPDesc(0),
		"dim.attr": columns.DynBPDesc,
	}
	enc, err := db.Encode(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, desc := range []columns.FormatDesc{columns.UncomprDesc, columns.DynBPDesc, columns.DeltaBPDesc} {
		want, err := execPlan(plan, enc, 1, WithUniformFormat(desc))
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 2, 3, 8} {
			e := NewEngine(enc, WithParallelism(par))
			pr, err := e.Prepare(plan, WithUniformFormat(desc))
			if err != nil {
				t.Fatal(err)
			}
			got, err := pr.Execute(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			ctx := fmt.Sprintf("engine desc=%v par=%d", desc, par)
			if len(got.Cols) != len(want.Cols) {
				t.Fatalf("%s: %d result columns, want %d", ctx, len(got.Cols), len(want.Cols))
			}
			for name, w := range want.Cols {
				sameColumns(t, ctx+" "+name, w, got.Cols[name])
			}
			if got.Meas.BaseBytes != want.Meas.BaseBytes || got.Meas.InterBytes != want.Meas.InterBytes {
				t.Fatalf("%s: accounting %d/%d, want %d/%d", ctx,
					got.Meas.BaseBytes, got.Meas.InterBytes, want.Meas.BaseBytes, want.Meas.InterBytes)
			}
		}
	}
}

// TestEngineConcurrentExecutes: many goroutines executing a mix of prepared
// queries on one engine with a small shared budget must each get columns
// byte-identical to the sequential reference.
func TestEngineConcurrentExecutes(t *testing.T) {
	db := buildParTestDB(t)
	plan := buildParTestPlan(t)
	seqRef, err := execPlan(plan, db, 1)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(db, WithParallelism(3))
	// M prepared queries (distinct format bindings), N goroutines each.
	prs := make([]*Prepared, 0, 3)
	for _, desc := range []columns.FormatDesc{columns.UncomprDesc, columns.DynBPDesc, columns.DeltaBPDesc} {
		pr, err := e.Prepare(plan, WithUniformFormat(desc))
		if err != nil {
			t.Fatal(err)
		}
		prs = append(prs, pr)
	}
	const goroutines, iters = 6, 2
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				pr := prs[(g+i)%len(prs)]
				res, err := pr.Execute(context.Background())
				if err != nil {
					errCh <- err
					return
				}
				for name, w := range seqRef.Cols {
					got := res.Cols[name]
					if got == nil || got.N() != w.N() || len(got.Words()) != len(w.Words()) {
						errCh <- fmt.Errorf("goroutine %d: column %q shape mismatch", g, name)
						return
					}
					for k, ww := range w.Words() {
						if got.Words()[k] != ww {
							errCh <- fmt.Errorf("goroutine %d: column %q word %d differs", g, name, k)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// bigCancelDB builds a database large enough that a query takes many
// milliseconds, so a mid-flight cancellation deterministically lands while
// operators are running.
func bigCancelDB(t *testing.T) (*DB, *Plan) {
	t.Helper()
	const n = 512 * 3000
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = uint64(i % 1009)
	}
	db := NewDB()
	db.AddTable("t", map[string][]uint64{"a": vals, "b": vals})
	b := NewBuilder()
	a := b.Scan("t", "a")
	bb := b.Scan("t", "b")
	s1 := b.Select("s1", a, bitutil.CmpLt, 900)
	s2 := b.Between("s2", bb, 10, 950)
	pos := b.Intersect("pos", s1, s2)
	pv := b.Project("pv", a, pos)
	b.Result(b.SumWhole("total", pv))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return db, p
}

// TestEngineCancellation: a mid-query cancellation returns promptly with
// ctx.Err() and leaks no goroutines.
func TestEngineCancellation(t *testing.T) {
	db, plan := bigCancelDB(t)
	e := NewEngine(db, WithParallelism(4))
	pr, err := e.Prepare(plan, WithUniformFormat(columns.DeltaBPDesc))
	if err != nil {
		t.Fatal(err)
	}
	// Baseline timing to pick a cancellation point inside the run.
	start := time.Now()
	if _, err := pr.Execute(context.Background()); err != nil {
		t.Fatal(err)
	}
	full := time.Since(start)

	before := runtime.NumGoroutine()
	cancelled := 0
	for i := 0; i < 20 && cancelled == 0; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), full/4+time.Duration(i)*full/20)
		res, err := pr.Execute(ctx)
		cancel()
		switch {
		case err == nil:
			if res == nil || res.Cols["total"] == nil {
				t.Fatal("successful execution without result")
			}
		case errors.Is(err, context.DeadlineExceeded):
			cancelled++
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if cancelled == 0 {
		t.Skip("query too fast to cancel mid-flight on this host")
	}
	// No goroutines may outlive the cancelled executions.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutine leak after cancellation: %d -> %d", before, after)
	}
}

// TestEnginePreCancelled: an already-cancelled context never starts running.
func TestEnginePreCancelled(t *testing.T) {
	db, plan := bigCancelDB(t)
	e := NewEngine(db, WithParallelism(2))
	pr, err := e.Prepare(plan)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pr.Execute(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestEngineAdmissionGate: with WithMaxConcurrentQueries(1) a second query
// waits for the first and a waiter's cancellation is honoured.
func TestEngineAdmissionGate(t *testing.T) {
	db, plan := bigCancelDB(t)
	e := NewEngine(db, WithParallelism(2), WithMaxConcurrentQueries(1))
	pr, err := e.Prepare(plan, WithUniformFormat(columns.DynBPDesc))
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := pr.Execute(context.Background())
		<-release // hold the result goroutine, not the gate
		done <- err
	}()
	// A waiter with a short deadline must give up with ctx.Err() whether it
	// is parked at the gate or cancelled mid-run.
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if _, err := pr.Execute(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("waiter error = %v, want deadline exceeded or success", err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// The gate drains: a fresh query succeeds.
	if _, err := pr.Execute(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestEngineOptionScopes: options passed at the wrong layer fail loudly.
func TestEngineOptionScopes(t *testing.T) {
	db := buildParTestDB(t)
	plan := buildParTestPlan(t)
	e := NewEngine(db)
	if _, err := e.Prepare(plan, WithOutput(columns.DynBPDesc)); err == nil ||
		!strings.Contains(err.Error(), "WithOutput") {
		t.Fatalf("WithOutput at Prepare = %v, want scope error", err)
	}
	pr, err := e.Prepare(plan)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pr.Execute(context.Background(), WithFormats(map[string]columns.FormatDesc{"x": columns.RLEDesc})); err == nil ||
		!strings.Contains(err.Error(), "WithFormats") {
		t.Fatalf("WithFormats at Execute = %v, want scope error", err)
	}
	// A misplaced engine option surfaces on first use.
	bad := NewEngine(db, WithOutput(columns.DynBPDesc))
	if _, err := bad.Prepare(plan); err == nil {
		t.Fatal("misplaced NewEngine option must fail Prepare")
	}
	if _, err := bad.Select(context.Background(), columns.FromValues([]uint64{1}), bitutil.CmpEq, 1); err == nil {
		t.Fatal("misplaced NewEngine option must fail operator calls")
	}
}

// TestEngineAccessorsAndOptions covers the remaining option constructors
// and engine accessors.
func TestEngineAccessorsAndOptions(t *testing.T) {
	db := buildParTestDB(t)
	plan := buildParTestPlan(t)
	e := NewEngine(db, WithParallelism(5))
	if e.DB() != db {
		t.Fatal("DB accessor lost the database")
	}
	if e.Budget() != 5 {
		t.Fatalf("budget = %d, want 5", e.Budget())
	}
	pr, err := e.Prepare(plan,
		WithFormats(map[string]columns.FormatDesc{"q_sel": columns.DeltaBPDesc}),
		WithKeep(true))
	if err != nil {
		t.Fatal(err)
	}
	if pr.Plan() != plan {
		t.Fatal("Plan accessor lost the plan")
	}
	if pr.Formats()["q_sel"] != columns.DeltaBPDesc {
		t.Fatalf("WithFormats binding lost: %v", pr.Formats()["q_sel"])
	}
	res, err := pr.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Inter == nil || res.Inter["q_sel"] == nil {
		t.Fatal("WithKeep did not retain intermediates")
	}
	if res.Inter["q_sel"].Desc() != columns.DeltaBPDesc {
		t.Fatalf("kept intermediate in %v, want delta+bp", res.Inter["q_sel"].Desc())
	}
	// WithOutputs drives dual-output formats; a single WithOutput covers
	// both outputs of JoinN1.
	keys := make([]uint64, 3*512)
	for i := range keys {
		keys[i] = uint64(i % 64)
	}
	build := make([]uint64, 64)
	for i := range build {
		build[i] = uint64(i)
	}
	jp, jb, err := e.JoinN1(context.Background(), columns.FromValues(keys), columns.FromValues(build),
		WithOutput(columns.DeltaBPDesc))
	if err != nil {
		t.Fatal(err)
	}
	if jp.Desc() != columns.DeltaBPDesc || jb.Desc() != columns.DeltaBPDesc {
		t.Fatalf("WithOutput on dual outputs: %v/%v, want delta+bp for both", jp.Desc(), jb.Desc())
	}
}

// randomAccessPlan builds a plan in which the intermediate "pv" is consumed
// via random access (data input of a second project).
func randomAccessPlan(t *testing.T) (*DB, *Plan) {
	t.Helper()
	n := 4 * 512
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = uint64(i % 997)
	}
	db := NewDB()
	db.AddTable("r", map[string][]uint64{"x": vals})
	b := NewBuilder()
	x := b.Scan("r", "x")
	s := b.Select("s", x, bitutil.CmpLt, 700)
	pv := b.Project("pv", x, s)
	s2 := b.Select("s2", pv, bitutil.CmpLt, 300)
	pv2 := b.Project("pv2", pv, s2)
	b.Result(b.SumWhole("total", pv2))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return db, p
}

// TestEnginePrepareValidation: configuration errors surface at prepare time.
func TestEnginePrepareValidation(t *testing.T) {
	db := buildParTestDB(t)
	plan := buildParTestPlan(t)
	e := NewEngine(db)
	// Compressed result column.
	if _, err := e.Prepare(plan, WithFormats(map[string]columns.FormatDesc{"rev_total": columns.DynBPDesc})); err == nil ||
		!strings.Contains(err.Error(), "uncompressed") {
		t.Fatalf("compressed result column = %v, want error", err)
	}
	// A random-access consumer of a format without random access is no
	// configuration error: pv, the data input of a second project, is morphed
	// on the fly.
	rdb, rplan := randomAccessPlan(t)
	checkMorphRun(t, rplan, rdb, rdb, "pv", 0, WithFormats(map[string]columns.FormatDesc{"pv": columns.DeltaBPDesc}))
	// Unknown base columns fail Prepare, not Execute.
	b := NewBuilder()
	bad := b.Scan("nope", "x")
	b.Result(b.SumWhole("t", bad))
	p2, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Prepare(p2); err == nil || !strings.Contains(err.Error(), "unknown table") {
		t.Fatalf("unknown table = %v, want prepare error", err)
	}
}

// TestEngineFormatResolution: uniform/cost-based/explicit resolution, with
// explicit entries overriding the automatic choice.
func TestEngineFormatResolution(t *testing.T) {
	db := buildParTestDB(t)
	plan := buildParTestPlan(t)
	e := NewEngine(db)
	pr, err := e.Prepare(plan, WithUniformFormat(columns.DeltaBPDesc), WithFormats(map[string]columns.FormatDesc{"q_sel": columns.RLEDesc}))
	if err != nil {
		t.Fatal(err)
	}
	got := pr.Formats()
	if got["q_sel"] != columns.RLEDesc {
		t.Fatalf("explicit override lost: q_sel = %v", got["q_sel"])
	}
	if got["lo_pos"] != columns.DeltaBPDesc {
		t.Fatalf("uniform binding lost: lo_pos = %v", got["lo_pos"])
	}
	// Randomly accessed intermediates fall back to static BP under uniform.
	rdb, rplan := randomAccessPlan(t)
	rpr, err := NewEngine(rdb).Prepare(rplan, WithUniformFormat(columns.DeltaBPDesc))
	if err != nil {
		t.Fatal(err)
	}
	if d := rpr.Formats()["pv"]; d.Kind != columns.StaticBP {
		t.Fatalf("randomly accessed pv bound to %v, want static BP", d)
	}
	// Cost-based resolution binds every intermediate and executes correctly.
	prc, err := e.Prepare(plan, WithCostBasedFormats())
	if err != nil {
		t.Fatal(err)
	}
	if len(prc.Formats()) == 0 {
		t.Fatal("cost-based preparation bound no formats")
	}
	want, err := execPlan(plan, db, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prc.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range want.Cols {
		sameColumns(t, "cost-based "+name, w, res.Cols[name])
	}
}

// TestEngineOneOffOps: the engine's ad-hoc operator calls match the legacy
// positional free functions byte for byte.
func TestEngineOneOffOps(t *testing.T) {
	n := 20*512 + 71
	a := make([]uint64, n)
	bvals := make([]uint64, n)
	for i := range a {
		a[i] = uint64(i % 251)
		bvals[i] = uint64((i * 7) % 509)
	}
	colA := columns.FromValues(a)
	colB := columns.FromValues(bvals)
	dynA, err := formats.Compress(a, columns.DynBPDesc)
	if err != nil {
		t.Fatal(err)
	}
	build := make([]uint64, 128)
	for i := range build {
		build[i] = uint64(i)
	}
	colBuild := columns.FromValues(build)
	e := NewEngine(nil, WithParallelism(3))
	ctx := context.Background()

	wantSel, err := ops.FixedRT(3).SelectAuto(dynA, bitutil.CmpLt, 100, columns.DeltaBPDesc)
	if err != nil {
		t.Fatal(err)
	}
	gotSel, err := e.Select(ctx, dynA, bitutil.CmpLt, 100, WithOutput(columns.DeltaBPDesc))
	if err != nil {
		t.Fatal(err)
	}
	sameColumns(t, "select", wantSel, gotSel)

	wantBet, err := ops.FixedRT(3).SelectBetweenAuto(dynA, 10, 90, columns.DeltaBPDesc, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	gotBet, err := e.SelectBetween(ctx, dynA, 10, 90, WithOutput(columns.DeltaBPDesc))
	if err != nil {
		t.Fatal(err)
	}
	sameColumns(t, "between", wantBet, gotBet)

	wantProj, err := ops.FixedRT(3).Project(colA, wantSel, columns.DynBPDesc)
	if err != nil {
		t.Fatal(err)
	}
	gotProj, err := e.Project(ctx, colA, gotSel, WithOutput(columns.DynBPDesc))
	if err != nil {
		t.Fatal(err)
	}
	sameColumns(t, "project", wantProj, gotProj)

	wantSum, _, err := ops.FixedRT(3).SumAuto(dynA)
	if err != nil {
		t.Fatal(err)
	}
	gotSum, err := e.Sum(ctx, dynA)
	if err != nil {
		t.Fatal(err)
	}
	if gotSum != wantSum {
		t.Fatalf("sum = %d, want %d", gotSum, wantSum)
	}

	wantSemi, err := ops.FixedRT(3).SemiJoin(colA, colBuild, columns.DeltaBPDesc)
	if err != nil {
		t.Fatal(err)
	}
	gotSemi, err := e.SemiJoin(ctx, colA, colBuild, WithOutput(columns.DeltaBPDesc))
	if err != nil {
		t.Fatal(err)
	}
	sameColumns(t, "semijoin", wantSemi, gotSemi)

	wantJP, wantJB, err := ops.FixedRT(3).JoinN1(colA, colBuild, columns.DeltaBPDesc, columns.DynBPDesc, 0)
	if err != nil {
		t.Fatal(err)
	}
	gotJP, gotJB, err := e.JoinN1(ctx, colA, colBuild, WithOutputs(columns.DeltaBPDesc, columns.DynBPDesc))
	if err != nil {
		t.Fatal(err)
	}
	sameColumns(t, "join probe", wantJP, gotJP)
	sameColumns(t, "join build", wantJB, gotJB)

	wantCalc, err := ops.FixedRT(3).CalcBinary(ops.CalcMul, colA, colB, columns.DynBPDesc)
	if err != nil {
		t.Fatal(err)
	}
	gotCalc, err := e.Calc(ctx, ops.CalcMul, colA, colB, WithOutput(columns.DynBPDesc))
	if err != nil {
		t.Fatal(err)
	}
	sameColumns(t, "calc", wantCalc, gotCalc)

	gids := make([]uint64, n)
	for i := range gids {
		gids[i] = uint64(i % 16)
	}
	colG := columns.FromValues(gids)
	wantGS, err := ops.FixedRT(3).SumGrouped(colG, colA, 16)
	if err != nil {
		t.Fatal(err)
	}
	gotGS, err := e.SumGrouped(ctx, colG, colA, 16)
	if err != nil {
		t.Fatal(err)
	}
	sameColumns(t, "sum grouped", wantGS, gotGS)

	wantI, err := ops.FixedRT(1).Intersect(wantSel, wantBet, columns.DeltaBPDesc)
	if err != nil {
		t.Fatal(err)
	}
	gotI, err := e.Intersect(ctx, gotSel, gotBet, WithOutput(columns.DeltaBPDesc))
	if err != nil {
		t.Fatal(err)
	}
	sameColumns(t, "intersect", wantI, gotI)

	wantU, err := ops.FixedRT(1).Merge(wantSel, wantBet, columns.DeltaBPDesc)
	if err != nil {
		t.Fatal(err)
	}
	gotU, err := e.Union(ctx, gotSel, gotBet, WithOutput(columns.DeltaBPDesc))
	if err != nil {
		t.Fatal(err)
	}
	sameColumns(t, "union", wantU, gotU)

	wantGF, wantGFE, err := ops.FixedRT(1).GroupFirst(colG, columns.DynBPDesc, columns.DeltaBPDesc)
	if err != nil {
		t.Fatal(err)
	}
	gotGF, gotGFE, err := e.GroupFirst(ctx, colG, WithOutputs(columns.DynBPDesc, columns.DeltaBPDesc))
	if err != nil {
		t.Fatal(err)
	}
	sameColumns(t, "group first gids", wantGF, gotGF)
	sameColumns(t, "group first extents", wantGFE, gotGFE)

	wantGN, wantGNE, err := ops.FixedRT(1).GroupNext(wantGF, colB, columns.DynBPDesc, columns.UncomprDesc)
	if err != nil {
		t.Fatal(err)
	}
	gotGN, gotGNE, err := e.GroupNext(ctx, gotGF, colB, WithOutputs(columns.DynBPDesc, columns.UncomprDesc))
	if err != nil {
		t.Fatal(err)
	}
	sameColumns(t, "group next gids", wantGN, gotGN)
	sameColumns(t, "group next extents", wantGNE, gotGNE)
}
