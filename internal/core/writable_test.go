package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"morphstore/internal/bitutil"
	"morphstore/internal/columns"
	"morphstore/internal/faultpoint"
	"morphstore/internal/formats"
	"morphstore/internal/metrics"
	"morphstore/internal/qerr"
)

// TestAddTableValidation checks the typed schema errors of DB.AddTable:
// ragged columns and duplicate registrations are rejected, the database
// unchanged.
func TestAddTableValidation(t *testing.T) {
	db := NewDB()
	if err := db.AddTable("t", map[string][]uint64{"a": {1, 2, 3}, "b": {4, 5}}); !errors.Is(err, qerr.ErrInvalidSchema) {
		t.Fatalf("ragged AddTable: err = %v, want ErrInvalidSchema", err)
	}
	if len(db.Tables) != 0 {
		t.Fatal("failed AddTable must not register the table")
	}
	if err := db.AddTable("t", map[string][]uint64{"a": {1, 2}, "b": {3, 4}}); err != nil {
		t.Fatalf("valid AddTable: %v", err)
	}
	if err := db.AddTable("t", map[string][]uint64{"a": {9}}); !errors.Is(err, qerr.ErrInvalidSchema) {
		t.Fatalf("duplicate AddTable: err = %v, want ErrInvalidSchema", err)
	}
	if col, err := db.Column("t", "a"); err != nil || col.N() != 2 {
		t.Fatalf("duplicate AddTable clobbered the table: col=%v err=%v", col, err)
	}
}

// scanAllPlan reads every live value of t.v: positions of v >= 0 projected
// back onto v.
func scanAllPlan(t *testing.T) *Plan {
	t.Helper()
	b := NewBuilder()
	v := b.Scan("t", "v")
	pos := b.Select("pos", v, bitutil.CmpGe, 0)
	b.Result(b.Project("vals", v, pos))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func resultValues(t *testing.T, res *Result, name string) []uint64 {
	t.Helper()
	col := res.Cols[name]
	if col == nil {
		t.Fatalf("result column %q missing", name)
	}
	vals, err := formats.Decompress(col)
	if err != nil {
		t.Fatal(err)
	}
	return vals
}

// TestWritableVisibility walks the write path end to end: appends and
// deletes become visible to executions admitted after them, a remorph folds
// the delta without changing query results, and the counters and snapshot
// epochs track every step.
func TestWritableVisibility(t *testing.T) {
	base := make([]uint64, 700)
	for i := range base {
		base[i] = uint64(i)
	}
	db := NewDB()
	if err := db.AddTable("t", map[string][]uint64{"v": base}); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(db, WithParallelism(2))
	defer e.Close(context.Background())
	pr, err := e.Prepare(scanAllPlan(t), WithUniformFormat(columns.DynBPDesc))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	model := append([]uint64(nil), base...)
	check := func(stage string) {
		t.Helper()
		res, err := pr.Execute(ctx)
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		got := resultValues(t, res, "vals")
		if len(got) != len(model) {
			t.Fatalf("%s: %d rows, want %d", stage, len(got), len(model))
		}
		for i := range got {
			if got[i] != model[i] {
				t.Fatalf("%s: row %d = %d, want %d", stage, i, got[i], model[i])
			}
		}
	}
	check("read-only")

	if err := e.Append(ctx, "t", map[string][]uint64{"v": {700, 701, 702, 703, 704}}); err != nil {
		t.Fatal(err)
	}
	model = append(model, 700, 701, 702, 703, 704)
	check("after append")

	if err := e.Delete(ctx, "t", []uint64{0, 1, 700}); err != nil {
		t.Fatal(err)
	}
	model = append(model[2:700:700], model[701:]...)
	check("after delete")

	epochBefore := e.Snapshot().Epoch("t")
	if err := e.Remorph(ctx, "t"); err != nil {
		t.Fatal(err)
	}
	check("after remorph")
	if ep := e.Snapshot().Epoch("t"); ep <= epochBefore {
		t.Fatalf("remorph did not bump the epoch: %d -> %d", epochBefore, ep)
	}
	if n, ok := e.Snapshot().Rows("t"); !ok || n != len(model) {
		t.Fatalf("Snapshot.Rows = %d,%v, want %d,true", n, ok, len(model))
	}

	st := e.Stats()
	if st.Appends != 1 || st.AppendedRows != 5 || st.Deletes != 1 || st.DeletedRows != 3 {
		t.Fatalf("write counters: %+v", st)
	}
	if st.Remorphs != 1 || st.RemorphFailures != 0 || st.RemorphRows != int64(len(model)) {
		t.Fatalf("remorph counters: remorphs=%d failures=%d rows=%d", st.Remorphs, st.RemorphFailures, st.RemorphRows)
	}
	if st.DeltaTables != 1 || st.DeltaRows != 0 || st.DeltaDeleted != 0 {
		t.Fatalf("delta gauges after fold: %+v", st)
	}

	// Appending to an unknown table and bad schema fail typed, engine intact.
	if err := e.Append(ctx, "nope", map[string][]uint64{"v": {1}}); err == nil {
		t.Fatal("append to unknown table must fail")
	}
	if err := e.Append(ctx, "t", map[string][]uint64{"wrong": {1}}); !errors.Is(err, qerr.ErrInvalidSchema) {
		t.Fatalf("bad-schema append: err = %v, want ErrInvalidSchema", err)
	}
	check("after failed appends")
}

// TestWritableGrowthObserved: a Prepared sizes its buffers from the rows its
// last run produced and its memory estimate from that run's charge, scaled by
// the table's growth since. Neither may change a result: after the table
// grows 10× and after deletes shrink it again, the prepared plan returns
// what a fresh Prepare returns, and after the growth it reserves 10× the
// observed charge (plus a quarter), capped by the upper bound.
func TestWritableGrowthObserved(t *testing.T) {
	const n = 8192
	rows := func(lo, hi int) []uint64 {
		vals := make([]uint64, hi-lo)
		for i := range vals {
			vals[i] = uint64((lo + i) * 7919 % 1000)
		}
		return vals
	}
	db := NewDB()
	if err := db.AddTable("t", map[string][]uint64{"v": rows(0, n)}); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(db, WithParallelism(2))
	defer e.Close(context.Background())
	b := NewBuilder()
	v := b.Scan("t", "v")
	b.Result(b.Project("vals", v, b.Select("pos", v, bitutil.CmpLt, 500)))
	plan, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	prepare := func() *Prepared {
		pr, err := e.Prepare(plan, WithUniformFormat(columns.DynBPDesc))
		if err != nil {
			t.Fatal(err)
		}
		return pr
	}
	ctx := context.Background()
	pr := prepare()
	var qs metrics.QueryStats
	if _, err := pr.Execute(ctx, WithExecStats(&qs)); err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		t.Helper()
		got, err := pr.Execute(ctx)
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		want, err := prepare().Execute(ctx)
		if err != nil {
			t.Fatalf("%s, fresh Prepare: %v", stage, err)
		}
		if err := sameResult(want, got); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
	}

	if err := e.Append(ctx, "t", map[string][]uint64{"v": rows(n, 10*n)}); err != nil {
		t.Fatal(err)
	}
	bound := prepare().MemoryEstimate()
	if got, want := pr.MemoryEstimate(), min(bound, int(math.Ceil(1.25*10*float64(qs.MemPeak)))); got != want {
		t.Fatalf("estimate after 10× growth = %d, want %d (observed peak %d, bound %d)", got, want, qs.MemPeak, bound)
	}
	check("after 10× growth")

	var gone []uint64
	for i := 0; i < 10*n; i++ {
		if i%10 != 0 {
			gone = append(gone, uint64(i))
		}
	}
	if err := e.Delete(ctx, "t", gone); err != nil {
		t.Fatal(err)
	}
	check("after deletes")
}

// TestWritableBackgroundRemorph checks the WithRemorph worker folds a
// crossed-threshold delta on its own and Close stops it cleanly.
func TestWritableBackgroundRemorph(t *testing.T) {
	base := make([]uint64, 512)
	for i := range base {
		base[i] = uint64(i * 3)
	}
	db := NewDB()
	if err := db.AddTable("t", map[string][]uint64{"v": base}); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(db, WithParallelism(2), WithRemorph(0.01, time.Millisecond))
	ctx := context.Background()
	if err := e.Append(ctx, "t", map[string][]uint64{"v": {1, 2, 3, 4, 5, 6, 7, 8}}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for e.Stats().Remorphs == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if st := e.Stats(); st.Remorphs == 0 {
		t.Fatal("background worker never folded the delta")
	}
	if st := e.Snapshot(); st.Epoch("t") == 0 {
		t.Fatal("worker fold did not publish a new epoch")
	}
	if err := e.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := e.Append(ctx, "t", map[string][]uint64{"v": {9}}); !errors.Is(err, qerr.ErrEngineClosed) {
		t.Fatalf("append after close: err = %v, want ErrEngineClosed", err)
	}
	if err := e.Remorph(ctx, "t"); !errors.Is(err, qerr.ErrEngineClosed) {
		t.Fatalf("remorph after close: err = %v, want ErrEngineClosed", err)
	}
}

// TestSnapshotPinnedAcrossSwap proves a remorph swap never blocks an
// in-flight query: a query is stalled inside a kernel, a full rebuild+swap
// completes while it is stalled, and the released query still finishes on
// its pinned snapshot with the correct result.
func TestSnapshotPinnedAcrossSwap(t *testing.T) {
	defer faultpoint.DisarmAll()
	// Big enough that the select driver splits into several morsels — the
	// kernel-body fault point only fires in the parallel morsel loop.
	base := make([]uint64, 6000)
	for i := range base {
		base[i] = uint64(i)
	}
	db := NewDB()
	if err := db.AddTable("t", map[string][]uint64{"v": base}); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(db, WithParallelism(2))
	defer e.Close(context.Background())
	pr, err := e.Prepare(scanAllPlan(t))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := e.Append(ctx, "t", map[string][]uint64{"v": {6000, 6001, 6002}}); err != nil {
		t.Fatal(err)
	}
	if err := e.Delete(ctx, "t", []uint64{10}); err != nil {
		t.Fatal(err)
	}
	pinnedEpoch := e.Snapshot().Epoch("t")

	// Stall every kernel of the next execution until released.
	var enterOnce sync.Once
	entered := make(chan struct{})
	release := make(chan struct{})
	faultpoint.KernelBody.Arm(func() error {
		enterOnce.Do(func() { close(entered) })
		<-release
		return nil
	})

	resCh := make(chan *Result, 1)
	errCh := make(chan error, 1)
	go func() {
		res, err := pr.Execute(ctx)
		if err != nil {
			errCh <- err
			return
		}
		resCh <- res
	}()
	select {
	case <-entered:
	case err := <-errCh:
		t.Fatalf("stalled query failed early: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("query never reached a kernel")
	}

	// The swap must complete while the query is still stalled mid-kernel.
	swapDone := make(chan error, 1)
	go func() { swapDone <- e.Remorph(ctx, "t") }()
	select {
	case err := <-swapDone:
		if err != nil {
			t.Fatalf("remorph with a pinned in-flight query: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("remorph blocked on an in-flight query")
	}
	if ep := e.Snapshot().Epoch("t"); ep <= pinnedEpoch {
		t.Fatalf("swap did not publish: epoch %d after %d", ep, pinnedEpoch)
	}

	faultpoint.KernelBody.Disarm()
	close(release)
	var res *Result
	select {
	case res = <-resCh:
	case err := <-errCh:
		t.Fatalf("pinned query failed after swap: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("pinned query never finished")
	}
	got := resultValues(t, res, "vals")
	want := append(append(append([]uint64(nil), base[:10]...), base[11:]...), 6000, 6001, 6002)
	if len(got) != len(want) {
		t.Fatalf("pinned query saw %d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("pinned query row %d = %d, want %d", i, got[i], want[i])
		}
	}
}

// TestChaosWritableClose races Engine.Close against concurrent appends,
// deletes, explicit remorphs, the background remorph worker, and executing
// queries while random fault points — including the write-path points
// append-log, delta-merge, and remorph-swap — inject errors, panics, and
// delays. Every failure must be a taxonomy error and Close must leak no
// goroutine, worker token, or memory reservation.
func TestChaosWritableClose(t *testing.T) {
	defer faultpoint.DisarmAll()
	db := buildParTestDB(t)
	plan := buildParTestPlan(t)
	baseline := runtime.NumGoroutine()

	e := NewEngine(db, WithParallelism(4),
		WithMaxConcurrentQueries(4),
		WithAdmissionQueue(8, 2*time.Millisecond),
		WithMemoryBudget(1<<30),
		WithRemorph(0, time.Millisecond))
	pr, err := e.Prepare(plan, WithUniformFormat(columns.DynBPDesc))
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var chaosWG sync.WaitGroup
	chaosWG.Add(1)
	go func() {
		defer chaosWG.Done()
		rng := rand.New(rand.NewSource(31))
		points := faultpoint.Points()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if rng.Intn(4) == 0 {
				faultpoint.DisarmAll()
			} else {
				chaosArm(points[rng.Intn(len(points))], rng.Intn(6))
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	const goroutines, iters = 8, 16
	var closed atomic.Bool
	var mutOK, mutFail atomic.Int64
	errCh := make(chan error, goroutines)
	var wg sync.WaitGroup
	ctx := context.Background()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(500 + g)))
			for i := 0; i < iters; i++ {
				var err error
				switch g % 4 {
				case 0: // appender
					n := 1 + rng.Intn(16)
					rows := map[string][]uint64{"fk": make([]uint64, n), "qty": make([]uint64, n), "price": make([]uint64, n)}
					for k := 0; k < n; k++ {
						rows["fk"][k] = uint64(rng.Intn(400))
						rows["qty"][k] = uint64(rng.Intn(50))
						rows["price"][k] = uint64(100 + rng.Intn(900))
					}
					err = e.Append(ctx, "fact", rows)
				case 1: // deleter: positions stay far below the live row floor
					err = e.Delete(ctx, "fact", []uint64{uint64(rng.Intn(256)), uint64(rng.Intn(256))})
				case 2: // remorpher
					err = e.Remorph(ctx, "fact")
				default: // querier
					_, err = pr.Execute(ctx)
				}
				if err != nil {
					mutFail.Add(1)
					if !chaosTyped(err) && !errors.Is(err, qerr.ErrInvalidSchema) {
						errCh <- fmt.Errorf("goroutine %d iter %d: untyped chaos error: %v", g, i, err)
						return
					}
					if closed.Load() && errors.Is(err, qerr.ErrEngineClosed) {
						return
					}
					continue
				}
				mutOK.Add(1)
			}
		}(g)
	}

	time.Sleep(5 * time.Millisecond)
	closed.Store(true)
	cctx, ccancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	if err := e.Close(cctx); err != nil && !errors.Is(err, context.DeadlineExceeded) && !chaosTyped(err) {
		t.Errorf("close under chaos: %v", err)
	}
	ccancel()

	wg.Wait()
	close(stop)
	chaosWG.Wait()
	faultpoint.DisarmAll()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	t.Logf("chaos writable close: %d ok, %d failed before/through close", mutOK.Load(), mutFail.Load())

	if err := e.Close(context.Background()); err != nil {
		t.Fatalf("close after chaos: %v", err)
	}
	for name, err := range map[string]error{
		"append":  e.Append(ctx, "fact", map[string][]uint64{"fk": {1}, "qty": {1}, "price": {1}}),
		"delete":  e.Delete(ctx, "fact", []uint64{0}),
		"remorph": e.Remorph(ctx, "fact"),
	} {
		if !errors.Is(err, qerr.ErrEngineClosed) {
			t.Fatalf("%s after close: err = %v, want ErrEngineClosed", name, err)
		}
	}

	if c := e.adm.counters(); c.inflight != 0 || c.queued != 0 {
		t.Fatalf("admission not drained: inflight=%d queued=%d", c.inflight, c.queued)
	}
	if n := e.budget.InUse(); n != 0 {
		t.Fatalf("%d budget worker tokens leaked", n)
	}
	if n := e.adm.counters().reserved; n != 0 {
		t.Fatalf("%d bytes of memory reservation leaked (delta reservations must be released by Close)", n)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > baseline {
		t.Fatalf("goroutines leaked: %d before chaos, %d after", baseline, now)
	}
}
