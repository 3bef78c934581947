package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"morphstore/internal/bitutil"
	"morphstore/internal/columns"
	"morphstore/internal/faultpoint"
	"morphstore/internal/metrics"
	"morphstore/internal/qerr"
)

// This file tests the overload-protection layer: the bounded admission
// gate (shed ordering, overflow, wait bounds, fault injection, the byte
// budget and its engine integration), and graceful Engine.Close (the racing chaos variant lives in
// closechaos_test.go).

// waitFor polls cond for up to a second; it fails the test when the
// condition never holds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// holdSlot admits one query that reserves no bytes and returns its release.
func holdSlot(t *testing.T, a *admission) (release func()) {
	t.Helper()
	if _, err := a.admit(context.Background(), 0, true); err != nil {
		t.Fatal(err)
	}
	return func() { a.release(0, true) }
}

// holdBytes admits an append-style byte reservation and returns its release.
func holdBytes(t *testing.T, a *admission, bytes int64) (release func()) {
	t.Helper()
	if _, err := a.admit(context.Background(), bytes, false); err != nil {
		t.Fatal(err)
	}
	return func() { a.release(bytes, false) }
}

// TestAdmissionQueueFIFOAndOverflow: parked queries are granted in arrival
// order when slots free up, and arrivals beyond the queue depth are shed
// immediately with ErrAdmissionRejected.
func TestAdmissionQueueFIFOAndOverflow(t *testing.T) {
	a := newAdmission(1, 0, 2, 0)
	hold := holdSlot(t, a)

	// Park two waiters, strictly ordered.
	order := make(chan int, 2)
	var wg sync.WaitGroup
	for i := 1; i <= 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			wait, err := a.admit(context.Background(), 0, true)
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			if wait <= 0 {
				t.Errorf("waiter %d admitted without a measured wait", i)
			}
			order <- i
			a.release(0, true)
		}()
		waitFor(t, "waiter to park", func() bool { return a.counters().queued == i })
	}

	// Third arrival overflows the depth-2 queue.
	if _, err := a.admit(context.Background(), 0, true); !errors.Is(err, qerr.ErrAdmissionRejected) {
		t.Fatalf("overflow arrival: %v, want ErrAdmissionRejected", err)
	}
	if c := a.counters(); c.shedOverflow != 1 {
		t.Fatalf("shedOverflow = %d, want 1", c.shedOverflow)
	}

	hold()
	wg.Wait()
	if first, second := <-order, <-order; first != 1 || second != 2 {
		t.Fatalf("grant order %d,%d, want FIFO 1,2", first, second)
	}
	c := a.counters()
	if c.waits != 2 || c.waitNS <= 0 {
		t.Fatalf("wait accounting: %+v", c)
	}
	if !a.drain(context.Background()) {
		t.Fatal("drain of idle admission failed")
	}
}

// TestAdmissionMaxWaitShed: a query parked past the configured maxWait is
// shed with ErrAdmissionRejected even though its own context never fires.
func TestAdmissionMaxWaitShed(t *testing.T) {
	a := newAdmission(1, 0, 0, 5*time.Millisecond)
	defer holdSlot(t, a)()
	wait, err := a.admit(context.Background(), 0, true)
	if !errors.Is(err, qerr.ErrAdmissionRejected) {
		t.Fatalf("maxWait shed: %v, want ErrAdmissionRejected", err)
	}
	if errors.Is(err, qerr.ErrQueryTimeout) || errors.Is(err, qerr.ErrQueryCanceled) {
		t.Fatalf("maxWait shed classified mid-flight: %v", err)
	}
	if wait < 5*time.Millisecond {
		t.Fatalf("shed after %v, want >= maxWait", wait)
	}
	if c := a.counters(); c.shedExpired != 1 {
		t.Fatalf("shedExpired = %d, want 1", c.shedExpired)
	}
}

// TestAdmissionEnqueueFaultInjection: an injected failure at the
// admission-enqueue site — error or panic — surfaces as a typed
// ErrAdmissionRejected without crashing, for both handler behaviours.
func TestAdmissionEnqueueFaultInjection(t *testing.T) {
	defer faultpoint.DisarmAll()
	a := newAdmission(1, 0, 0, 0)
	defer holdSlot(t, a)()

	faultpoint.AdmissionEnqueue.Arm(func() error { return fmt.Errorf("injected enqueue failure") })
	if _, err := a.admit(context.Background(), 0, true); !errors.Is(err, qerr.ErrAdmissionRejected) {
		t.Fatalf("injected enqueue error: %v, want ErrAdmissionRejected", err)
	}

	faultpoint.AdmissionEnqueue.Arm(func() error { panic("injected enqueue panic") })
	_, err := a.admit(context.Background(), 0, true)
	var qe *qerr.QueryError
	if !errors.Is(err, qerr.ErrAdmissionRejected) || !errors.As(err, &qe) {
		t.Fatalf("injected enqueue panic: %v, want ErrAdmissionRejected wrapping QueryError", err)
	}
	faultpoint.AdmissionEnqueue.Disarm()
	if c := a.counters(); c.queued != 0 {
		t.Fatalf("failed enqueues left %d queued", c.queued)
	}
}

// TestAdmissionBytesAccounting: byte grants add up, releases return them,
// the peak tracks the high-water mark, and without a budget no bytes are
// tracked at all.
func TestAdmissionBytesAccounting(t *testing.T) {
	a := newAdmission(0, 1000, 0, 0)
	r1 := holdBytes(t, a, 400)
	r2 := holdBytes(t, a, 600)
	if c := a.counters(); c.reserved != 1000 || c.peakReserved != 1000 {
		t.Fatalf("reserved %d peak %d, want 1000/1000", c.reserved, c.peakReserved)
	}
	r1()
	if c := a.counters(); c.reserved != 600 || c.peakReserved != 1000 {
		t.Fatalf("after release: reserved %d peak %d, want 600/1000", c.reserved, c.peakReserved)
	}
	r2()
	if c := a.counters(); c.reserved != 0 || c.waits != 0 {
		t.Fatalf("idle gate: %+v", c)
	}

	free := newAdmission(0, 0, 0, 0)
	release := holdBytes(t, free, 1<<40)
	if c := free.counters(); c.reserved != 0 || c.peakReserved != 0 {
		t.Fatalf("unbudgeted gate tracked bytes: %+v", c)
	}
	release()
}

// TestAdmissionBytesOverBudget: a request larger than the whole budget can
// never be granted and is rejected at once with the non-retryable
// ErrMemoryLimit and takes neither bytes nor a slot.
func TestAdmissionBytesOverBudget(t *testing.T) {
	a := newAdmission(1, 100, 0, 0)
	for _, query := range []bool{false, true} {
		_, err := a.admit(context.Background(), 101, query)
		if !errors.Is(err, qerr.ErrMemoryLimit) || errors.Is(err, qerr.ErrAdmissionRejected) || qerr.IsRetryable(err) {
			t.Fatalf("over-budget admit (query %v): %v, want non-retryable ErrMemoryLimit", query, err)
		}
	}
	if c := a.counters(); c.reserved != 0 || c.running != 0 || c.inflight != 0 || c.queued != 0 {
		t.Fatalf("failed admits leaked state: %+v", c)
	}
}

// TestAdmissionBytesWaitAndWake: a request that does not fit parks until a
// holder releases; the wait is counted and measured.
func TestAdmissionBytesWaitAndWake(t *testing.T) {
	a := newAdmission(0, 100, 0, 0)
	r1 := holdBytes(t, a, 80)
	var wait time.Duration
	done := make(chan error, 1)
	go func() {
		var err error
		wait, err = a.admit(context.Background(), 50, false)
		done <- err
	}()
	waitFor(t, "waiter to park", func() bool { return a.counters().queued == 1 })
	r1()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	a.release(50, false)
	c := a.counters()
	if c.reserved != 0 || c.waits != 1 || c.waitNS <= 0 || wait <= 0 {
		t.Fatalf("wait accounting: %+v, caller wait %v", c, wait)
	}
}

// TestAdmissionBytesWaitExpiry: a context expiring during a wait for bytes
// sheds the request with ErrAdmissionRejected — never ErrQueryCanceled or
// ErrQueryTimeout, it did no work — for both expiry flavours.
func TestAdmissionBytesWaitExpiry(t *testing.T) {
	a := newAdmission(0, 100, 0, 0)
	defer holdBytes(t, a, 100)()

	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(5 * time.Millisecond); cancel() }()
	_, err := a.admit(ctx, 10, true)
	if !errors.Is(err, qerr.ErrAdmissionRejected) || errors.Is(err, qerr.ErrQueryCanceled) {
		t.Fatalf("cancel during byte wait: %v, want ErrAdmissionRejected without ErrQueryCanceled", err)
	}

	dctx, dcancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer dcancel()
	_, err = a.admit(dctx, 10, false)
	if !errors.Is(err, qerr.ErrAdmissionRejected) || errors.Is(err, qerr.ErrQueryTimeout) {
		t.Fatalf("deadline during byte wait: %v, want ErrAdmissionRejected without ErrQueryTimeout", err)
	}
	if c := a.counters(); c.shedExpired != 2 || c.queued != 0 || c.running != 0 {
		t.Fatalf("expiry accounting: %+v", c)
	}
}

// TestAdmissionBytesConcurrentChurn: queries and appends admitting and
// releasing random-ish sizes concurrently never push the reserved bytes over
// the budget or the running queries over the slots, and leave the gate idle.
func TestAdmissionBytesConcurrentChurn(t *testing.T) {
	const total, slots = 1000, 2
	a := newAdmission(slots, total, 0, 0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			query := w%2 == 0
			for i := 0; i < 50; i++ {
				size := int64(100 + (w*31+i*17)%300)
				if _, err := a.admit(context.Background(), size, query); err != nil {
					t.Error(err)
					return
				}
				if c := a.counters(); c.reserved > total || c.running > slots {
					t.Errorf("reserved %d of %d, running %d of %d", c.reserved, total, c.running, slots)
				}
				a.release(size, query)
			}
		}(w)
	}
	wg.Wait()
	if c := a.counters(); c.reserved != 0 || c.running != 0 || c.inflight != 0 || c.queued != 0 {
		t.Fatalf("idle gate not empty: %+v", c)
	}
}

// budgetEngine returns an engine over the parallel-test database with the
// given extra options, the parallel-test plan prepared on it, and that
// plan's memory estimate.
func budgetEngine(t *testing.T, o ...Option) (*Engine, *Prepared, int64) {
	t.Helper()
	e := NewEngine(buildParTestDB(t), append([]Option{WithParallelism(2)}, o...)...)
	pr, err := e.Prepare(buildParTestPlan(t), WithUniformFormat(columns.DynBPDesc))
	if err != nil {
		t.Fatal(err)
	}
	return e, pr, int64(pr.MemoryEstimate())
}

// TestAdmissionWaitBoundedOnce: a query that waits first for a slot and
// then for bytes parks once, for at most the WithAdmissionQueue maxWait in
// total, and the whole park is counted in the admission wait totals. The
// gate used to take the slot first and then wait for bytes under a second
// maxWait timer that no wait total counted.
func TestAdmissionWaitBoundedOnce(t *testing.T) {
	const maxWait = 100 * time.Millisecond
	_, _, est := budgetEngine(t)
	e, pr, _ := budgetEngine(t, WithMaxConcurrentQueries(1),
		WithAdmissionQueue(0, maxWait), WithMemoryBudget(2*est))
	defer holdBytes(t, e.adm, 2*est-est/2)() // most of the bytes, never freed in time
	releaseSlot := holdSlot(t, e.adm)
	go func() { time.Sleep(80 * time.Millisecond); releaseSlot() }()

	start := time.Now()
	_, err := pr.Execute(context.Background())
	parked := time.Since(start)
	if !errors.Is(err, qerr.ErrAdmissionRejected) {
		t.Fatalf("starved query: %v, want ErrAdmissionRejected", err)
	}
	if parked > maxWait+20*time.Millisecond {
		t.Fatalf("query parked %v, want at most maxWait %v (+20ms)", parked, maxWait)
	}
	st := e.Stats()
	if st.AdmissionWaitTotal < maxWait || st.AdmissionWaitTotal > parked {
		t.Fatalf("AdmissionWaitTotal = %v, want the whole park (>= %v, <= %v)", st.AdmissionWaitTotal, maxWait, parked)
	}
	if st.AdmissionWaits != 1 || st.AdmissionShedExpired != 1 || st.QueriesRejected != 1 {
		t.Fatalf("wait accounting: waits %d shedExpired %d rejected %d, want 1/1/1",
			st.AdmissionWaits, st.AdmissionShedExpired, st.QueriesRejected)
	}
}

// TestAdmissionBytesDoNotHoldSlot: a query waiting for bytes holds no slot,
// so a later query whose estimate fits is admitted and runs past it while it
// still waits; the waiter is admitted once the bytes come back.
func TestAdmissionBytesDoNotHoldSlot(t *testing.T) {
	_, _, est := budgetEngine(t)
	e, big, _ := budgetEngine(t, WithMaxConcurrentQueries(2), WithMemoryBudget(2*est))
	b := NewBuilder()
	b.Result(b.SumWhole("ids", b.Scan("dim", "id")))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	small, err := e.Prepare(p)
	if err != nil {
		t.Fatal(err)
	}
	releaseSlot := holdSlot(t, e.adm)                // the one running query
	releaseBytes := holdBytes(t, e.adm, 2*est-est/2) // the bytes big needs

	bigDone := make(chan error, 1)
	go func() {
		_, err := big.Execute(context.Background())
		bigDone <- err
	}()
	waitFor(t, "big query to park for bytes", func() bool { return e.adm.counters().queued == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := small.Execute(ctx); err != nil {
		t.Fatalf("small query behind a byte waiter: %v, want admitted on the free slot", err)
	}
	if c := e.adm.counters(); c.queued != 1 {
		t.Fatalf("byte waiter left the queue early: %+v", c)
	}
	releaseBytes()
	if err := <-bigDone; err != nil {
		t.Fatalf("byte waiter after release: %v", err)
	}
	releaseSlot()
	if c := e.adm.counters(); c.reserved != 0 || c.running != 0 || c.queued != 0 {
		t.Fatalf("gate not idle: %+v", c)
	}
}

// TestMemoryEstimateCountsDeltaRows: the estimate a query reserves is sized
// from the tables' current rows, so 100k rows appended to the delta reserve
// what the same rows in the main do, and pending deletions count off.
func TestMemoryEstimateCountsDeltaRows(t *testing.T) {
	const n = 100_000
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = uint64(i % 97)
	}
	b := NewBuilder()
	v := b.Scan("t", "v")
	b.Result(b.Project("v_sel", v, b.Select("sel", v, bitutil.CmpLt, 1000)))
	plan, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	prepare := func(cols []uint64) (*Engine, *Prepared) {
		db := NewDB()
		if err := db.AddTable("t", map[string][]uint64{"v": cols}); err != nil {
			t.Fatal(err)
		}
		e := NewEngine(db, WithMemoryBudget(1<<30))
		pr, err := e.Prepare(plan)
		if err != nil {
			t.Fatal(err)
		}
		return e, pr
	}
	_, inMain := prepare(vals)
	e, inDelta := prepare(nil)
	if got := inDelta.MemoryEstimate(); got != 0 {
		t.Fatalf("empty table estimate = %d, want 0", got)
	}
	if err := e.Append(context.Background(), "t", map[string][]uint64{"v": vals}); err != nil {
		t.Fatal(err)
	}
	const want = 2 * n * 8 // select positions + projected values
	if got, main := inDelta.MemoryEstimate(), inMain.MemoryEstimate(); got != want || main != want {
		t.Fatalf("estimate: %d with the rows in the delta, %d in the main, want %d", got, main, want)
	}
	var qs metrics.QueryStats
	if _, err := inDelta.Execute(context.Background(), WithExecStats(&qs)); err != nil {
		t.Fatal(err)
	}
	if qs.MemEstimate != want {
		t.Fatalf("reserved %d bytes for the delta rows, want %d", qs.MemEstimate, want)
	}
	if err := e.Delete(context.Background(), "t", []uint64{0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if got := inDelta.MemoryEstimate(); got != 2*(n-4)*8 {
		t.Fatalf("estimate after 4 deletions = %d, want %d", got, 2*(n-4)*8)
	}
}

// TestMemoryBudgetGovernance: executions reserve their estimate at the
// admission gate, report estimate and measured peak in QueryStats, leave no
// bytes reserved when done, and fail with a non-retryable ErrMemoryLimit
// when the estimate exceeds the whole budget.
func TestMemoryBudgetGovernance(t *testing.T) {
	db := buildParTestDB(t)
	plan := buildParTestPlan(t)
	roomy := NewEngine(db, WithParallelism(4), WithMemoryBudget(1<<30))
	pr, err := roomy.Prepare(plan, WithUniformFormat(columns.DynBPDesc))
	if err != nil {
		t.Fatal(err)
	}
	bound := pr.MemoryEstimate()
	var qs metrics.QueryStats
	if _, err := pr.Execute(context.Background(), WithExecStats(&qs)); err != nil {
		t.Fatal(err)
	}
	if qs.MemEstimate != int64(bound) || qs.MemEstimate <= 0 {
		t.Fatalf("MemEstimate = %d, want the upper bound %d", qs.MemEstimate, bound)
	}
	if qs.MemPeak <= 0 {
		t.Fatalf("MemPeak = %d, want positive", qs.MemPeak)
	}
	// After a success the estimate is the run's charge plus a quarter.
	if got, want := pr.MemoryEstimate(), min(bound, int(math.Ceil(1.25*float64(qs.MemPeak)))); got != want {
		t.Fatalf("estimate after a run = %d, want %d (peak %d, bound %d)", got, want, qs.MemPeak, bound)
	}
	st := roomy.Stats()
	if st.MemBudget != 1<<30 || st.MemReserved != 0 || st.MemPeakReserved < qs.MemEstimate {
		t.Fatalf("memory stats after idle: %+v", st)
	}

	// Estimate over the whole budget: typed, non-retryable rejection.
	strict := NewEngine(db, WithParallelism(4), WithMemoryBudget(int64(bound-1)))
	spr, err := strict.Prepare(plan, WithUniformFormat(columns.DynBPDesc))
	if err != nil {
		t.Fatal(err)
	}
	_, err = spr.Execute(context.Background())
	if !errors.Is(err, qerr.ErrMemoryLimit) || qerr.IsRetryable(err) {
		t.Fatalf("over-budget execution: %v, want non-retryable ErrMemoryLimit", err)
	}
	if st := strict.Stats(); st.MemOverBudget != 1 {
		t.Fatalf("MemOverBudget = %d, want 1", st.MemOverBudget)
	}
}

// TestEngineCloseGraceful: Close drains an idle engine immediately, later
// Execute and operator calls fail fast with non-retryable ErrEngineClosed,
// and Close is idempotent.
func TestEngineCloseGraceful(t *testing.T) {
	db := buildParTestDB(t)
	plan := buildParTestPlan(t)
	e := NewEngine(db, WithParallelism(2), WithMaxConcurrentQueries(2))
	pr, err := e.Prepare(plan, WithUniformFormat(columns.UncomprDesc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pr.Execute(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(context.Background()); err != nil {
		t.Fatalf("close: %v", err)
	}
	_, err = pr.Execute(context.Background())
	if !errors.Is(err, qerr.ErrEngineClosed) || qerr.IsRetryable(err) {
		t.Fatalf("execute after close: %v, want non-retryable ErrEngineClosed", err)
	}
	in, err := db.Column("fact", "qty")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Sum(context.Background(), in); !errors.Is(err, qerr.ErrEngineClosed) {
		t.Fatalf("operator call after close: %v, want ErrEngineClosed", err)
	}
	if err := e.Close(context.Background()); err != nil {
		t.Fatalf("second close: %v", err)
	}
	st := e.Stats()
	if !st.EngineClosed || st.QueriesClosed < 1 {
		t.Fatalf("close accounting: closed=%v queriesClosed=%d", st.EngineClosed, st.QueriesClosed)
	}
}

// TestEngineCloseShedsQueuedWaiters: queries parked in the admission queue
// when Close arrives are shed with ErrEngineClosed, not left hanging.
func TestEngineCloseShedsQueuedWaiters(t *testing.T) {
	db := buildParTestDB(t)
	plan := buildParTestPlan(t)
	e := NewEngine(db, WithParallelism(2), WithMaxConcurrentQueries(1))
	pr, err := e.Prepare(plan, WithUniformFormat(columns.UncomprDesc))
	if err != nil {
		t.Fatal(err)
	}
	hold := holdSlot(t, e.adm)
	errCh := make(chan error, 1)
	go func() {
		_, err := pr.Execute(context.Background())
		errCh <- err
	}()
	waitFor(t, "waiter to park", func() bool { return e.adm.counters().queued == 1 })
	// Close sheds the parked waiter immediately, then blocks draining until
	// the held slot is released.
	closeErr := make(chan error, 1)
	go func() { closeErr <- e.Close(context.Background()) }()
	if err := <-errCh; !errors.Is(err, qerr.ErrEngineClosed) {
		t.Fatalf("queued waiter after close: %v, want ErrEngineClosed", err)
	}
	hold()
	if err := <-closeErr; err != nil {
		t.Fatalf("close: %v", err)
	}
	if st := e.Stats(); st.AdmissionShedClosed < 1 {
		t.Fatalf("AdmissionShedClosed = %d, want >= 1", st.AdmissionShedClosed)
	}
}

// TestEngineCloseCancelsStragglers: a Close whose context expires before
// the graceful drain completes cancels the in-flight execution, which
// returns an error matching ErrEngineClosed; Close reports the context
// error and still leaves the engine fully drained.
func TestEngineCloseCancelsStragglers(t *testing.T) {
	defer faultpoint.DisarmAll()
	db := buildParTestDB(t)
	plan := buildParTestPlan(t)
	e := NewEngine(db, WithParallelism(2))
	pr, err := e.Prepare(plan, WithUniformFormat(columns.DynBPDesc))
	if err != nil {
		t.Fatal(err)
	}
	// Slow every morsel claim so the execution comfortably outlives the
	// close deadline.
	faultpoint.MorselClaim.Arm(func() error { time.Sleep(time.Millisecond); return nil })
	errCh := make(chan error, 1)
	go func() {
		_, err := pr.Execute(context.Background())
		errCh <- err
	}()
	waitFor(t, "execution to start", func() bool { return e.adm.counters().inflight == 1 })
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	if err := e.Close(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("close past deadline: %v, want DeadlineExceeded", err)
	}
	execErr := <-errCh
	if !errors.Is(execErr, qerr.ErrEngineClosed) {
		t.Fatalf("straggler: %v, want ErrEngineClosed", execErr)
	}
	if qerr.IsRetryable(execErr) {
		t.Fatalf("straggler cancellation retryable: %v", execErr)
	}
	if c := e.adm.counters(); c.inflight != 0 {
		t.Fatalf("%d executions still in flight after close", c.inflight)
	}
	if n := e.budget.InUse(); n != 0 {
		t.Fatalf("%d budget worker tokens leaked through close", n)
	}
}

// TestEngineCloseDrainFaultInjection: an injected failure at the
// close-drain site surfaces typed from Close, leaves the engine closed, and
// a repeated Close finishes the drain.
func TestEngineCloseDrainFaultInjection(t *testing.T) {
	defer faultpoint.DisarmAll()
	e := NewEngine(nil, WithParallelism(2))
	faultpoint.CloseDrain.Arm(func() error { return fmt.Errorf("injected drain failure") })
	if err := e.Close(context.Background()); !errors.Is(err, qerr.ErrEngineClosed) {
		t.Fatalf("close under injection: %v, want typed error", err)
	}
	if !e.Stats().EngineClosed {
		t.Fatal("engine not closed after failed drain")
	}
	faultpoint.CloseDrain.Disarm()
	if err := e.Close(context.Background()); err != nil {
		t.Fatalf("close retry after injection: %v", err)
	}

	// The panic flavour is converted by the guard, not propagated.
	e2 := NewEngine(nil, WithParallelism(2))
	faultpoint.CloseDrain.Arm(func() error { panic("injected drain panic") })
	err := e2.Close(context.Background())
	var qe *qerr.QueryError
	if !errors.As(err, &qe) || !errors.Is(err, qerr.ErrEngineClosed) {
		t.Fatalf("close under panic injection: %v, want ErrEngineClosed wrapping QueryError", err)
	}
}

// TestOneOffOpsDrainThroughClose: one-off operator calls participate in the
// Close drain — a Close issued mid-call waits for it (or cancels it at the
// deadline with ErrEngineClosed).
func TestOneOffOpsDrainThroughClose(t *testing.T) {
	defer faultpoint.DisarmAll()
	db := buildParTestDB(t)
	e := NewEngine(db, WithParallelism(2))
	in, err := db.Column("fact", "qty")
	if err != nil {
		t.Fatal(err)
	}
	faultpoint.MorselClaim.Arm(func() error { time.Sleep(time.Millisecond); return nil })
	errCh := make(chan error, 1)
	go func() {
		_, err := e.Sum(context.Background(), in)
		errCh <- err
	}()
	waitFor(t, "operator call to start", func() bool { return e.adm.counters().inflight == 1 })
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	_ = e.Close(ctx) // nil if the op finished in time, ctx error otherwise
	if err := <-errCh; err != nil && !errors.Is(err, qerr.ErrEngineClosed) {
		t.Fatalf("one-off op through close: %v, want nil or ErrEngineClosed", err)
	}
	if c := e.adm.counters(); c.inflight != 0 {
		t.Fatalf("%d calls still in flight after close", c.inflight)
	}
}
