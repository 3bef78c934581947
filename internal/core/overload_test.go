package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"morphstore/internal/columns"
	"morphstore/internal/faultpoint"
	"morphstore/internal/metrics"
	"morphstore/internal/qerr"
)

// This file tests the overload-protection layer: the bounded admission
// queue (shed ordering, overflow, wait bounds, fault injection), the
// runtime memory governor's engine integration, the WithRetry loop, and
// graceful Engine.Close (the racing chaos variant lives in
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

// TestAdmissionQueueFIFOAndOverflow: parked queries are granted in arrival
// order when slots free up, and arrivals beyond the queue depth are shed
// immediately with ErrAdmissionRejected.
func TestAdmissionQueueFIFOAndOverflow(t *testing.T) {
	a := newAdmission(1, 2, 0)
	hold, _, err := a.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Park two waiters, strictly ordered.
	order := make(chan int, 2)
	var wg sync.WaitGroup
	for i := 1; i <= 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			release, wait, err := a.admit(context.Background())
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			if wait <= 0 {
				t.Errorf("waiter %d admitted without a measured wait", i)
			}
			order <- i
			release()
		}()
		waitFor(t, "waiter to park", func() bool { return a.counters().queued == i })
	}

	// Third arrival overflows the depth-2 queue.
	if _, _, err := a.admit(context.Background()); !errors.Is(err, qerr.ErrAdmissionRejected) {
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
	a := newAdmission(1, 0, 5*time.Millisecond)
	hold, _, err := a.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer hold()
	_, wait, err := a.admit(context.Background())
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
	a := newAdmission(1, 0, 0)
	hold, _, err := a.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer hold()

	faultpoint.AdmissionEnqueue.Arm(func() error { return fmt.Errorf("injected enqueue failure") })
	if _, _, err := a.admit(context.Background()); !errors.Is(err, qerr.ErrAdmissionRejected) {
		t.Fatalf("injected enqueue error: %v, want ErrAdmissionRejected", err)
	}

	faultpoint.AdmissionEnqueue.Arm(func() error { panic("injected enqueue panic") })
	_, _, err = a.admit(context.Background())
	var qe *qerr.QueryError
	if !errors.Is(err, qerr.ErrAdmissionRejected) || !errors.As(err, &qe) {
		t.Fatalf("injected enqueue panic: %v, want ErrAdmissionRejected wrapping QueryError", err)
	}
	faultpoint.AdmissionEnqueue.Disarm()
	if c := a.counters(); c.queued != 0 {
		t.Fatalf("failed enqueues left %d queued", c.queued)
	}
}

// TestRetryBackoffBounds: the policy's backoff doubles from BaseDelay, caps
// at MaxDelay, and jitters only upward within the configured fraction.
func TestRetryBackoffBounds(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond}
	for attempt, want := range map[int]time.Duration{
		1: time.Millisecond,
		2: 2 * time.Millisecond,
		3: 4 * time.Millisecond,
		4: 4 * time.Millisecond, // capped
		9: 4 * time.Millisecond,
	} {
		if got := p.backoff(attempt); got != want {
			t.Fatalf("backoff(%d) = %v, want %v (no jitter)", attempt, got, want)
		}
	}
	p.Jitter = 0.5
	for attempt := 1; attempt <= 6; attempt++ {
		base := p.backoffBase(attempt)
		for i := 0; i < 32; i++ {
			d := p.backoff(attempt)
			if d < base || d > base+base/2 {
				t.Fatalf("jittered backoff(%d) = %v outside [%v, %v]", attempt, d, base, base+base/2)
			}
		}
	}
	if (RetryPolicy{}).attempts() != 1 || (RetryPolicy{MaxAttempts: -3}).attempts() != 1 {
		t.Fatal("zero/negative policies must mean a single attempt")
	}
	if (RetryPolicy{BaseDelay: time.Second}).backoff(40) <= 0 {
		t.Fatal("deep attempt backoff must stay positive (overflow)")
	}
}

// TestWithRetryRecoversFromShed: an execution shed by the admission layer
// retries under WithRetry and succeeds once the congestion clears; the
// retries are visible in Engine.Stats.
func TestWithRetryRecoversFromShed(t *testing.T) {
	db := buildParTestDB(t)
	plan := buildParTestPlan(t)
	e := NewEngine(db, WithParallelism(2), WithMaxConcurrentQueries(1),
		WithAdmissionQueue(1, 2*time.Millisecond))
	pr, err := e.Prepare(plan, WithUniformFormat(columns.UncomprDesc))
	if err != nil {
		t.Fatal(err)
	}
	hold, _, err := e.adm.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	go func() { time.Sleep(8 * time.Millisecond); hold() }()
	res, err := pr.Execute(context.Background(),
		WithRetry(RetryPolicy{MaxAttempts: 50, BaseDelay: time.Millisecond}))
	if err != nil {
		t.Fatalf("retried execution: %v", err)
	}
	if res == nil || len(res.Cols) == 0 {
		t.Fatal("retried execution returned no columns")
	}
	st := e.Stats()
	if st.QueriesRetried < 1 || st.QueriesRejected < 1 || st.QueriesSucceeded != 1 {
		t.Fatalf("retry accounting: retried=%d rejected=%d succeeded=%d",
			st.QueriesRetried, st.QueriesRejected, st.QueriesSucceeded)
	}
}

// TestWithRetryTransientAndNonRetryable: a transient injected fault is
// retried to success; a corrupt-data failure is not retried at all.
func TestWithRetryTransientAndNonRetryable(t *testing.T) {
	defer faultpoint.DisarmAll()
	db := buildParTestDB(t)
	plan := buildParTestPlan(t)
	e := NewEngine(db, WithParallelism(2))
	pr, err := e.Prepare(plan, WithUniformFormat(columns.DynBPDesc))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := pr.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// First execution attempt hits a transient fault; the second runs clean.
	var hits atomic.Int64
	faultpoint.MorselClaim.Arm(func() error {
		if hits.Add(1) == 1 {
			return fmt.Errorf("injected flake: %w", qerr.ErrTransient)
		}
		return nil
	})
	res, err := pr.Execute(context.Background(),
		WithRetry(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Microsecond}))
	if err != nil {
		t.Fatalf("transient-retried execution: %v", err)
	}
	if err := sameResult(ref, res); err != nil {
		t.Fatalf("retried execution diverged: %v", err)
	}
	if st := e.Stats(); st.QueriesRetried != 1 {
		t.Fatalf("QueriesRetried = %d, want 1", st.QueriesRetried)
	}

	// Corrupt data is never retryable: exactly one attempt.
	faultpoint.MorselClaim.Arm(func() error { return fmt.Errorf("injected: %w", qerr.ErrCorruptData) })
	before := e.Stats().QueriesStarted
	_, err = pr.Execute(context.Background(),
		WithRetry(RetryPolicy{MaxAttempts: 5, BaseDelay: time.Microsecond}))
	if !errors.Is(err, qerr.ErrCorruptData) {
		t.Fatalf("corrupt execution: %v", err)
	}
	if got := e.Stats().QueriesStarted - before; got != 1 {
		t.Fatalf("corrupt failure made %d attempts, want 1", got)
	}
}

// TestMemoryBudgetGovernance: executions reserve their estimate from the
// engine's governor, report estimate and measured peak in QueryStats, leave
// the governor empty when done, degrade to sequential under
// WithMemoryLimitDegrade when the estimate exceeds the budget, and fail
// with a non-retryable ErrMemoryLimit without it.
func TestMemoryBudgetGovernance(t *testing.T) {
	db := buildParTestDB(t)
	plan := buildParTestPlan(t)
	roomy := NewEngine(db, WithParallelism(4), WithMemoryBudget(1<<30))
	pr, err := roomy.Prepare(plan, WithUniformFormat(columns.DynBPDesc))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := pr.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var qs metrics.QueryStats
	if _, err := pr.Execute(context.Background(), WithExecStats(&qs)); err != nil {
		t.Fatal(err)
	}
	if qs.MemEstimate != int64(pr.MemoryEstimate()) || qs.MemEstimate <= 0 {
		t.Fatalf("MemEstimate = %d, want %d", qs.MemEstimate, pr.MemoryEstimate())
	}
	if qs.MemPeak <= 0 || qs.MemDegraded {
		t.Fatalf("MemPeak = %d, MemDegraded = %v, want positive peak, no degrade", qs.MemPeak, qs.MemDegraded)
	}
	st := roomy.Stats()
	if st.MemBudget != 1<<30 || st.MemReserved != 0 || st.MemPeakReserved < qs.MemEstimate {
		t.Fatalf("governor stats after idle: %+v", st)
	}

	// Estimate over the whole budget, degradation on: sequential execution
	// under a clamped reservation, byte-identical result.
	tiny := NewEngine(db, WithParallelism(4),
		WithMemoryBudget(int64(pr.MemoryEstimate()-1)), WithMemoryLimitDegrade(true))
	dpr, err := tiny.Prepare(plan, WithUniformFormat(columns.DynBPDesc))
	if err != nil {
		t.Fatal(err)
	}
	var dqs metrics.QueryStats
	res, err := dpr.Execute(context.Background(), WithExecStats(&dqs))
	if err != nil {
		t.Fatalf("degraded execution: %v", err)
	}
	if err := sameResult(ref, res); err != nil {
		t.Fatalf("degraded execution diverged: %v", err)
	}
	if !dqs.MemDegraded || dqs.MemEstimate != int64(pr.MemoryEstimate()-1) {
		t.Fatalf("degraded stats: %+v", dqs)
	}

	// Degradation off: typed, non-retryable rejection.
	strict := NewEngine(db, WithParallelism(4), WithMemoryBudget(int64(pr.MemoryEstimate()-1)))
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
	hold, _, err := e.adm.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
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
