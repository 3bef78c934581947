package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"morphstore/internal/columns"
	"morphstore/internal/faultpoint"
	"morphstore/internal/qerr"
)

// TestChaosClose races Engine.Close against a storm of concurrent
// executions while a background goroutine keeps re-arming random fault
// points — including the admission-enqueue and close-drain sites — with
// errors, panics and delays. The contract: every failure is a taxonomy
// error, every success is byte-identical to the reference, Close leaves
// nothing in flight, no goroutine, worker token, or memory reservation
// leaks, and the engine fails fast afterwards.
func TestChaosClose(t *testing.T) {
	defer faultpoint.DisarmAll()
	db := buildParTestDB(t)
	plan := buildParTestPlan(t)

	// Reference result from a quiet engine; the chaos engine is closed
	// mid-test so it cannot produce one afterwards.
	quiet := NewEngine(db, WithParallelism(2))
	qpr, err := quiet.Prepare(plan, WithUniformFormat(columns.DynBPDesc))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := qpr.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()

	e := NewEngine(db, WithParallelism(4),
		WithMaxConcurrentQueries(2),
		WithAdmissionQueue(4, 2*time.Millisecond),
		WithMemoryBudget(1<<30))
	pr, err := e.Prepare(plan, WithUniformFormat(columns.DynBPDesc))
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var chaosWG sync.WaitGroup
	chaosWG.Add(1)
	go func() {
		defer chaosWG.Done()
		rng := rand.New(rand.NewSource(23))
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

	const goroutines, iters = 8, 16 // 128 executions racing one Close
	var closed atomic.Bool
	var succeeded, failed atomic.Int64
	errCh := make(chan error, goroutines)
	var execWG sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		execWG.Add(1)
		go func(g int) {
			defer execWG.Done()
			rng := rand.New(rand.NewSource(int64(200 + g)))
			for i := 0; i < iters; i++ {
				ctx := context.Background()
				var cancel context.CancelFunc
				if rng.Intn(8) == 0 {
					ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(400))*time.Microsecond)
				}
				res, err := pr.Execute(ctx)
				if cancel != nil {
					cancel()
				}
				if err != nil {
					failed.Add(1)
					if !chaosTyped(err) {
						errCh <- fmt.Errorf("goroutine %d iter %d: untyped chaos error: %v", g, i, err)
						return
					}
					if closed.Load() && errors.Is(err, qerr.ErrEngineClosed) {
						return // the engine is gone; nothing left to exercise
					}
					continue
				}
				succeeded.Add(1)
				if err := sameResult(ref, res); err != nil {
					errCh <- fmt.Errorf("goroutine %d iter %d: success under chaos diverged: %v", g, i, err)
					return
				}
			}
		}(g)
	}

	// Close lands mid-storm with a short grace period; the drain either
	// finishes in time or the stragglers are cancelled at the deadline.
	time.Sleep(5 * time.Millisecond)
	closed.Store(true)
	cctx, ccancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	if err := e.Close(cctx); err != nil && !errors.Is(err, context.DeadlineExceeded) && !chaosTyped(err) {
		t.Errorf("close under chaos: %v", err)
	}
	ccancel()

	execWG.Wait()
	close(stop)
	chaosWG.Wait()
	faultpoint.DisarmAll()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	t.Logf("chaos close: %d succeeded, %d failed before/through close", succeeded.Load(), failed.Load())

	// A failed graceful drain still kills and drains fully before Close
	// returns; a repeat Close (the drain fault point is disarmed now) must
	// succeed and the engine must fail fast.
	if err := e.Close(context.Background()); err != nil {
		t.Fatalf("close after chaos: %v", err)
	}
	if _, err := pr.Execute(context.Background()); !errors.Is(err, qerr.ErrEngineClosed) {
		t.Fatalf("execute after close: %v, want ErrEngineClosed", err)
	}

	// Leak invariants: admission empty, no worker token held,
	// every memory reservation returned, goroutines back to baseline.
	if c := e.adm.counters(); c.inflight != 0 || c.queued != 0 {
		t.Fatalf("admission not drained: inflight=%d queued=%d", c.inflight, c.queued)
	}
	if n := e.budget.InUse(); n != 0 {
		t.Fatalf("%d budget worker tokens leaked", n)
	}
	if n := e.adm.counters().reserved; n != 0 {
		t.Fatalf("%d bytes of memory reservation leaked", n)
	}
	if n, held := e.pool.Leases(), e.pool.Held(); n != 0 || held != 0 {
		t.Fatalf("buffer pool after Close: %d leases open, %d bytes retained", n, held)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > baseline {
		t.Fatalf("goroutines leaked: %d before chaos, %d after", baseline, now)
	}

	// The quiet engine was never touched by the storm.
	res, err := qpr.Execute(context.Background())
	if err != nil {
		t.Fatalf("quiet engine after chaos: %v", err)
	}
	if err := sameResult(ref, res); err != nil {
		t.Fatalf("quiet engine diverged: %v", err)
	}
}
