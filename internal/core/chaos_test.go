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
	"morphstore/internal/formats"
	"morphstore/internal/qerr"
	"morphstore/internal/vector"
)

// The chaos test drives many concurrent prepared executions while a
// background goroutine keeps re-arming the engine's fault points with random
// behaviours — typed errors, panics, delays. The contract under test is the
// full fault-tolerance story at once: no deadlock, no goroutine leak, no
// leaked worker token, every failure a taxonomy error, every success (and
// every post-chaos execution) byte-identical to the pre-chaos reference.

// chaosTyped reports whether err is accounted for by the error taxonomy: a
// sentinel match or a recovered-panic *qerr.QueryError.
func chaosTyped(err error) bool {
	var qe *qerr.QueryError
	return errors.Is(err, qerr.ErrCorruptData) ||
		errors.Is(err, qerr.ErrQueryTimeout) ||
		errors.Is(err, qerr.ErrQueryCanceled) ||
		errors.Is(err, qerr.ErrAdmissionRejected) ||
		errors.Is(err, qerr.ErrEngineClosed) ||
		errors.Is(err, qerr.ErrMemoryLimit) ||
		errors.As(err, &qe)
}

// sameResult compares a result against its reference word-for-word. It is
// the goroutine-safe form of sameColumns: it returns instead of t.Fatal-ing.
func sameResult(want, got *Result) error {
	if len(got.Cols) != len(want.Cols) {
		return fmt.Errorf("%d result columns, want %d", len(got.Cols), len(want.Cols))
	}
	for name, w := range want.Cols {
		g := got.Cols[name]
		if g == nil {
			return fmt.Errorf("column %q missing", name)
		}
		if g.N() != w.N() || g.MainElems() != w.MainElems() || len(g.Words()) != len(w.Words()) {
			return fmt.Errorf("column %q shape mismatch", name)
		}
		for k, ww := range w.Words() {
			if g.Words()[k] != ww {
				return fmt.Errorf("column %q word %d differs", name, k)
			}
		}
	}
	return nil
}

// chaosArm arms point p with a randomly selected behaviour. The morsel-claim
// site sits on the worker's claim path outside the per-morsel recover guard
// (a claim that fails has not started any kernel), so its handlers stay on
// the error path; every other site may panic.
func chaosArm(p *faultpoint.Point, kind int) {
	injected := fmt.Errorf("chaos injected: %w", formats.ErrCorrupt)
	switch kind {
	case 0:
		p.Disarm()
	case 1:
		p.Arm(func() error { return injected })
	case 2:
		if p.Name() == "morsel-claim" {
			p.Arm(func() error { return injected })
		} else {
			p.Arm(func() error { panic(injected) })
		}
	case 3:
		if p.Name() == "morsel-claim" {
			p.Arm(func() error { return injected })
		} else {
			p.Arm(func() error { panic("chaos string panic") })
		}
	default:
		p.Arm(func() error { time.Sleep(20 * time.Microsecond); return nil })
	}
}

func TestChaosConcurrentExecution(t *testing.T) {
	defer faultpoint.DisarmAll()
	db := buildParTestDB(t)
	plan := buildParTestPlan(t)
	enc, err := db.Encode(map[string]columns.FormatDesc{
		"fact.fk":  columns.StaticBPDesc(0),
		"fact.qty": columns.StaticBPDesc(0),
		"dim.id":   columns.StaticBPDesc(0),
		"dim.attr": columns.DynBPDesc,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(enc, WithParallelism(4), WithStyle(vector.Vec512))
	descs := []columns.FormatDesc{columns.UncomprDesc, columns.DynBPDesc, columns.DeltaBPDesc}
	prs := make([]*Prepared, len(descs))
	refs := make([]*Result, len(descs))
	for i, desc := range descs {
		pr, err := e.Prepare(plan, WithUniformFormat(desc))
		if err != nil {
			t.Fatal(err)
		}
		ref, err := pr.Execute(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		prs[i], refs[i] = pr, ref
	}
	baseline := runtime.NumGoroutine()

	// Background chaos: keep flipping random fault points between disarmed,
	// erroring, panicking and delaying states for the whole run.
	stop := make(chan struct{})
	var chaosWG sync.WaitGroup
	chaosWG.Add(1)
	go func() {
		defer chaosWG.Done()
		rng := rand.New(rand.NewSource(7))
		points := faultpoint.Points()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if rng.Intn(4) == 0 {
				faultpoint.DisarmAll() // windows of clean execution
			} else {
				chaosArm(points[rng.Intn(len(points))], rng.Intn(6))
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	const goroutines, iters = 8, 30 // 240 executions, well over the 200 floor
	var failed, succeeded atomic.Int64
	errCh := make(chan error, goroutines)
	var execWG sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		execWG.Add(1)
		go func(g int) {
			defer execWG.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; i < iters; i++ {
				k := (g + i) % len(prs)
				ctx := context.Background()
				var cancel context.CancelFunc
				if rng.Intn(8) == 0 { // sprinkle deadline pressure into the mix
					ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(400))*time.Microsecond)
				}
				res, err := prs[k].Execute(ctx)
				if cancel != nil {
					cancel()
				}
				if err != nil {
					failed.Add(1)
					if !chaosTyped(err) {
						errCh <- fmt.Errorf("goroutine %d iter %d: untyped chaos error: %v", g, i, err)
						return
					}
					continue
				}
				succeeded.Add(1)
				if err := sameResult(refs[k], res); err != nil {
					errCh <- fmt.Errorf("goroutine %d iter %d: successful execution under chaos diverged: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	execWG.Wait()
	close(stop)
	chaosWG.Wait()
	faultpoint.DisarmAll()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	t.Logf("chaos: %d executions, %d failed, %d succeeded", goroutines*iters, failed.Load(), succeeded.Load())
	if succeeded.Load() == 0 {
		t.Fatal("no execution succeeded under chaos")
	}

	// Invariants after the storm: no leaked worker token, worker goroutines
	// gone, and the same prepared plans produce byte-identical columns again.
	if n := e.budget.InUse(); n != 0 {
		t.Fatalf("%d budget worker tokens leaked", n)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > baseline {
		t.Fatalf("goroutines leaked: %d before chaos, %d after", baseline, now)
	}
	for i, pr := range prs {
		res, err := pr.Execute(context.Background())
		if err != nil {
			t.Fatalf("execution after chaos: %v", err)
		}
		if err := sameResult(refs[i], res); err != nil {
			t.Fatalf("execution after chaos diverged: %v", err)
		}
	}
}
