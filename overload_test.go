package morphstore

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// The overload acceptance test: the public API's overload-protection and
// lifecycle surface — WithMaxConcurrentQueries + WithAdmissionQueue,
// WithMemoryBudget, IsRetryable, Engine.Close — exercised
// end-to-end through the morphstore package.

// overloadDB builds a small two-column database and a select-project-sum
// plan against it.
func overloadDB(t *testing.T) (*DB, *Plan) {
	t.Helper()
	n := 8*512 + 300
	a := make([]uint64, n)
	bvals := make([]uint64, n)
	for i := range a {
		a[i] = uint64(i % 1000)
		bvals[i] = uint64(i % 97)
	}
	db := NewDB()
	db.AddTable("t", map[string][]uint64{"a": a, "b": bvals})

	pb := NewPlanBuilder()
	ca := pb.Scan("t", "a")
	cb := pb.Scan("t", "b")
	sel := pb.Select("sel", ca, CmpLt, 800)
	proj := pb.Project("proj", cb, sel)
	pb.Result(pb.SumWhole("total", proj))
	plan, err := pb.Build()
	if err != nil {
		t.Fatal(err)
	}
	return db, plan
}

// TestOverloadAdmissionAndRetry: under 4x over-admission against one slot
// and a bounded queue, some executions are shed with the retryable
// ErrAdmissionRejected; the same storm with each client retrying what
// IsRetryable reports retryable completes fully, with every result
// identical.
func TestOverloadAdmissionAndRetry(t *testing.T) {
	db, plan := overloadDB(t)
	e := NewEngine(db, WithParallelism(2),
		WithMaxConcurrentQueries(1),
		WithAdmissionQueue(1, 200*time.Microsecond))
	pr, err := e.Prepare(plan, WithUniformFormat(DynBP))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := pr.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Cols["total"].Words()[0]

	const clients, iters = 4, 8
	var wg sync.WaitGroup
	var mu sync.Mutex
	var shed, ok int
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				res, err := pr.Execute(context.Background())
				mu.Lock()
				switch {
				case err == nil:
					ok++
					if res.Cols["total"].Words()[0] != want {
						t.Errorf("result under overload differs")
					}
				case errors.Is(err, ErrAdmissionRejected):
					if !IsRetryable(err) {
						t.Errorf("admission shed not retryable: %v", err)
					}
					if errors.Is(err, ErrQueryTimeout) || errors.Is(err, ErrQueryCanceled) {
						t.Errorf("admission shed classified mid-flight: %v", err)
					}
					shed++
				default:
					t.Errorf("unexpected overload error: %v", err)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if ok == 0 {
		t.Fatal("no execution succeeded under overload")
	}
	st := e.Stats()
	if st.QueriesRejected != int64(shed) {
		t.Fatalf("QueriesRejected = %d, observed %d sheds", st.QueriesRejected, shed)
	}

	// The same storm, each client retrying its sheds after a short backoff:
	// every execution eventually gets through.
	executeRetrying := func() (*Result, error) {
		for attempt := 1; ; attempt++ {
			res, err := pr.Execute(context.Background())
			if err == nil || !IsRetryable(err) || attempt == 100 {
				return res, err
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	var rwg sync.WaitGroup
	errCh := make(chan error, clients*iters)
	for c := 0; c < clients; c++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for i := 0; i < iters; i++ {
				res, err := executeRetrying()
				if err != nil {
					errCh <- err
					return
				}
				if res.Cols["total"].Words()[0] != want {
					errCh <- errors.New("retried result differs")
					return
				}
			}
		}()
	}
	rwg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("retried storm: %v", err)
	}
	if st := e.Stats(); st.QueriesStarted != st.QueriesSucceeded+st.QueriesRejected {
		t.Fatalf("outcome counters do not partition the attempts: %+v", st)
	}
}

// TestOverloadMemoryBudget: WithMemoryBudget threads estimate and measured
// peak through QueryStats and Engine.Stats at the public surface.
func TestOverloadMemoryBudget(t *testing.T) {
	db, plan := overloadDB(t)
	e := NewEngine(db, WithParallelism(2), WithMemoryBudget(1<<30))
	pr, err := e.Prepare(plan, WithUniformFormat(DynBP))
	if err != nil {
		t.Fatal(err)
	}
	var qs QueryStats
	if _, err := pr.Execute(context.Background(), WithExecStats(&qs)); err != nil {
		t.Fatal(err)
	}
	if qs.MemEstimate <= 0 || qs.MemPeak <= 0 {
		t.Fatalf("memory stats: estimate=%d peak=%d", qs.MemEstimate, qs.MemPeak)
	}
	st := e.Stats()
	if st.MemBudget != 1<<30 || st.MemReserved != 0 || st.MemPeakReserved < qs.MemEstimate {
		t.Fatalf("engine memory stats: budget=%d reserved=%d peak=%d",
			st.MemBudget, st.MemReserved, st.MemPeakReserved)
	}

	// A budget below the plan's estimate rejects with the non-retryable
	// sentinel.
	strict := NewEngine(db, WithParallelism(2), WithMemoryBudget(int64(pr.MemoryEstimate()-1)))
	spr, err := strict.Prepare(plan, WithUniformFormat(DynBP))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spr.Execute(context.Background()); !errors.Is(err, ErrMemoryLimit) || IsRetryable(err) {
		t.Fatalf("over-budget execution: %v, want non-retryable ErrMemoryLimit", err)
	}
}

// TestOverloadEngineClose: Close through the public API — graceful drain,
// fail-fast afterwards for Execute and one-off operators, idempotence.
func TestOverloadEngineClose(t *testing.T) {
	db, plan := overloadDB(t)
	e := NewEngine(db, WithParallelism(2))
	pr, err := e.Prepare(plan, WithUniformFormat(DynBP))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pr.Execute(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(context.Background()); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := pr.Execute(context.Background()); !errors.Is(err, ErrEngineClosed) || IsRetryable(err) {
		t.Fatalf("execute after close: %v, want non-retryable ErrEngineClosed", err)
	}
	col, err := db.Column("t", "a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Sum(context.Background(), col); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("operator after close: %v, want ErrEngineClosed", err)
	}
	if err := e.Close(context.Background()); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if st := e.Stats(); !st.EngineClosed {
		t.Fatal("Stats does not report the engine closed")
	}
}
