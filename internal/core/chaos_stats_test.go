package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"morphstore/internal/columns"
	"morphstore/internal/faultpoint"
	"morphstore/internal/metrics"
	"morphstore/internal/qerr"
)

// coherentStatsTree checks the invariants every collected execution of pr
// must satisfy regardless of outcome: a fully-labelled tree of the plan's
// size where node state is consistent (never Done with an error, never
// finished without starting), the rewrite pass's shape holds (an elided node
// that finished carries no values, morsels or formats; a fused node counts
// the columns it read) and, on failure, the failure is recorded. It returns
// instead of t.Fatal-ing so chaos worker goroutines can use it.
func coherentStatsTree(qs *metrics.QueryStats, pr *Prepared, execErr error) error {
	if nodes := len(pr.p.nodes); len(qs.Nodes) != nodes {
		return fmt.Errorf("tree has %d nodes, want %d", len(qs.Nodes), nodes)
	}
	if (execErr != nil) != qs.Failed {
		return fmt.Errorf("Failed = %v with execution error %v", qs.Failed, execErr)
	}
	if qs.Failed && qs.Err == "" {
		return fmt.Errorf("failed execution with empty Err")
	}
	for i, ns := range qs.Nodes {
		if ns.Node != i {
			return fmt.Errorf("node %d labelled %d", i, ns.Node)
		}
		if ns.Name == "" || ns.Op == "" {
			return fmt.Errorf("node %d missing identity: %+v", i, ns)
		}
		if ns.Done && ns.Err != "" {
			return fmt.Errorf("node %d both Done and erred %q", i, ns.Err)
		}
		if !ns.Started && (ns.Done || ns.Err != "" || ns.Morsels != 0) {
			return fmt.Errorf("node %d never started but carries outcomes: %+v", i, ns)
		}
		if execErr == nil && !ns.Done {
			return fmt.Errorf("node %d not Done after a successful execution", i)
		}
		for _, in := range ns.Inputs {
			if in < 0 || in >= i {
				return fmt.Errorf("node %d input %d out of topological range", i, in)
			}
		}
		st := pr.rewritten[i]
		switch {
		case !ns.Done:
		case st.run == nil:
			if ns.InValues != 0 || ns.OutValues != 0 || ns.Morsels != 0 || len(ns.Formats) != 0 {
				return fmt.Errorf("elided node %d carries work: %+v", i, ns)
			}
		case fusedNode(pr, i):
			var read int64
			for _, ref := range st.inputs {
				read += qs.Nodes[ref.node.id].OutValues
			}
			if ns.InValues != read {
				return fmt.Errorf("fused node %d counts %d input values, want the %d it read", i, ns.InValues, read)
			}
		}
	}
	return nil
}

// TestChaosStatsTree reruns the concurrent chaos storm with a stats
// collector attached to every execution and a shared JSONL tracer on part of
// them: every outcome — success, injected error, panic, timeout — must leave
// a coherent (possibly partial) stats tree, panics must attach the tree to
// their *qerr.QueryError, and the storm must leak no worker token or
// goroutine. Runs under -race -cpu 1,2,4 in the CI chaos job.
func TestChaosStatsTree(t *testing.T) {
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
	e := NewEngine(enc, WithParallelism(4))
	pr, err := e.Prepare(plan, WithUniformFormat(columns.DynBPDesc))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := pr.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	tracer := metrics.NewJSONLTracer(io.Discard)

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

	const goroutines, iters = 8, 25
	var failed, succeeded, panicked atomic.Int64
	errCh := make(chan error, goroutines)
	var execWG sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		execWG.Add(1)
		go func(g int) {
			defer execWG.Done()
			rng := rand.New(rand.NewSource(int64(300 + g)))
			for i := 0; i < iters; i++ {
				ctx := context.Background()
				var cancel context.CancelFunc
				if rng.Intn(8) == 0 {
					ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(400))*time.Microsecond)
				}
				var qs metrics.QueryStats
				opts := []Option{WithExecStats(&qs)}
				if i%4 == 0 {
					opts = append(opts, WithTracer(tracer))
				}
				res, err := pr.Execute(ctx, opts...)
				if cancel != nil {
					cancel()
				}
				if terr := coherentStatsTree(&qs, pr, err); terr != nil {
					errCh <- fmt.Errorf("goroutine %d iter %d: incoherent stats tree: %v", g, i, terr)
					return
				}
				if err != nil {
					failed.Add(1)
					if !chaosTyped(err) {
						errCh <- fmt.Errorf("goroutine %d iter %d: untyped chaos error: %v", g, i, err)
						return
					}
					var qe *qerr.QueryError
					if errors.As(err, &qe) {
						panicked.Add(1)
						if qe.Stats == nil {
							errCh <- fmt.Errorf("goroutine %d iter %d: panic QueryError without attached stats", g, i)
							return
						}
						if terr := coherentStatsTree(qe.Stats, pr, err); terr != nil {
							errCh <- fmt.Errorf("goroutine %d iter %d: incoherent QueryError stats: %v", g, i, terr)
							return
						}
					}
					continue
				}
				succeeded.Add(1)
				if serr := sameResult(ref, res); serr != nil {
					errCh <- fmt.Errorf("goroutine %d iter %d: collected execution under chaos diverged: %v", g, i, serr)
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
	t.Logf("chaos+stats: %d executions, %d failed (%d panics), %d succeeded",
		goroutines*iters, failed.Load(), panicked.Load(), succeeded.Load())
	if succeeded.Load() == 0 {
		t.Fatal("no execution succeeded under chaos")
	}
	if err := tracer.Err(); err != nil {
		t.Fatalf("tracer write error under chaos: %v", err)
	}

	// Post-storm invariants: nothing leaked, counters partition the outcomes,
	// and a fresh collected execution is byte-identical with a complete tree.
	if n := e.budget.InUse(); n != 0 {
		t.Fatalf("%d budget worker tokens leaked", n)
	}
	if n, held, limit := e.pool.Leases(), e.pool.Held(), e.pool.Limit(); n != 0 || held > limit {
		t.Fatalf("buffer pool after the storm: %d leases open, %d bytes retained (cap %d)", n, held, limit)
	}
	st := e.Stats()
	finished := st.QueriesSucceeded + st.QueriesRejected + st.QueriesCanceled +
		st.QueriesTimedOut + st.QueriesCorrupt + st.QueriesPanicked + st.QueriesFailedOther
	if st.QueriesStarted != finished {
		t.Fatalf("outcome counters do not partition: started %d, summed %d (%+v)",
			st.QueriesStarted, finished, st)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > baseline {
		t.Fatalf("goroutines leaked: %d before chaos, %d after", baseline, now)
	}
	var qs metrics.QueryStats
	res, err := pr.Execute(context.Background(), WithExecStats(&qs))
	if err != nil {
		t.Fatalf("collected execution after chaos: %v", err)
	}
	if err := sameResult(ref, res); err != nil {
		t.Fatalf("collected execution after chaos diverged: %v", err)
	}
	if err := coherentStatsTree(&qs, pr, nil); err != nil {
		t.Fatalf("stats tree after chaos: %v", err)
	}
}
