package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"morphstore/internal/columns"
	"morphstore/internal/faultpoint"
	"morphstore/internal/qerr"
)

// TestEngineQueryTimeout: WithQueryTimeout must stop a running query and the
// error must match ErrQueryTimeout; the engine stays usable afterwards.
func TestEngineQueryTimeout(t *testing.T) {
	db, plan := bigCancelDB(t)
	e := NewEngine(db, WithParallelism(2))
	pr, err := e.Prepare(plan, WithUniformFormat(columns.DynBPDesc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pr.Execute(context.Background(), WithQueryTimeout(time.Millisecond)); !errors.Is(err, qerr.ErrQueryTimeout) {
		t.Fatalf("timed-out execution: %v, want ErrQueryTimeout", err)
	}
	// The timeout is per execution, not sticky state on the prepared plan.
	if _, err := pr.Execute(context.Background()); err != nil {
		t.Fatalf("execution after timeout: %v", err)
	}
	// A pre-cancelled caller context classifies as a cancellation.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pr.Execute(ctx); !errors.Is(err, qerr.ErrQueryCanceled) {
		t.Fatalf("pre-cancelled execution: %v, want ErrQueryCanceled", err)
	}
}

// TestEngineAdmissionRejectedTyped: a query whose context fires while parked
// in the admission queue classifies as ErrAdmissionRejected — never as the
// mid-flight sentinels ErrQueryTimeout/ErrQueryCanceled — for both expiry
// flavours and in both orderings (context already expired before the admit
// call, and expiring while parked). The raw context sentinel stays in the
// wrap chain. This is the regression test for the old gate's classification
// ambiguity (a select racing an expired ctx against a free slot).
func TestEngineAdmissionRejectedTyped(t *testing.T) {
	db := buildParTestDB(t)
	plan := buildParTestPlan(t)
	e := NewEngine(db, WithParallelism(2), WithMaxConcurrentQueries(1))
	pr, err := e.Prepare(plan, WithUniformFormat(columns.UncomprDesc))
	if err != nil {
		t.Fatal(err)
	}
	release := holdSlot(t, e.adm) // occupy the slot deterministically

	// Deadline flavour, expiry while parked.
	_, err = pr.Execute(context.Background(), WithQueryTimeout(time.Millisecond))
	if !errors.Is(err, qerr.ErrAdmissionRejected) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timed-out waiter: %v, want ErrAdmissionRejected wrapping DeadlineExceeded", err)
	}
	if errors.Is(err, qerr.ErrQueryTimeout) {
		t.Fatalf("timed-out waiter classified mid-flight: %v", err)
	}

	// Cancel flavour, expiry while parked.
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(time.Millisecond); cancel() }()
	_, err = pr.Execute(ctx)
	if !errors.Is(err, qerr.ErrAdmissionRejected) || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter: %v, want ErrAdmissionRejected wrapping Canceled", err)
	}
	if errors.Is(err, qerr.ErrQueryCanceled) {
		t.Fatalf("cancelled waiter classified mid-flight: %v", err)
	}

	// Opposite ordering: the context is already expired when Execute is
	// called (the racy case of the old gate). Both flavours must still
	// reject, deterministically.
	done, cancelDone := context.WithCancel(context.Background())
	cancelDone()
	if _, err := pr.Execute(done); !errors.Is(err, qerr.ErrAdmissionRejected) || errors.Is(err, qerr.ErrQueryCanceled) {
		t.Fatalf("pre-cancelled execute: %v, want ErrAdmissionRejected without ErrQueryCanceled", err)
	}
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, err := pr.Execute(dctx); !errors.Is(err, qerr.ErrAdmissionRejected) || errors.Is(err, qerr.ErrQueryTimeout) {
		t.Fatalf("pre-expired execute: %v, want ErrAdmissionRejected without ErrQueryTimeout", err)
	}

	// All four sheds are retryable: the queries never started.
	if !qerr.IsRetryable(err) {
		t.Fatalf("admission rejection not retryable: %v", err)
	}

	release()
	if _, err := pr.Execute(context.Background()); err != nil {
		t.Fatalf("execution after slot released: %v", err)
	}
	st := e.Stats()
	if st.AdmissionShedExpired != 4 || st.QueriesRejected != 4 {
		t.Fatalf("shed accounting: expired=%d rejected=%d, want 4/4", st.AdmissionShedExpired, st.QueriesRejected)
	}
}

// TestPreparedExecuteAfterFailure: a failed execution — recovered panic or
// cancellation — must leave the Prepared fully usable, with subsequent
// executions byte-identical to an untroubled run.
func TestPreparedExecuteAfterFailure(t *testing.T) {
	defer faultpoint.DisarmAll()
	db := buildParTestDB(t)
	plan := buildParTestPlan(t)
	e := NewEngine(db, WithParallelism(4))
	pr, err := e.Prepare(plan, WithUniformFormat(columns.DeltaBPDesc))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := pr.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	faultpoint.KernelBody.Arm(func() error { panic("injected kernel panic") })
	_, err = pr.Execute(context.Background())
	var qe *qerr.QueryError
	if !errors.As(err, &qe) {
		t.Fatalf("kernel panic did not surface as QueryError: %v", err)
	}
	if qe.Op == "" {
		t.Fatalf("QueryError lost its operator: %+v", qe)
	}
	faultpoint.DisarmAll()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pr.Execute(ctx); !errors.Is(err, qerr.ErrQueryCanceled) {
		t.Fatalf("cancelled execution: %v", err)
	}

	for i := 0; i < 3; i++ {
		res, err := pr.Execute(context.Background())
		if err != nil {
			t.Fatalf("execution %d after failures: %v", i, err)
		}
		if err := sameResult(ref, res); err != nil {
			t.Fatalf("execution %d after failures diverged: %v", i, err)
		}
	}
	if n := e.budget.InUse(); n != 0 {
		t.Fatalf("%d budget worker tokens leaked", n)
	}
}
