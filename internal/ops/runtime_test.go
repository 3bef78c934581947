package ops

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"morphstore/internal/bitutil"
	"morphstore/internal/columns"
	"morphstore/internal/formats"
)

// TestBudgetBound: three morsel loops of par 4 running at once on a budget
// of 2 never have more than two tasks in flight, every task completes, and
// every token comes back.
func TestBudgetBound(t *testing.T) {
	b := NewBudget(2)
	var inFlight, high, ran atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- RT(context.Background(), b, 4).runTasks(64, func(_, _ int) error {
				n := inFlight.Add(1)
				for h := high.Load(); n > h && !high.CompareAndSwap(h, n); h = high.Load() {
				}
				time.Sleep(50 * time.Microsecond)
				inFlight.Add(-1)
				ran.Add(1)
				return nil
			})
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if h := high.Load(); h > 2 {
		t.Fatalf("%d tasks in flight on a budget of 2", h)
	}
	if n := ran.Load(); n != 3*64 {
		t.Fatalf("%d of %d tasks ran", n, 3*64)
	}
	if n := b.InUse(); n != 0 {
		t.Fatalf("%d tokens still held", n)
	}
}

// TestMemReservationCharge: runtime charges accumulate on the counter, and
// the nil-receiver paths are no-ops.
func TestMemReservationCharge(t *testing.T) {
	r := &MemReservation{}
	rt := RT(context.Background(), nil, 2).WithMemReservation(r)
	rt.ChargeMem(100)
	rt.ChargeMem(28)
	rt.ChargeMem(0)
	rt.ChargeMem(-5)
	if got := r.Charged(); got != 128 {
		t.Fatalf("charged = %d, want 128", got)
	}
	var nr *MemReservation
	nr.Charge(10)
	RT(context.Background(), nil, 2).ChargeMem(10)
	if nr.Charged() != 0 {
		t.Fatal("nil reservation must report zero")
	}
}

// TestBudgetWaiterCancelled: a waiter on an exhausted budget returns false as
// soon as its context is cancelled, without any token being released.
func TestBudgetWaiterCancelled(t *testing.T) {
	b := NewBudget(1)
	if !b.acquire(context.Background(), nil) {
		t.Fatal("first acquire should succeed")
	}
	defer b.release()
	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan bool, 1)
	go func() { got <- b.acquire(ctx, nil) }()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case ok := <-got:
		if ok {
			t.Fatal("acquire returned true after cancellation")
		}
	case <-time.After(50 * time.Millisecond):
		t.Fatal("cancelled waiter did not return within 50 ms")
	}
	if n := b.InUse(); n != 1 {
		t.Fatalf("%d tokens held, want the first acquire's 1", n)
	}
}

// TestRunPartsCancellation: cancelling mid-run stops workers within one
// morsel and surfaces ctx.Err().
func TestRunPartsCancellation(t *testing.T) {
	parts := make([]formats.Partition, 64)
	for i := range parts {
		parts[i] = formats.Partition{Start: i * 512, Count: 512}
	}
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	var once sync.Once
	err := RT(ctx, nil, 2).runParts(parts, func(_, _ int, _ formats.Partition) error {
		ran.Add(1)
		once.Do(cancel)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n >= int64(len(parts)) {
		t.Fatalf("all %d morsels ran despite cancellation", n)
	}
}

// TestRunPartsCompletedBeforeCancel: when every partition completes, the run
// succeeds even if the context is cancelled immediately afterwards.
func TestRunPartsComplete(t *testing.T) {
	parts := make([]formats.Partition, 8)
	for i := range parts {
		parts[i] = formats.Partition{Start: i, Count: 1}
	}
	var ran atomic.Int64
	if err := RT(context.Background(), nil, 4).runParts(parts, func(_, _ int, _ formats.Partition) error {
		ran.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != int64(len(parts)) {
		t.Fatalf("ran %d of %d partitions", ran.Load(), len(parts))
	}
}

// TestRuntimeOpsUnderBudget: the runtime operator methods produce columns
// byte-identical to a fixed-width runtime's while their workers hold tokens
// of a shared budget.
func TestRuntimeOpsUnderBudget(t *testing.T) {
	n := 6 * 512
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = uint64(i % 97)
	}
	col, err := formats.Compress(vals, columns.DynBPDesc)
	if err != nil {
		t.Fatal(err)
	}
	want, err := FixedRT(3).SelectAuto(col, bitutil.CmpLt, 40, columns.DeltaBPDesc, false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RT(context.Background(), NewBudget(3), 3).SelectAuto(col, bitutil.CmpLt, 40, columns.DeltaBPDesc, false)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != want.N() || len(got.Words()) != len(want.Words()) {
		t.Fatalf("shape mismatch: %d/%d vs %d/%d", got.N(), len(got.Words()), want.N(), len(want.Words()))
	}
	for i, w := range want.Words() {
		if got.Words()[i] != w {
			t.Fatalf("word %d differs", i)
		}
	}
}

// TestRuntimeCancelledSelect: a runtime operator on a cancelled context
// fails with the context error instead of producing a partial column.
func TestRuntimeCancelledSelect(t *testing.T) {
	n := 6 * 512
	vals := make([]uint64, n)
	col, err := formats.Compress(vals, columns.DynBPDesc)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = RT(ctx, nil, 2).SelectAuto(col, bitutil.CmpEq, 0, columns.DeltaBPDesc, false)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
