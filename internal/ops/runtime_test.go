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
			errs <- RT(context.Background(), b, nil, 4).runTasks(64, func(_, _ int) error {
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
	rt := RT(context.Background(), nil, nil, 2).WithMemReservation(r)
	rt.ChargeMem(100)
	rt.ChargeMem(28)
	rt.ChargeMem(0)
	rt.ChargeMem(-5)
	if got := r.Charged(); got != 128 {
		t.Fatalf("charged = %d, want 128", got)
	}
	var nr *MemReservation
	nr.Charge(10)
	RT(context.Background(), nil, nil, 2).ChargeMem(10)
	if nr.Charged() != 0 {
		t.Fatal("nil reservation must report zero")
	}
}

// TestMemReservationPeak: released bytes leave the live count but not the
// charged sum, and the peak is the high-water mark of the live count. The
// staging a parallel operator charges is released before it returns, so
// once its output is charged the peak is below the charged sum.
func TestMemReservationPeak(t *testing.T) {
	r := &MemReservation{}
	r.Charge(100)
	r.Release(60)
	r.Charge(30)
	r.Release(0)
	if r.Charged() != 130 || r.Peak() != 100 {
		t.Fatalf("charged %d peak %d, want 130 and 100", r.Charged(), r.Peak())
	}
	var nr *MemReservation
	nr.Release(10)
	if nr.Peak() != 0 {
		t.Fatal("nil reservation must report zero")
	}

	const n = 1 << 16
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = uint64(i % 2)
	}
	r = &MemReservation{}
	out, err := RT(context.Background(), nil, nil, 2).WithMemReservation(r).SelectAuto(columns.FromValues(vals), bitutil.CmpEq, 0, columns.UncomprDesc)
	if err != nil {
		t.Fatal(err)
	}
	if staged := int64(8 * out.N()); r.Charged() < staged || r.Peak() < staged {
		t.Fatalf("charged %d, peak %d: want both at least the %d staged bytes", r.Charged(), r.Peak(), staged)
	}
	r.Charge(out.PhysicalBytes()) // as the engine charges a produced column
	if r.Peak() >= r.Charged() {
		t.Fatalf("peak %d not below the %d bytes charged: the staging was not released", r.Peak(), r.Charged())
	}
}

// TestParallelStagingCharged: at two workers each morsel driver stages one
// 8-byte word per output row before the stitch copies the rows into the
// output column — the emit driver's per-morsel sinks (select) and mapCols'
// shared destination (project) — so the query's memory counter must hold at
// least the staged bytes plus the output's. The output is charged here the
// way the engine charges every produced column.
func TestParallelStagingCharged(t *testing.T) {
	const n = 1 << 20
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = uint64(i % 2)
	}
	in := columns.FromValues(vals)
	half, err := FixedRT(1).SelectAuto(in, bitutil.CmpEq, 0, columns.UncomprDesc) // 50 % selectivity
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		run  func(rt Runtime) (*columns.Column, error)
	}{
		{"select", func(rt Runtime) (*columns.Column, error) {
			return rt.SelectAuto(in, bitutil.CmpEq, 0, columns.UncomprDesc)
		}},
		{"project", func(rt Runtime) (*columns.Column, error) { return rt.Project(in, half, columns.UncomprDesc) }},
	}
	for _, c := range cases {
		r := &MemReservation{}
		rt := RT(context.Background(), nil, nil, 2).WithMemReservation(r)
		out, err := c.run(rt)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if out.N() < n/2 {
			t.Fatalf("%s: %d output rows, want at least %d", c.name, out.N(), n/2)
		}
		rt.ChargeMem(out.PhysicalBytes())
		if got, want := r.Charged(), int64(8*out.N()+out.PhysicalBytes()); got < want {
			t.Errorf("%s: charged %d bytes, want at least %d staged + output", c.name, got, want)
		}
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
	err := RT(ctx, nil, nil, 2).runParts(parts, func(_, _ int, _ formats.Partition) error {
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
	if err := RT(context.Background(), nil, nil, 4).runParts(parts, func(_, _ int, _ formats.Partition) error {
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
	want, err := FixedRT(3).SelectAuto(col, bitutil.CmpLt, 40, columns.DeltaBPDesc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RT(context.Background(), NewBudget(3), nil, 3).SelectAuto(col, bitutil.CmpLt, 40, columns.DeltaBPDesc)
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
	_, err = RT(ctx, nil, nil, 2).SelectAuto(col, bitutil.CmpEq, 0, columns.DeltaBPDesc)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
