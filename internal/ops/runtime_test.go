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
	"morphstore/internal/vector"
)

func limits(ls ...*Lease) []int {
	out := make([]int, len(ls))
	for i, l := range ls {
		out[i] = l.Limit()
	}
	return out
}

func TestBudgetDivisionDeterministic(t *testing.T) {
	b := NewBudget(8)
	if b.Total() != 8 {
		t.Fatalf("total = %d, want 8", b.Total())
	}
	l1 := b.Lease(8)
	if got := limits(l1); got[0] != 8 {
		t.Fatalf("lone lease limit = %v, want [8]", got)
	}
	l2 := b.Lease(8)
	if got := limits(l1, l2); got[0] != 4 || got[1] != 4 {
		t.Fatalf("two leases = %v, want [4 4]", got)
	}
	l3 := b.Lease(8)
	// Ceil division serves the earliest lease first: 3+3+2.
	if got := limits(l1, l2, l3); got[0]+got[1]+got[2] != 8 || got[0] < got[2] {
		t.Fatalf("three leases = %v, want a deterministic 3/3/2 split", got)
	}
	l2.Close()
	if got := limits(l1, l3); got[0] != 4 || got[1] != 4 {
		t.Fatalf("after close = %v, want [4 4]", got)
	}
	l1.Close()
	if got := limits(l3); got[0] != 8 {
		t.Fatalf("survivor = %v, want [8]", got)
	}
	l3.Close()
}

// TestBudgetCappedLeases: a sequential operator (cap 1) must not strand its
// unusable share — the surplus flows to the parallel siblings.
func TestBudgetCappedLeases(t *testing.T) {
	b := NewBudget(8)
	seq := b.Lease(1)
	par := b.Lease(8)
	if got := limits(seq, par); got[0] != 1 || got[1] != 7 {
		t.Fatalf("capped division = %v, want [1 7]", got)
	}
	seq.Close()
	par.Close()
}

// TestBudgetShrink: an operator that falls back to sequential execution
// shrinks its lease to one worker and the freed share flows to siblings
// immediately (the seqFallback path of the parallel drivers).
func TestBudgetShrink(t *testing.T) {
	b := NewBudget(8)
	fallback := b.Lease(8)
	par := b.Lease(8)
	if got := limits(fallback, par); got[0] != 4 || got[1] != 4 {
		t.Fatalf("pre-shrink = %v, want [4 4]", got)
	}
	fallback.Shrink(1)
	if got := limits(fallback, par); got[0] != 1 || got[1] != 7 {
		t.Fatalf("post-shrink = %v, want [1 7]", got)
	}
	fallback.Shrink(5) // shrink never raises the cap
	if got := limits(fallback, par); got[0] != 1 || got[1] != 7 {
		t.Fatalf("raise attempt = %v, want [1 7]", got)
	}
	fallback.Close()
	par.Close()
}

// TestBudgetMinimumOne: more operators than slots still make progress.
func TestBudgetMinimumOne(t *testing.T) {
	b := NewBudget(2)
	var ls []*Lease
	for i := 0; i < 5; i++ {
		ls = append(ls, b.Lease(4))
	}
	for i, l := range ls {
		if l.Limit() < 1 {
			t.Fatalf("lease %d limit %d, want >= 1", i, l.Limit())
		}
	}
	for _, l := range ls {
		l.Close()
	}
}

// TestBudgetRedividesOnClose is the regression test for the documented
// overshoot wart: a worker blocked on its operator's exhausted share must be
// released the moment a sibling operator finishes, instead of the survivor
// keeping its initial share.
func TestBudgetRedividesOnClose(t *testing.T) {
	b := NewBudget(2)
	survivor := b.Lease(2)
	sibling := b.Lease(2)
	if survivor.Limit() != 1 {
		t.Fatalf("survivor limit = %d, want 1 while sibling runs", survivor.Limit())
	}
	if !survivor.acquire(context.Background()) {
		t.Fatal("first acquire should not block")
	}
	second := make(chan struct{})
	go func() {
		survivor.acquire(context.Background()) // blocks: limit 1, inUse 1
		close(second)
	}()
	select {
	case <-second:
		t.Fatal("second acquire succeeded before the sibling finished")
	case <-time.After(20 * time.Millisecond):
	}
	sibling.Close() // survivor's share grows to 2 and wakes the waiter
	select {
	case <-second:
	case <-time.After(2 * time.Second):
		t.Fatal("second acquire not woken by the sibling's release")
	}
	survivor.release()
	survivor.release()
	survivor.Close()
}

// TestBudgetAcquireCancelled: a waiter blocked on an exhausted lease returns
// false once the context is cancelled and a slot release wakes it.
func TestBudgetAcquireCancelled(t *testing.T) {
	b := NewBudget(1)
	l := b.Lease(2)
	if !l.acquire(context.Background()) {
		t.Fatal("first acquire should succeed")
	}
	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan bool, 1)
	go func() { got <- l.acquire(ctx) }()
	time.Sleep(10 * time.Millisecond)
	cancel()
	l.release() // wakes the waiter, which must observe the cancellation
	select {
	case ok := <-got:
		if ok {
			t.Fatal("acquire returned true after cancellation")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled acquire did not return")
	}
	l.Close()
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
// byte-identical to a fixed-width runtime's while gated by a shared
// budget lease.
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
	want, err := FixedRT(3).SelectAuto(col, bitutil.CmpLt, 40, columns.DeltaBPDesc, vector.Vec512, false)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBudget(3)
	lease := b.Lease(3)
	defer lease.Close()
	got, err := RT(context.Background(), lease, 3).SelectAuto(col, bitutil.CmpLt, 40, columns.DeltaBPDesc, vector.Vec512, false)
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
	_, err = RT(ctx, nil, 2).SelectAuto(col, bitutil.CmpEq, 0, columns.DeltaBPDesc, vector.Scalar, false)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
