package ops

import (
	"context"
	"testing"

	"morphstore/internal/bitutil"
	"morphstore/internal/columns"
	"morphstore/internal/formats"
	"morphstore/internal/metrics"
	"morphstore/internal/vector"
)

// TestLeaseObserved: the per-lease observer fires on the initial grant and on
// every re-division that changes the limit — and only on changes.
func TestLeaseObserved(t *testing.T) {
	b := NewBudget(8)
	var history []int
	l1 := b.LeaseObserved(8, func(limit int) { history = append(history, limit) })
	if len(history) != 1 || history[0] != 8 {
		t.Fatalf("after grant, history = %v, want [8]", history)
	}
	l2 := b.Lease(8) // halves l1's share: observer fires with 4
	if len(history) != 2 || history[1] != 4 {
		t.Fatalf("after sibling grant, history = %v, want [8 4]", history)
	}
	l2.Shrink(1) // frees the surplus: observer fires with 7
	if len(history) != 3 || history[2] != 7 {
		t.Fatalf("after sibling shrink, history = %v, want [8 4 7]", history)
	}
	l2.Close() // lone lease again: observer fires with 8
	if len(history) != 4 || history[3] != 8 {
		t.Fatalf("after sibling close, history = %v, want [8 4 7 8]", history)
	}
	l1.Close() // closing the observed lease itself does not fire the observer
	if len(history) != 4 {
		t.Fatalf("close of the observed lease fired its observer: %v", history)
	}
}

// TestBudgetTelemetry: the telemetry sink receives one typed event per lease
// grant, effective shrink, and release; a no-op Shrink emits nothing; nil
// detaches the sink.
func TestBudgetTelemetry(t *testing.T) {
	b := NewBudget(4)
	var events []BudgetEvent
	b.SetTelemetry(func(ev BudgetEvent) { events = append(events, ev) })

	l := b.Lease(4)
	l.Shrink(2)
	l.Shrink(3) // not a shrink (3 > current cap 2): no event
	l.Close()

	want := []struct {
		kind   BudgetEventKind
		cap    int
		limit  int
		leases int
	}{
		{BudgetGrant, 4, 4, 1},
		{BudgetShrink, 2, 2, 1},
		{BudgetRelease, 0, 0, 0},
	}
	if len(events) != len(want) {
		t.Fatalf("got %d events %+v, want %d", len(events), events, len(want))
	}
	for i, w := range want {
		ev := events[i]
		if ev.Kind != w.kind || ev.Cap != w.cap || ev.Limit != w.limit || ev.Leases != w.leases {
			t.Fatalf("event %d = %+v, want kind=%v cap=%d limit=%d leases=%d",
				i, ev, w.kind, w.cap, w.limit, w.leases)
		}
		if ev.Lease != events[0].Lease {
			t.Fatalf("event %d carries lease id %d, want %d", i, ev.Lease, events[0].Lease)
		}
	}

	b.SetTelemetry(nil)
	b.Lease(2).Close()
	if len(events) != len(want) {
		t.Fatalf("detached sink still received events: %+v", events[len(want):])
	}
}

// TestBudgetEventKindString covers the telemetry kind names.
func TestBudgetEventKindString(t *testing.T) {
	for kind, want := range map[BudgetEventKind]string{
		BudgetGrant:         "grant",
		BudgetShrink:        "shrink",
		BudgetRelease:       "release",
		BudgetEventKind(99): "unknown",
	} {
		if got := kind.String(); got != want {
			t.Fatalf("BudgetEventKind(%d).String() = %q, want %q", kind, got, want)
		}
	}
}

// TestRunPartsRecordsShards: with a collector attached, runParts books every
// claimed morsel with a positive kernel timing into the worker's shard.
func TestRunPartsRecordsShards(t *testing.T) {
	c := metrics.NewCollector(1, nil)
	c.Define(0, "v", "select", nil)
	nc := c.Node(0)
	nc.Begin(0)

	parts := make([]formats.Partition, 16)
	for i := range parts {
		parts[i] = formats.Partition{Start: i * 512, Count: 512}
	}
	rt := RT(context.Background(), nil, 4).WithCollector(nc)
	if err := rt.runParts(parts, func(_, _ int, _ formats.Partition) error { return nil }); err != nil {
		t.Fatal(err)
	}
	nc.Finish(0, nil, nil)

	ns := c.Finish(nil).Nodes[0]
	if ns.Morsels != int64(len(parts)) {
		t.Fatalf("recorded %d morsels, want %d", ns.Morsels, len(parts))
	}
	if ns.Kernel <= 0 {
		t.Fatalf("kernel time %v not positive", ns.Kernel)
	}
	if ns.Workers < 1 || ns.Workers > 4 {
		t.Fatalf("workers = %d, want within [1,4]", ns.Workers)
	}
}

// TestCollectedSelectByteIdentical: an operator run with a collector attached
// produces a column byte-identical to the same run detached — collection is
// observation only.
func TestCollectedSelectByteIdentical(t *testing.T) {
	n := 8 * 512
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = uint64((i * 31) % 211)
	}
	col, err := formats.Compress(vals, columns.DynBPDesc)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := RT(context.Background(), nil, 4).
		SelectAuto(col, bitutil.CmpLt, 100, columns.DeltaBPDesc, vector.Vec512, false)
	if err != nil {
		t.Fatal(err)
	}
	c := metrics.NewCollector(1, nil)
	c.Define(0, "v", "select", nil)
	nc := c.Node(0)
	nc.Begin(int64(col.N()))
	collected, err := RT(context.Background(), nil, 4).WithCollector(nc).
		SelectAuto(col, bitutil.CmpLt, 100, columns.DeltaBPDesc, vector.Vec512, false)
	if err != nil {
		t.Fatal(err)
	}
	nc.Finish(int64(collected.N()), nil, nil)
	if collected.N() != plain.N() || len(collected.Words()) != len(plain.Words()) {
		t.Fatalf("shape mismatch: %d/%d vs %d/%d",
			collected.N(), len(collected.Words()), plain.N(), len(plain.Words()))
	}
	for i, w := range plain.Words() {
		if collected.Words()[i] != w {
			t.Fatalf("word %d differs between collected and detached runs", i)
		}
	}
	if ns := c.Finish(nil).Nodes[0]; ns.Morsels == 0 {
		t.Fatal("parallel collected run recorded no morsels")
	}
}
