package ops

import (
	"context"
	"testing"

	"morphstore/internal/bitutil"
	"morphstore/internal/columns"
	"morphstore/internal/formats"
	"morphstore/internal/metrics"
)

// TestRunPartsRecordsShards: with a collector attached, runParts books every
// claimed morsel with a positive kernel timing into the worker's shard.
func TestRunPartsRecordsShards(t *testing.T) {
	c := metrics.NewCollectorFor(metrics.ReserveQueryID(), 1, nil)
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
		SelectAuto(col, bitutil.CmpLt, 100, columns.DeltaBPDesc)
	if err != nil {
		t.Fatal(err)
	}
	c := metrics.NewCollectorFor(metrics.ReserveQueryID(), 1, nil)
	c.Define(0, "v", "select", nil)
	nc := c.Node(0)
	nc.Begin(int64(col.N()))
	collected, err := RT(context.Background(), nil, 4).WithCollector(nc).
		SelectAuto(col, bitutil.CmpLt, 100, columns.DeltaBPDesc)
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
