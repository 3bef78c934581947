// Ingest: the write path end to end — streaming appends into a compressed
// table, retention deletes, snapshot-consistent reads, and remorph.
//
// A log-events table (sorted timestamps, run-heavy severity levels,
// low-cardinality payload sizes) is loaded frozen, then grown through
// Engine.Append in batches while a fixed analytical query — "sum of bytes
// shipped by error-level events" — runs between batches. Deletes trim the
// oldest rows like a retention job. Every mutation lands in the table's
// uncompressed delta; Engine.Remorph folds it back into a freshly
// compressed main (formats re-picked by the cost model) without blocking
// readers, and Engine.Stats shows the delta draining.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	ms "morphstore"
)

// eventRows synthesizes n log events starting at timestamp t0.
func eventRows(rng *rand.Rand, t0 uint64, n int) (map[string][]uint64, uint64) {
	ts := make([]uint64, n)
	level := make([]uint64, n)
	bytes := make([]uint64, n)
	cur := uint64(0)
	for i := range ts {
		t0 += uint64(rng.Intn(8))
		ts[i] = t0
		if rng.Float64() < 0.002 {
			cur = uint64(rng.Intn(4)) // 0 debug .. 3 error
		}
		level[i] = cur
		bytes[i] = 64 + uint64(rng.Intn(1400))
	}
	return map[string][]uint64{"ts": ts, "level": level, "bytes": bytes}, t0
}

func main() {
	const base = 400_000
	rng := rand.New(rand.NewSource(7))
	ctx := context.Background()

	rows, t0 := eventRows(rng, 1_700_000_000, base)
	db := ms.NewDB()
	if err := db.AddTable("events", rows); err != nil {
		log.Fatal(err)
	}

	// The background worker folds once the delta reaches 25% of the main;
	// this run also folds explicitly so the output is deterministic.
	eng := ms.NewEngine(db,
		ms.WithParallelism(4),
		ms.WithRemorph(0.25, 50*time.Millisecond))
	defer eng.Close(ctx)

	b := ms.NewPlanBuilder()
	lv := b.Scan("events", "level")
	by := b.Scan("events", "bytes")
	errs := b.Select("errs", lv, ms.CmpEq, 3)
	b.Result(b.SumWhole("total", b.Project("err_bytes", by, errs)))
	plan, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	q, err := eng.Prepare(plan, ms.WithCostBasedFormats())
	if err != nil {
		log.Fatal(err)
	}
	query := func() uint64 {
		res, err := q.Execute(ctx)
		if err != nil {
			log.Fatal(err)
		}
		vals, err := ms.Decompress(res.Cols["total"])
		if err != nil {
			log.Fatal(err)
		}
		return vals[0]
	}

	fmt.Println("== streaming appends, retention deletes, snapshot reads ==")
	for batch := 1; batch <= 4; batch++ {
		var chunk map[string][]uint64
		chunk, t0 = eventRows(rng, t0, 30_000)
		if err := eng.Append(ctx, "events", chunk); err != nil {
			log.Fatal(err)
		}
		// Retention: drop the 5000 oldest live rows (positions 0..4999).
		old := make([]uint64, 5000)
		for i := range old {
			old[i] = uint64(i)
		}
		if err := eng.Delete(ctx, "events", old); err != nil {
			log.Fatal(err)
		}
		snap := eng.Snapshot()
		n, _ := snap.Rows("events")
		fmt.Printf("  batch %d: epoch %3d, %7d live rows, err_bytes = %d\n",
			batch, snap.Epoch("events"), n, query())
	}

	st := eng.Stats()
	fmt.Printf("\n== delta before the fold ==\n")
	fmt.Printf("  appends %d (%d rows), deletes %d (%d rows); delta holds %d rows, %d pending deletions, %d B\n",
		st.Appends, st.AppendedRows, st.Deletes, st.DeletedRows,
		st.DeltaRows, st.DeltaDeleted, st.DeltaBytes)

	// Fold now: rescan live rows, re-pick formats, swap. Readers admitted
	// before the swap finish on their pinned snapshots.
	before := query()
	if err := eng.Remorph(ctx, "events"); err != nil {
		log.Fatal(err)
	}
	st = eng.Stats()
	n, _ := eng.Snapshot().Rows("events")
	fmt.Printf("\n== after remorph ==\n")
	fmt.Printf("  remorphs %d (failures %d, %d rows written across folds), main now %d rows; delta holds %d rows, %d B\n",
		st.Remorphs, st.RemorphFailures, st.RemorphRows, n, st.DeltaRows, st.DeltaBytes)
	fmt.Printf("  err_bytes before fold = %d, after = %d, agree: %v\n",
		before, query(), before == query())
}
