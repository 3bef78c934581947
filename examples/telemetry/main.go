// Telemetry: an IoT-style analytical scenario over sensor readings.
//
// A fleet of sensors produces (timestamp, sensor_id, status, reading) rows.
// The analytical question — "sum of readings of healthy sensors within a
// time window" — runs as an operator-at-a-time plan whose intermediates are
// kept compressed throughout, showing how the format of each intermediate
// follows its own data characteristics: sorted timestamps like DELTA+BP,
// runs of status codes like RLE, position lists like DELTA+BP.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	ms "morphstore"
)

func main() {
	const n = 2_000_000
	rng := rand.New(rand.NewSource(99))

	// Event-time column: monotonically increasing (sorted).
	ts := make([]uint64, n)
	t := uint64(1_700_000_000_000) // epoch millis
	for i := range ts {
		t += uint64(rng.Intn(20))
		ts[i] = t
	}
	// Status: long runs (sensors stay healthy/unhealthy for a while).
	status := make([]uint64, n)
	cur := uint64(0)
	for i := range status {
		if rng.Float64() < 0.0005 {
			cur = uint64(rng.Intn(3)) // 0 healthy, 1 degraded, 2 down
		}
		status[i] = cur
	}
	// Reading: 12-bit ADC values with a large fixed offset.
	reading := make([]uint64, n)
	for i := range reading {
		reading[i] = 1<<40 + uint64(rng.Intn(4096))
	}

	// Let the cost model pick base formats.
	fmt.Println("== base column formats chosen by the cost model ==")
	cols := map[string][]uint64{"ts": ts, "status": status, "reading": reading}
	for name, vals := range cols {
		rec, err := ms.SuggestFormat(ms.Analyze(vals), ms.AllFormats())
		if err != nil {
			log.Fatal(err)
		}
		col, err := ms.Compress(vals, rec)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-8s -> %-12v %9d B (%.1f%% of raw)\n", name, rec,
			col.PhysicalBytes(), 100*float64(col.PhysicalBytes())/float64(8*n))
	}

	// The query as a plan: ts window AND status == healthy, sum readings.
	db := ms.NewDB()
	db.AddTable("telemetry", cols)

	b := ms.NewPlanBuilder()
	tsCol := b.Scan("telemetry", "ts")
	stCol := b.Scan("telemetry", "status")
	rdCol := b.Scan("telemetry", "reading")
	lo, hi := ts[n/4], ts[3*n/4]
	inWindow := b.Between("in_window", tsCol, lo, hi)
	healthy := b.Select("healthy", stCol, ms.CmpEq, 0)
	pos := b.Intersect("pos", inWindow, healthy)
	vals := b.Project("vals", rdCol, pos)
	b.Result(b.SumWhole("total", vals))
	plan, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	// Run uncompressed vs. cost-model-selected continuous compression,
	// pinned to sequential execution (WithParallelism(1)) so the printed
	// runtime comparison is the per-operator measurement on any host.
	ctx := context.Background()
	qU, err := ms.NewEngine(db, ms.WithParallelism(1)).Prepare(plan)
	if err != nil {
		log.Fatal(err)
	}
	resU, err := qU.Execute(ctx)
	if err != nil {
		log.Fatal(err)
	}
	assign, err := ms.CostBasedAssignment(plan, db)
	if err != nil {
		log.Fatal(err)
	}
	encoded, err := db.Encode(assign.Base)
	if err != nil {
		log.Fatal(err)
	}
	qC, err := ms.NewEngine(encoded, ms.WithParallelism(1)).
		Prepare(plan, ms.WithFormats(assign.Inter))
	if err != nil {
		log.Fatal(err)
	}
	resC, err := qC.Execute(ctx)
	if err != nil {
		log.Fatal(err)
	}

	sumU, _ := resU.Cols["total"].Values()
	sumC, _ := resC.Cols["total"].Values()
	fmt.Println("\n== query: SUM(reading) WHERE ts IN window AND status = healthy ==")
	fmt.Printf("  uncompressed: %8.2f ms, %7.2f MB footprint\n",
		float64(resU.Meas.Runtime.Microseconds())/1000,
		float64(resU.Meas.Footprint())/(1<<20))
	fmt.Printf("  compressed:   %8.2f ms, %7.2f MB footprint\n",
		float64(resC.Meas.Runtime.Microseconds())/1000,
		float64(resC.Meas.Footprint())/(1<<20))
	fmt.Printf("  results agree: %v (sum = %d)\n", sumU[0] == sumC[0], sumC[0])

	fmt.Println("\n== formats chosen per intermediate ==")
	for name, desc := range assign.Inter {
		fmt.Printf("  %-12s -> %v\n", name, desc)
	}
}
