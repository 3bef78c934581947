// SSB: run the 13 Star Schema Benchmark queries under different format
// configurations and compare runtime and memory footprint — the experiment
// at the heart of the MorphStore paper, as an example program.
//
// Usage: go run ./examples/ssb [-sf 0.01]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	ms "morphstore"
)

func main() {
	sf := flag.Float64("sf", 0.01, "SSB scale factor (1.0 = 6M lineorder rows)")
	flag.Parse()

	fmt.Printf("generating SSB data at SF %g ...\n", *sf)
	data, err := ms.GenerateSSB(*sf, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %d lineorder rows, %d customers, %d suppliers, %d parts, %d dates\n\n",
		data.Lineorder, data.Customers, data.Suppliers, data.Parts, data.Dates)

	fmt.Printf("%-6s %14s %14s %14s %12s %12s\n",
		"query", "uncompr [ms]", "compr [ms]", "speedup", "uncompr [MB]", "compr [MB]")

	// Both engines pin the worker budget to 1 so the printed per-operator
	// runtime comparison stays the sequential operator-at-a-time
	// measurement on any host.
	ctx := context.Background()
	engU := ms.NewEngine(data.DB, ms.WithParallelism(1))

	var totU, totC float64
	for _, q := range ms.SSBQueries {
		plan, err := ms.BuildSSBPlan(q, data)
		if err != nil {
			log.Fatal(err)
		}

		// Uncompressed.
		qU, err := engU.Prepare(plan)
		if err != nil {
			log.Fatal(err)
		}
		resU, err := qU.Execute(ctx)
		if err != nil {
			log.Fatal(err)
		}

		// Continuous compression: cost-model-selected formats for base
		// columns and all intermediates.
		assign, err := ms.CostBasedAssignment(plan, data.DB)
		if err != nil {
			log.Fatal(err)
		}
		encoded, err := data.DB.Encode(assign.Base)
		if err != nil {
			log.Fatal(err)
		}
		engC := ms.NewEngine(encoded, ms.WithParallelism(1))
		qC, err := engC.Prepare(plan, ms.WithFormats(assign.Inter), ms.WithSpecialized(true))
		if err != nil {
			log.Fatal(err)
		}
		resC, err := qC.Execute(ctx)
		if err != nil {
			log.Fatal(err)
		}

		// Both must agree with the row-wise reference.
		want, err := ms.SSBReference(q, data)
		if err != nil {
			log.Fatal(err)
		}
		gotU, err := ms.ExtractSSBResult(q, resU)
		if err != nil {
			log.Fatal(err)
		}
		gotC, err := ms.ExtractSSBResult(q, resC)
		if err != nil {
			log.Fatal(err)
		}
		if !rowsEqual(gotU, want) || !rowsEqual(gotC, want) {
			log.Fatalf("query %s: engines disagree with reference", q)
		}

		u := float64(resU.Meas.Runtime.Microseconds()) / 1000
		c := float64(resC.Meas.Runtime.Microseconds()) / 1000
		totU += u
		totC += c
		fmt.Printf("%-6s %14.2f %14.2f %13.2fx %12.2f %12.2f\n",
			q, u, c, u/c,
			float64(resU.Meas.Footprint())/(1<<20),
			float64(resC.Meas.Footprint())/(1<<20))
	}
	fmt.Printf("\naverage runtime: uncompressed %.2f ms, compressed %.2f ms (%.2fx)\n",
		totU/13, totC/13, totU/totC)
}

func rowsEqual(a, b []ms.SSBRow) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Sum != b[i].Sum {
			return false
		}
		for k := range a[i].Keys {
			if a[i].Keys[k] != b[i].Keys[k] {
				return false
			}
		}
	}
	return true
}
