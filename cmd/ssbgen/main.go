// Command ssbgen generates an SSB instance and reports per-column data
// characteristics together with the cost model's format recommendation —
// a quick way to inspect what the compression-aware optimizer sees.
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"

	"morphstore/internal/costmodel"
	"morphstore/internal/formats"
	"morphstore/internal/ssb"
	"morphstore/internal/stats"
)

func main() {
	sf := flag.Float64("sf", 0.01, "scale factor (1.0 = 6M lineorder rows)")
	seed := flag.Int64("seed", 42, "generator seed")
	flag.Parse()

	d, err := ssb.Generate(*sf, *seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SSB at SF %g: %d lineorder, %d customers, %d suppliers, %d parts, %d dates\n",
		*sf, d.Lineorder, d.Customers, d.Suppliers, d.Parts, d.Dates)

	tables := make([]string, 0, len(d.DB.Tables))
	for tn := range d.DB.Tables {
		tables = append(tables, tn)
	}
	sort.Strings(tables)
	for _, tn := range tables {
		t := d.DB.Tables[tn]
		cols := make([]string, 0, len(t.Cols))
		for cn := range t.Cols {
			cols = append(cols, cn)
		}
		sort.Strings(cols)
		fmt.Printf("\n%s (%d rows)\n", tn, t.Cols[cols[0]].N())
		fmt.Printf("  %-18s %8s %7s %7s %-12s %9s\n",
			"column", "maxbits", "sorted", "runs%", "suggested", "rate")
		for _, cn := range cols {
			vals, _ := t.Cols[cn].Values()
			p := stats.Collect(vals)
			rec, err := costmodel.ChooseBySize(p, formats.AllDescs())
			if err != nil {
				log.Fatal(err)
			}
			col, err := formats.Compress(vals, rec)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %-18s %8d %7v %6.1f%% %-12v %8.1f%%\n",
				cn, p.MaxBits, p.Sorted, 100*float64(p.Runs)/float64(max(p.N, 1)),
				rec, 100*col.CompressionRate())
		}
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
