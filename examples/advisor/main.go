// Advisor: a compression-format advisor built on the gray-box cost model.
// It analyzes columns with very different data characteristics, asks the
// model for a format recommendation, verifies the recommendation against
// the actual compressed sizes of every format, and proves the recommended
// column is directly queryable by aggregating it through the engine in its
// compressed form.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"sort"

	ms "morphstore"
)

type workload struct {
	name string
	vals []uint64
}

type entry struct {
	desc   ms.FormatDesc
	actual int
	est    int
}

func makeWorkloads() []workload {
	rng := rand.New(rand.NewSource(7))
	n := 1 << 20

	small := make([]uint64, n)
	for i := range small {
		small[i] = uint64(rng.Intn(100))
	}

	outliers := make([]uint64, n)
	for i := range outliers {
		if rng.Float64() < 0.0005 {
			outliers[i] = 1<<62 + uint64(rng.Intn(1000))
		} else {
			outliers[i] = uint64(rng.Intn(100))
		}
	}

	hugeNarrow := make([]uint64, n)
	for i := range hugeNarrow {
		hugeNarrow[i] = 1<<55 + uint64(rng.Intn(4096))
	}

	sortedIDs := make([]uint64, n)
	acc := uint64(1_000_000_000)
	for i := range sortedIDs {
		acc += uint64(1 + rng.Intn(50))
		sortedIDs[i] = acc
	}

	status := make([]uint64, n)
	cur := uint64(0)
	for i := range status {
		if rng.Float64() < 0.001 {
			cur = uint64(rng.Intn(5))
		}
		status[i] = cur
	}

	return []workload{
		{"small values (dictionary codes)", small},
		{"small values with rare outliers", outliers},
		{"huge values, narrow range (pointers)", hugeNarrow},
		{"sorted identifiers (positions)", sortedIDs},
		{"long runs (status flags)", status},
	}
}

func main() {
	// One engine runs the verification queries; specialized kernels work
	// directly on the compressed representation where the format has one.
	eng := ms.NewEngine(nil, ms.WithSpecialized(true))
	ctx := context.Background()
	for _, w := range makeWorkloads() {
		prof := ms.Analyze(w.vals)
		rec, err := ms.SuggestFormat(prof, ms.AllFormats())
		if err != nil {
			log.Fatal(err)
		}

		fmt.Printf("== %s ==\n", w.name)
		fmt.Printf("   n=%d  maxbits=%d  sorted=%v  runs=%d\n",
			prof.N, prof.MaxBits, prof.Sorted, prof.Runs)

		var entries []entry
		for _, d := range ms.AllFormats() {
			col, err := ms.Compress(w.vals, d)
			if err != nil {
				log.Fatal(err)
			}
			est, err := ms.EstimateBytes(prof, d)
			if err != nil {
				log.Fatal(err)
			}
			entries = append(entries, entry{d, col.PhysicalBytes(), est})
		}
		sort.Slice(entries, func(i, j int) bool { return entries[i].actual < entries[j].actual })

		for rank, e := range entries {
			marker := "  "
			if e.desc == rec {
				marker = "=>"
			}
			fmt.Printf(" %s #%d %-12v actual %9d B   estimated %9d B\n",
				marker, rank+1, e.desc, e.actual, e.est)
		}
		if entries[0].desc == rec {
			fmt.Println("   advisor picked the true optimum")
		} else {
			loss := float64(findActual(entries, rec))/float64(entries[0].actual) - 1
			fmt.Printf("   advisor within %.1f%% of the true optimum\n", 100*loss)
		}

		// The recommended column is directly queryable: sum it through the
		// engine in compressed form and compare with the raw values.
		recCol, err := ms.Compress(w.vals, rec)
		if err != nil {
			log.Fatal(err)
		}
		got, err := eng.Sum(ctx, recCol)
		if err != nil {
			log.Fatal(err)
		}
		var want uint64
		for _, v := range w.vals {
			want += v
		}
		fmt.Printf("   engine sum over %v column agrees with raw data: %v\n", rec, got == want)
		fmt.Println()
	}
}

func findActual(entries []entry, d ms.FormatDesc) int {
	for _, e := range entries {
		if e.desc == d {
			return e.actual
		}
	}
	return 0
}
