// Quickstart: compress a column, compare formats, morph between them, and
// run compression-enabled operators — the smallest end-to-end tour of the
// MorphStore-Go public API.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	ms "morphstore"
)

func main() {
	// A column of one million small integers with a few huge outliers:
	// the data shape where block-adaptive compression shines.
	rng := rand.New(rand.NewSource(1))
	vals := make([]uint64, 1_000_000)
	for i := range vals {
		if i%5000 == 0 {
			vals[i] = 1 << 60
		} else {
			vals[i] = uint64(rng.Intn(1000))
		}
	}

	fmt.Println("== Compressing one column in every format ==")
	uncompressedBytes := 0
	for _, desc := range ms.AllFormats() {
		col, err := ms.Compress(vals, desc)
		if err != nil {
			log.Fatal(err)
		}
		if desc == ms.Uncompressed {
			uncompressedBytes = col.PhysicalBytes()
		}
		fmt.Printf("  %-12v %10d B  (%.1f%% of uncompressed)\n",
			desc, col.PhysicalBytes(),
			100*float64(col.PhysicalBytes())/float64(uncompressedBytes))
	}

	fmt.Println("\n== Asking the cost model which format to use ==")
	prof := ms.Analyze(vals)
	suggested, err := ms.SuggestFormat(prof, ms.Formats())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  data: n=%d, max %d bits, sorted=%v, %.1f avg run length\n",
		prof.N, prof.MaxBits, prof.Sorted, prof.AvgRunLength())
	fmt.Printf("  suggested format: %v\n", suggested)

	col, err := ms.Compress(vals, suggested)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\n== Morphing between formats (no uncompressed detour) ==")
	asStatic, err := ms.Morph(col, ms.StaticBP)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %v (%d B)  ->  %v (%d B)\n",
		col.Desc(), col.PhysicalBytes(), asStatic.Desc(), asStatic.PhysicalBytes())

	fmt.Println("\n== Compression-enabled operators through the engine ==")
	// One engine owns the worker budget; every one-off operator call runs
	// under it. Select directly produces a *compressed* sorted position
	// list: positions are sorted, so DELTA+BP is the natural choice.
	ctx := context.Background()
	eng := ms.NewEngine(nil)
	pos, err := eng.Select(ctx, col, ms.CmpLt, 100, ms.WithOutput(ms.DeltaBP))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  select(v < 100): %d matches, positions stored as %v in %d B\n",
		pos.N(), pos.Desc(), pos.PhysicalBytes())

	// Project gathers the matching values (random access needs StaticBP).
	vcol, err := eng.Project(ctx, asStatic, pos, ms.WithOutput(ms.DynBP))
	if err != nil {
		log.Fatal(err)
	}
	total, err := eng.Sum(ctx, vcol)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  sum(project(v, positions)) = %d\n", total)

	// The same pipeline fully uncompressed gives the same answer.
	ucol := ms.FromValues(vals)
	upos, err := eng.Select(ctx, ucol, ms.CmpLt, 100)
	if err != nil {
		log.Fatal(err)
	}
	uvals, err := eng.Project(ctx, ucol, upos)
	if err != nil {
		log.Fatal(err)
	}
	utotal, err := eng.Sum(ctx, uvals)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  uncompressed pipeline agrees: %v\n", total == utotal)
}
