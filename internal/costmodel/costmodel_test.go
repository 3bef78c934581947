package costmodel

import (
	"testing"

	"morphstore/internal/columns"
	"morphstore/internal/datagen"
	"morphstore/internal/formats"
	"morphstore/internal/stats"
)

// TestEstimateAccuracy verifies the analytic size estimates stay within a
// reasonable band of the actual compressed sizes on the Table 1 columns.
func TestEstimateAccuracy(t *testing.T) {
	n := 1 << 17
	for _, id := range datagen.All {
		vals := datagen.Generate(id, n, 3)
		prof := stats.Collect(vals)
		for _, desc := range formats.AllDescs() {
			col, err := formats.Compress(vals, desc)
			if err != nil {
				t.Fatal(err)
			}
			actual := col.PhysicalBytes()
			est, err := EstimateBytes(prof, desc)
			if err != nil {
				t.Fatal(err)
			}
			ratio := float64(est) / float64(actual)
			// The gray-box model works from compact histograms; allow a
			// factor-2 band (the selection only needs correct ordering).
			if ratio < 0.5 || ratio > 2.0 {
				t.Errorf("%v/%v: estimate %d vs actual %d (ratio %.2f)",
					id, desc, est, actual, ratio)
			}
		}
	}
}

// TestChooseBySizePicksPaperWinners checks the model reproduces the format
// preferences the paper reports for the Table 1 columns (§5.1): C1 likes
// small fixed widths, C2 needs block adaptivity, C3 frame-of-reference,
// C4 delta coding.
func TestChooseBySizePicksPaperWinners(t *testing.T) {
	n := 1 << 17
	expect := map[datagen.ColumnID][]columns.Kind{
		datagen.C1: {columns.StaticBP, columns.DynBP}, // 6-bit everywhere: either is fine
		datagen.C2: {columns.DynBP},
		datagen.C3: {columns.ForBP},
		datagen.C4: {columns.DeltaBP},
	}
	for _, id := range datagen.All {
		vals := datagen.Generate(id, n, 4)
		prof := stats.Collect(vals)
		got, err := ChooseBySize(prof, formats.PaperDescs())
		if err != nil {
			t.Fatal(err)
		}
		ok := false
		for _, want := range expect[id] {
			if got.Kind == want {
				ok = true
			}
		}
		if !ok {
			t.Errorf("%v: chose %v, want one of %v", id, got, expect[id])
		}
		// The chosen format must actually be within 15% of the true best.
		bestSize := -1
		chosenSize := 0
		for _, d := range formats.PaperDescs() {
			col, err := formats.Compress(vals, d)
			if err != nil {
				t.Fatal(err)
			}
			s := col.PhysicalBytes()
			if bestSize < 0 || s < bestSize {
				bestSize = s
			}
			if d.Kind == got.Kind {
				chosenSize = s
			}
		}
		if float64(chosenSize) > 1.15*float64(bestSize) {
			t.Errorf("%v: chosen format %v is %d B, optimum %d B",
				id, got, chosenSize, bestSize)
		}
	}
}

func TestChooseBySizeSortedPositions(t *testing.T) {
	// A 90%-selectivity sorted position list: DELTA+BP must win, as the
	// paper observes for all select outputs.
	pos := make([]uint64, 0, 90000)
	for i := uint64(0); i < 100000; i++ {
		if i%10 != 0 {
			pos = append(pos, i)
		}
	}
	prof := stats.Collect(pos)
	got, err := ChooseBySize(prof, formats.PaperDescs())
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != columns.DeltaBP {
		t.Errorf("sorted positions: chose %v, want delta+bp", got)
	}
}

func TestChooseBySizeRLEWhenRuns(t *testing.T) {
	vals := make([]uint64, 100000)
	for i := range vals {
		vals[i] = uint64(i / 5000) // 20 long runs
	}
	prof := stats.Collect(vals)
	got, err := ChooseBySize(prof, formats.AllDescs())
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != columns.RLE {
		t.Errorf("run data: chose %v, want rle", got)
	}
}

func TestEstimateEmptyAndErrors(t *testing.T) {
	prof := stats.Collect(nil)
	for _, desc := range formats.AllDescs() {
		est, err := EstimateBytes(prof, desc)
		if err != nil {
			t.Fatal(err)
		}
		if est != columns.MetadataBytes {
			t.Errorf("%v: empty estimate %d", desc, est)
		}
	}
	if _, err := EstimateBytes(prof, columns.FormatDesc{Kind: columns.Kind(99)}); err == nil {
		t.Error("unknown kind must fail")
	}
	if _, err := ChooseBySize(prof, nil); err == nil {
		t.Error("empty candidates must fail")
	}
	// N == 0: every estimate is the metadata and the tie keeps the first
	// candidate, so the paper's formats pick uncompressed.
	if d, err := ChooseBySize(prof, formats.PaperDescs()); err != nil || d != columns.UncomprDesc {
		t.Errorf("empty column: chose %v (err %v), want %v", d, err, columns.UncomprDesc)
	}
}
