package delta

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"morphstore/internal/columns"
)

// TestMergeAllocation pins what building a merged view allocates over a
// 1 Mi-row static BP or DynBP main with a 4,096-row tail: with no deletions
// at most 1.05× the merged column's words (the main's words are copied, not
// decoded), with 1,000 pending deletions at most 1.05× the live rows' bytes
// plus the merged column's words (the main decoded once, straight into the
// slice the deletions are compacted out of, and the live rows compressed
// once).
func TestMergeAllocation(t *testing.T) {
	const n, tailRows, deletions = 1 << 20, 4096, 1000
	rng := rand.New(rand.NewSource(37))
	base := make([]uint64, n)
	for i := range base {
		base[i] = uint64(rng.Intn(1 << 13))
	}
	tail := seq(0, tailRows)
	for _, d := range []columns.FormatDesc{columns.StaticBPDesc(13), columns.DynBPDesc} {
		for _, del := range []int{0, deletions} {
			t.Run(fmt.Sprintf("%v/deleted=%d", d, del), func(t *testing.T) {
				tab, err := NewTable("t", map[string]*columns.Column{"v": compress(t, base, d)})
				if err != nil {
					t.Fatal(err)
				}
				if _, _, err := tab.Append(map[string][]uint64{"v": tail}); err != nil {
					t.Fatal(err)
				}
				positions := make([]uint64, del)
				for i := range positions {
					positions[i] = uint64(rng.Intn(n + tailRows - del))
				}
				if _, _, err := tab.Delete(positions); err != nil {
					t.Fatal(err)
				}
				s := tab.State()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				col, err := s.Column("v")
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				if col.N() != s.Rows() || col.Desc().Kind != d.Kind {
					t.Fatalf("merged view holds %d rows in %v, want the %d live rows in %v", col.N(), col.Desc(), s.Rows(), d)
				}
				got, out, live := after.TotalAlloc-before.TotalAlloc, uint64(8*len(col.Words())), uint64(8*s.Rows())
				budget := out
				if del > 0 {
					budget += live
				}
				t.Logf("allocated %d B for %d B of merged words and %d B of live values (%.3f× the budget of %d B)",
					got, out, live, float64(got)/float64(budget), budget)
				if float64(got) > 1.05*float64(budget) {
					t.Fatalf("the merge allocated %d B, more than 1.05× its budget of %d B", got, budget)
				}
			})
		}
	}
}

// TestAppendAllocation pins that an append stores its rows once, in the
// tail: one ingest mix remorph period (eight 8,000-row appends of three
// columns onto a fresh table) allocates at most 2.5× the appended bytes. What
// remains is the tail's geometric growth (4.02× when the tail was sized to
// each batch and reallocated on 7 of the 8, 9.4× when each batch was also
// encoded into a mutation journal).
func TestAppendAllocation(t *testing.T) {
	const batches, rows = 8, 8000
	cols := []string{"a", "b", "c"}
	main := make(map[string]*columns.Column, len(cols))
	for _, cn := range cols {
		main[cn] = columns.FromValues(seq(0, 1000))
	}
	tab, err := NewTable("t", main)
	if err != nil {
		t.Fatal(err)
	}
	input := make([]map[string][]uint64, batches)
	for b := range input {
		input[b] = make(map[string][]uint64, len(cols))
		for i, cn := range cols {
			input[b][cn] = seq(b*rows+i, rows)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, batch := range input {
		if _, _, err := tab.Append(batch); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if s := tab.State(); s.TailRows() != batches*rows {
		t.Fatalf("tail holds %d rows, want %d", s.TailRows(), batches*rows)
	}
	got, appended := after.TotalAlloc-before.TotalAlloc, uint64(8*batches*rows*len(cols))
	t.Logf("allocated %d B for %d B of appended values (%.2f×)", got, appended, float64(got)/float64(appended))
	if float64(got) > 2.5*float64(appended) {
		t.Fatalf("Append allocated %d B, more than 2.5× the %d B appended", got, appended)
	}
}
