package delta

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"morphstore/internal/columns"
)

// TestLiveValuesAllocation pins that the remorph fold decodes a compressed
// main once, straight into its output: LiveValues over a 1 Mi-row static BP
// or DynBP main with a tail, with and without pending deletions, allocates at
// most 1.05× the live rows' bytes (2.00× when it decoded the main into a
// slice of its own and copied that with the tail into a second one).
func TestLiveValuesAllocation(t *testing.T) {
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
				vals, err := s.LiveValues("v")
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				if len(vals) != s.Rows() {
					t.Fatalf("LiveValues returned %d values, want the %d live rows", len(vals), s.Rows())
				}
				got, live := after.TotalAlloc-before.TotalAlloc, uint64(8*s.Rows())
				t.Logf("allocated %d B for %d B of live values (%.2f×)", got, live, float64(got)/float64(live))
				if float64(got) > 1.05*float64(live) {
					t.Fatalf("LiveValues allocated %d B, more than 1.05× the %d B of live values", got, live)
				}
			})
		}
	}
}
