package formats

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"morphstore/internal/bitutil"
	"morphstore/internal/columns"
)

// checkGather fails unless gatherErr finds nothing.
func checkGather(t *testing.T, ctx string, ra RandomAccessor, vals, idx []uint64) {
	t.Helper()
	if err := gatherErr(ra, vals, idx); err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
}

// gatherErr gathers idx through ra and reports the first position that does
// not read its value in vals, or that is reported out of range.
func gatherErr(ra RandomAccessor, vals, idx []uint64) error {
	dst := make([]uint64, len(idx))
	if bad := ra.Gather(dst, idx); bad >= 0 {
		return fmt.Errorf("position %d (index %d) reported out of range [0,%d)", idx[bad], bad, len(vals))
	}
	for j, ix := range idx {
		if dst[j] != vals[ix] {
			return fmt.Errorf("Gather[%d] (pos %d) = %#x, want %#x", j, ix, dst[j], vals[ix])
		}
	}
	return nil
}

// TestStaticBPGatherOrders verifies the gather on every access pattern:
// sorted (the common case for position lists), reverse, random, repeated,
// and straddling the partial tail group, on both kernel paths.
func TestStaticBPGatherOrders(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 1000 // not a multiple of 64: exercises the partial tail group
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = uint64(rng.Intn(100000))
	}
	col, err := Compress(vals, columns.StaticBPDesc(0))
	if err != nil {
		t.Fatal(err)
	}

	patterns := map[string][]uint64{}
	sorted := make([]uint64, 0, n)
	for i := 0; i < n; i += 3 {
		sorted = append(sorted, uint64(i))
	}
	patterns["sorted"] = sorted
	rev := make([]uint64, len(sorted))
	for i, v := range sorted {
		rev[len(sorted)-1-i] = v
	}
	patterns["reverse"] = rev
	rnd := make([]uint64, 500)
	for i := range rnd {
		rnd[i] = uint64(rng.Intn(n))
	}
	patterns["random"] = rnd
	patterns["repeated"] = []uint64{5, 5, 5, 999, 999, 5, 0, 999}
	patterns["tail_only"] = []uint64{960, 970, 980, 999, 961}

	ra, err := RandomAccess(col)
	if err != nil {
		t.Fatal(err)
	}
	eachKernelPath(func(path string) {
		for name, idx := range patterns {
			checkGather(t, path+": "+name, ra, vals, idx)
		}
	})
}

// TestStaticBPGatherDensities pins the gather against the values at every
// width, on both kernel paths: position lists dense enough for the portable
// path to decode whole groups, sparse enough to extract single fields, and
// mixtures that switch between the two mid-list, in sorted, unsorted and
// duplicated order, with and without the partial tail group. The portable
// path decodes a group where 8 upcoming positions share it; the spacings 8
// and 10 sit on either side of that threshold.
func TestStaticBPGatherDensities(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const n = 9*64 + 37 // nine full groups and a partial tail
	every := func(step int) []uint64 {
		var idx []uint64
		for i := 0; i < n; i += step {
			idx = append(idx, uint64(i))
		}
		return idx
	}
	shuffled := func(idx []uint64) []uint64 {
		out := append([]uint64(nil), idx...)
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	// Groups 1, 4 and 7 fully listed, one position in each of the others.
	var mixed []uint64
	for g := 0; g < 9; g++ {
		if g%3 == 1 {
			for i := 0; i < 64; i++ {
				mixed = append(mixed, uint64(g*64+i))
			}
		} else {
			mixed = append(mixed, uint64(g*64+rng.Intn(64)))
		}
	}
	patterns := []struct {
		name string
		idx  []uint64
	}{
		{"all", every(1)},
		{"exactly 8 per group", every(8)},
		{"fewer than 8 per group", every(10)},
		{"one per group", every(64)},
		{"mixed dense and sparse groups", mixed},
		{"unsorted dense", shuffled(every(1))},
		{"unsorted sparse", shuffled(every(23))},
		{"duplicates", []uint64{70, 70, 70, 70, 70, 70, 70, 70, 70, 3, 3, 70, 200, 200}},
		{"tail group only", []uint64{576, 577, 580, 590, 600, 601, 605, 610, 611, 612, 612, 576}},
		{"dense run into the tail", every(1)[500:]},
		{"shorter than one step", []uint64{64, 65, 66}},
		{"empty", nil},
	}
	eachKernelPath(func(path string) {
		for width := uint(1); width <= 64; width++ {
			vals := make([]uint64, n)
			for i := range vals {
				vals[i] = rng.Uint64() & bitutil.Mask(width)
			}
			vals[rng.Intn(n)] = bitutil.Mask(width) // pin the width
			col, err := Compress(vals, columns.StaticBPDesc(width))
			if err != nil {
				t.Fatal(err)
			}
			ra, err := RandomAccess(col)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range patterns {
				checkGather(t, fmt.Sprintf("%s: width %d, %s", path, width, p.name), ra, vals, p.idx)
			}
		}
	})
}

// TestStaticBPGatherZeroWidth covers the all-zero column accessor, whose
// positions are checked although it reads no word.
func TestStaticBPGatherZeroWidth(t *testing.T) {
	col, err := Compress(make([]uint64, 200), columns.StaticBPDesc(0))
	if err != nil {
		t.Fatal(err)
	}
	ra, err := RandomAccess(col)
	if err != nil {
		t.Fatal(err)
	}
	eachKernelPath(func(path string) {
		dst := []uint64{7, 7, 7}
		if bad := ra.Gather(dst, []uint64{0, 100, 199}); bad >= 0 {
			t.Fatalf("%s: index %d reported out of range", path, bad)
		}
		for i, v := range dst {
			if v != 0 {
				t.Errorf("%s: elem %d = %d, want 0", path, i, v)
			}
		}
		if bad := ra.Gather(dst, []uint64{0, 200, 1}); bad != 1 {
			t.Errorf("%s: position 200 of 200 reported at index %d, want 1", path, bad)
		}
	})
}

// TestStaticBPGatherLastWord: the gather at width 64, and at widths whose
// last field ends exactly at the end of the last word, so the column has no
// word behind it and the next-word read clamps. Every position is read one
// per group, then the whole partial tail group, and all in order.
func TestStaticBPGatherLastWord(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, c := range []struct {
		width uint
		n     int
	}{
		{64, 3*64 + 5},
		{64, 1},
		{16, 2*64 + 12}, // 140 values × 16 bits = 35 whole words
		{32, 2*64 + 2},
		{13, 3 * 64}, // the last field of a full group ends a word
		{63, 64},
	} {
		vals := make([]uint64, c.n)
		for i := range vals {
			vals[i] = rng.Uint64() & bitutil.Mask(c.width)
		}
		vals[c.n-1] = bitutil.Mask(c.width)
		col, err := Compress(vals, columns.StaticBPDesc(c.width))
		if err != nil {
			t.Fatal(err)
		}
		if words := col.MainWords(); len(words)*64 != c.n*int(c.width) {
			t.Fatalf("width %d, n %d: %d words, want them exactly filled", c.width, c.n, len(words))
		}
		var sparse, all []uint64
		for i := 0; i < c.n; i++ {
			all = append(all, uint64(i))
			if i%64 == 63 || i >= c.n&^63 {
				sparse = append(sparse, uint64(i))
			}
		}
		ra, err := RandomAccess(col)
		if err != nil {
			t.Fatal(err)
		}
		eachKernelPath(func(path string) {
			for _, idx := range [][]uint64{sparse, all} {
				checkGather(t, fmt.Sprintf("%s: width %d, n %d", path, c.width, c.n), ra, vals, idx)
			}
		})
	}
}

// TestGatherSharedAccessor: an accessor is stateless, so several goroutines
// gather through one at once — each a different pattern, dense and sparse, so
// that the portable path would decode different groups — and every one reads
// its own values. Run it under -race.
func TestGatherSharedAccessor(t *testing.T) {
	const n = 64*40 + 11
	rng := rand.New(rand.NewSource(41))
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = rng.Uint64() & bitutil.Mask(21)
	}
	patterns := make([][]uint64, 6)
	for g := range patterns {
		for i := g; i < n; i += 1 + g*5 {
			patterns[g] = append(patterns[g], uint64(i))
		}
	}
	for _, desc := range []columns.FormatDesc{columns.StaticBPDesc(21), columns.UncomprDesc} {
		col, err := Compress(vals, desc)
		if err != nil {
			t.Fatal(err)
		}
		ra, err := RandomAccess(col)
		if err != nil {
			t.Fatal(err)
		}
		eachKernelPath(func(path string) {
			var wg sync.WaitGroup
			for g, idx := range patterns {
				wg.Add(1)
				go func(g int, idx []uint64) {
					defer wg.Done()
					for rep := 0; rep < 20; rep++ {
						if err := gatherErr(ra, vals, idx); err != nil {
							t.Errorf("%v, %s: goroutine %d: %v", desc, path, g, err)
							return
						}
					}
				}(g, idx)
			}
			wg.Wait()
		})
	}
}

// Property: Gather agrees with Get for arbitrary widths and index sets.
func TestGatherEqualsGetProperty(t *testing.T) {
	f := func(raw []uint64, idxRaw []uint16, w8 uint8) bool {
		if len(raw) == 0 {
			return true
		}
		width := uint(w8%63) + 1
		vals := make([]uint64, len(raw))
		for i, v := range raw {
			vals[i] = v & bitutil.Mask(width)
		}
		col, err := Compress(vals, columns.StaticBPDesc(0))
		if err != nil {
			return false
		}
		ra, err := RandomAccess(col)
		if err != nil {
			return false
		}
		idx := make([]uint64, len(idxRaw))
		for i, v := range idxRaw {
			idx[i] = uint64(int(v) % len(vals))
		}
		ok := true
		eachKernelPath(func(string) {
			dst := make([]uint64, len(idx))
			if ra.Gather(dst, idx) >= 0 {
				ok = false
			}
			for j, ix := range idx {
				if dst[j] != vals[ix] {
					ok = false
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}
