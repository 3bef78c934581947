package ops

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"testing"

	"morphstore/internal/bitutil"
	"morphstore/internal/columns"
	"morphstore/internal/formats"
)

// TestBlockKernelMatchesReference runs the predicated range kernel over
// blocks of every length 0..130 and around the buffer size, with position
// bases near 2^32 and plain, wrapped, one-sided and full ranges, against the
// element-wise test.
func TestBlockKernelMatchesReference(t *testing.T) {
	lengths := []int{2047, 2048, 2049}
	for n := 0; n <= 130; n++ {
		lengths = append(lengths, n)
	}
	ranges := [][2]uint64{ // lo, span
		{3, 4}, {0, 0}, {0, 6}, {7, math.MaxUint64 - 7}, {0, math.MaxUint64},
		{6, math.MaxUint64 - 1}, // != 5
		{math.MaxUint64 - 1, 3}, // wraps through 0
	}
	for _, n := range lengths {
		vals := genVals(n, 11, int64(n))
		for i := 0; i < n; i += 7 {
			vals[i] = math.MaxUint64 - uint64(i%3) // the top of the domain
		}
		for _, base := range []uint64{0, 1<<32 - 5, 1 << 32, 1<<32 + 1} {
			for _, r := range ranges {
				lo, span := r[0], r[1]
				var want []uint64
				for i, v := range vals {
					if v-lo <= span {
						want = append(want, base+uint64(i))
					}
				}
				stage := [][]uint64{make([]uint64, n)}
				k := blockKernel(lo, span)(vals, base, stage)
				if !equalU64(stage[0][:k], want) {
					t.Fatalf("n=%d base=%d lo=%d span=%d: got %d positions, want %d", n, base, lo, span, k, len(want))
				}
			}
		}
	}
}

// TestSelectTailWord: the unused fields of a static BP column's last word
// hold zero, which a predicate admitting zero must not report — at widths 1
// to 32 with every kind of tail, on both kernel paths.
func TestSelectTailWord(t *testing.T) {
	for _, b := range []uint{1, 2, 4, 8, 16, 32} {
		per := int(64 / b)
		for _, n := range []int{1, per - 1, per, per + 1, 3*per - 1, 64 + 1, 5*64 + per/2 + 1} {
			vals := genVals(n, bitutil.Mask(b)+1, int64(n))
			in := mkCol(t, vals, columns.StaticBPDesc(b))
			for _, op := range []bitutil.CmpKind{bitutil.CmpLe, bitutil.CmpEq, bitutil.CmpNe} {
				val := uint64(0)
				if op == bitutil.CmpNe {
					val = 1 // zero fields satisfy != 1
				}
				checkPaths(t, fmt.Sprintf("b=%d n=%d %v %d", b, n, op, val), refSelect(vals, op, val), func() (*columns.Column, error) {
					return FixedRT(1).SelectAuto(in, op, val, columns.UncomprDesc)
				})
			}
		}
	}
}

// refSortedSet is the three-way two-pointer merge the set kernels replaced,
// kept as the reference: union selects Merge, otherwise Intersect.
func refSortedSet(a, b []uint64, union bool) []uint64 {
	out := []uint64{}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			if union {
				out = append(out, a[i])
			}
			i++
		case b[j] < a[i]:
			if union {
				out = append(out, b[j])
			}
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	if union {
		out = append(append(out, a[i:]...), b[j:]...)
	}
	return out
}

// checkSortedSet compares Intersect and Merge of a and b — streamed (par 1)
// and range-split (par 2, 3), which must be byte-identical — against the
// reference merge.
func checkSortedSet(t testing.TB, name string, a, b []uint64, descs []columns.FormatDesc) {
	t.Helper()
	for _, d := range descs {
		ac, err := formats.Compress(a, d)
		if err != nil {
			t.Fatal(err)
		}
		bc, err := formats.Compress(b, d)
		if err != nil {
			t.Fatal(err)
		}
		for _, union := range []bool{false, true} {
			want := refSortedSet(a, b, union)
			var seq *columns.Column
			for _, par := range []int{1, 2, 3} {
				run := FixedRT(par).Intersect
				if union {
					run = FixedRT(par).Merge
				}
				got, err := run(ac, bc, d)
				if err != nil {
					t.Fatalf("%s %v union=%v par=%d: %v", name, d, union, par, err)
				}
				vals, err := formats.Decompress(got)
				if err != nil {
					t.Fatal(err)
				}
				if !equalU64(vals, want) {
					t.Fatalf("%s %v union=%v par=%d: %d elements, want %d", name, d, union, par, len(vals), len(want))
				}
				if seq == nil {
					seq = got
				} else if got.Desc() != seq.Desc() || !equalU64(got.Words(), seq.Words()) {
					t.Fatalf("%s %v union=%v par=%d: bytes differ from par 1", name, d, union, par)
				}
			}
		}
	}
}

// TestSortedSetKernelsMatchReference covers the shapes the branch-free
// kernels and the window-at-a-time stream could get wrong: duplicates on
// either and both sides, disjoint inputs, an empty side, and runs of equal
// values that straddle a reader refill (every blockBuf elements).
func TestSortedSetKernelsMatchReference(t *testing.T) {
	seq := func(n int, f func(i int) uint64) []uint64 {
		v := make([]uint64, n)
		for i := range v {
			v[i] = f(i)
		}
		return v
	}
	n := 5*blockBuf + 100 // long enough to split at par 2 and 3
	a, b := sortedTestLists(n, 5)
	// Equal runs of 300 centred on the refill points of both inputs.
	straddle := seq(n, func(i int) uint64 { return uint64((i + 150) / 300) })
	cases := []struct {
		name string
		a, b []uint64
	}{
		{"overlap", a, b},
		{"dup_a", seq(n, func(i int) uint64 { return uint64(i / 3) }), seq(n, func(i int) uint64 { return uint64(i) })},
		{"dup_b", seq(n, func(i int) uint64 { return uint64(2 * i) }), seq(n, func(i int) uint64 { return uint64(i / 5) })},
		{"dup_both", seq(n, func(i int) uint64 { return uint64(i / 4) }), seq(n, func(i int) uint64 { return uint64(i / 7) })},
		{"straddle_refill", straddle, straddle[blockBuf/2:]},
		{"disjoint", seq(n, func(i int) uint64 { return uint64(i) }), seq(n, func(i int) uint64 { return uint64(n + i) })},
		{"interleaved", seq(n, func(i int) uint64 { return uint64(2 * i) }), seq(n, func(i int) uint64 { return uint64(2*i + 1) })},
		{"empty_a", nil, b},
		{"empty_b", a, nil},
		{"both_empty", nil, nil},
		{"top_of_domain", []uint64{1, math.MaxUint64 - 1, math.MaxUint64}, []uint64{0, math.MaxUint64}},
	}
	for _, tc := range cases {
		checkSortedSet(t, tc.name, tc.a, tc.b, []columns.FormatDesc{columns.UncomprDesc, columns.DeltaBPDesc, columns.RLEDesc})
	}
}

// FuzzSortedSet turns two byte strings into sorted lists (16-bit values, so
// duplicates within and across the lists are common; repeated to cross reader
// refills and the range-split threshold) and checks the kernels against the
// reference merge.
func FuzzSortedSet(f *testing.F) {
	f.Add([]byte{}, []byte{1, 2})
	f.Add([]byte{0, 1, 0, 1, 0, 2}, []byte{0, 1, 0, 3})
	f.Add([]byte("sorted set kernels"), []byte("branch-free merge"))
	list := func(raw []byte, reps int) []uint64 {
		var v []uint64
		for r := 0; r < reps; r++ {
			for i := 0; i+1 < len(raw); i += 2 {
				v = append(v, uint64(binary.LittleEndian.Uint16(raw[i:]))+uint64(r%3))
			}
		}
		sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
		return v
	}
	f.Fuzz(func(t *testing.T, ra, rb []byte) {
		if len(ra) > 256 || len(rb) > 256 {
			return
		}
		for _, reps := range []int{1, 80} { // 80 x 128 values: past 2*MinMorsel and several refills
			a, b := list(ra, reps), list(rb, reps)
			checkSortedSet(t, fmt.Sprintf("reps=%d", reps), a, b, []columns.FormatDesc{columns.UncomprDesc, columns.DeltaBPDesc})
		}
	})
}
