package bitutil

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Kernel dispatch. The operators' inner loops — the range select over one
// unpacked block, the two-column range select of a fused conjunction, the
// dense-key join probe, the unpack and the pack of whole 64-value groups,
// the width scan (MaxBits), and the project's gathers from static BP and
// uncompressed words — and the two passes of a column profile (ProfileScan,
// OffsetBitHist) have two implementations: AVX-512 assembly
// (kernels_amd64.s), 8 values per step, and portable Go loops (below, in
// bitutil.go, and the generated pack64/unpack64 of packed_gen.go). One CPU
// check, run once when the package initialises (hasAVX512), picks the
// assembly where the CPU reports AVX-512 F, BW, DQ, VBMI and CD and the OS
// saves ZMM state; every other amd64 host and every other architecture
// (kernels_other.go) runs the Go loops. Both paths return the same count and
// the same output rows, so which one ran is never observable in a result.
//
// The assembly handles the whole 8-value steps of its input and the Go loop
// finishes the tail, starting at the assembly's output cursor. The assembly
// stores whole 8-lane vectors at that cursor; the cursor never passes the
// input index, so no store passes len(vals), which every wrapper bounds the
// outputs to. The unpack and the pack take whole 64-value groups and leave
// the last partial group to the Go loop; both move exactly width bytes per
// step through byte-masked loads and stores, so neither touches a byte past
// PackedWords. The gathers' assembly stops before the first step holding an
// out-of-range position, having loaded nothing for it; the Go loop then
// gathers that step's in-range lanes up to it and reports it, so both paths
// report the same index.

// forcePortable, set by tests through go:linkname, makes every kernel run its
// portable loop on a host that has the AVX-512 path, so both paths go through
// the same suites. It is atomic because a test flips it while an engine's
// background remorph may be decoding.
var forcePortable atomic.Bool

// vec reports whether the kernels run their AVX-512 path.
func vec() bool { return hasAVX512 && !forcePortable.Load() }

// AVX512 reports whether this CPU runs the AVX-512 kernels and, if it does
// not, names the first required feature it lacks.
func AVX512() (ok bool, missing string) { return hasAVX512, avx512Missing }

// maxVecUnpackWidth is the widest field the vector unpack decodes and the
// vector pack encodes: a value starting at bit offset 7 of its first byte
// must fit one 64-bit lane.
const maxVecUnpackWidth = 56

// minVecProfile is the shortest input ProfileScan and OffsetBitHist hand to
// their vector kernels. Below it the Go loops win: the vector path's fixed
// cost, clearing its per-lane histograms and adding them up, is ≈ 1.5 µs.
// Medians of seven runs on a 2-vCPU AVX-512 Xeon, vector vs Go: ProfileScan
// 1.75 vs 1.12 µs at 256 values, 2.15 vs 2.27 at 512, 2.31 vs 2.77 at 768;
// OffsetBitHist 0.79 vs 0.48, 0.94 vs 0.91, 1.25 vs 1.33.
const minVecProfile = 512

// minVecPackWidth is the narrowest field the vector pack encodes: at width 1
// a byte holds pieces of more values than the kernel has permutes for.
const minVecPackWidth = 2

// SelectRange stages base+i for every i with vals[i]-lo <= span into out and
// returns their count: the range test of bitutil.CmpKind.Range over one
// unpacked block. out must hold len(vals) values.
func SelectRange(vals []uint64, base, lo, span uint64, out []uint64) int {
	out = out[:len(vals)]
	k, i := 0, 0
	if vec() && len(vals) >= 8 {
		i = len(vals) &^ 7
		k = selectRangeVec(vals[:i], base, lo, span, out)
	}
	return k + selectRangeGo(vals[i:], base+uint64(i), lo, span, out[k:])
}

// selectRangeGo is the portable SelectRange. It is predicated like a masked
// compress-store: every position is staged unconditionally and the cursor
// advances by the match bit — the complement of the borrow of span - (v-lo) —
// so the loop has no data-dependent branch and costs the same at every
// selectivity.
func selectRangeGo(vals []uint64, base, lo, span uint64, out []uint64) int {
	k := 0
	for i, v := range vals {
		out[k] = base + uint64(i)
		_, miss := bits.Sub64(span, v-lo, 0)
		k += int(1 - miss)
	}
	return k
}

// SelectRangeAnd stages base+i for every i with va[i]-loA <= spanA and
// vb[i]-loB <= spanB into out and returns their count: the two range tests of
// a conjunction over one lockstep chunk of equally long blocks. out must hold
// len(va) values.
func SelectRangeAnd(va, vb []uint64, base, loA, spanA, loB, spanB uint64, out []uint64) int {
	vb, out = vb[:len(va)], out[:len(va)]
	k, i := 0, 0
	if vec() && len(va) >= 8 {
		i = len(va) &^ 7
		k = selectRangeAndVec(va[:i], vb[:i], base, loA, spanA, loB, spanB, out)
	}
	return k + selectRangeAndGo(va[i:], vb[i:], base+uint64(i), loA, spanA, loB, spanB, out[k:])
}

// selectRangeAndGo is the portable SelectRangeAnd, in two predicated passes:
// the first stages the chunk-local indices passing the first test
// (selectRangeGo's compress-store), the second compacts them in place to
// those whose second value passes too and turns them into global positions.
// The second pass touches only the first pass's survivors, so a selective
// first test makes it cheap.
func selectRangeAndGo(va, vb []uint64, base, loA, spanA, loB, spanB uint64, out []uint64) int {
	k := 0
	for i, v := range va {
		out[k] = uint64(i)
		_, miss := bits.Sub64(spanA, v-loA, 0)
		k += int(1 - miss)
	}
	m := 0
	for _, i := range out[:k] {
		out[m] = base + i
		_, miss := bits.Sub64(spanB, vb[i]-loB, 0)
		m += int(1 - miss)
	}
	return m
}

// ProbeDense probes a direct-address join table: tab[v-lo] is the build
// index of key v plus one, 0 for an absent key, and the table has span+1
// slots. For every vals[i] with a build match it stages the probe position
// base+i into outP and the build index into outB, and returns their count.
// outP and outB must hold len(vals) values each.
func ProbeDense(vals []uint64, base, lo, span uint64, tab []uint32, outP, outB []uint64) int {
	if span >= uint64(len(tab)) {
		panic("bitutil: ProbeDense table has fewer than span+1 slots")
	}
	outP, outB = outP[:len(vals)], outB[:len(vals)]
	k, i := 0, 0
	if vec() && len(vals) >= 8 {
		i = len(vals) &^ 7
		k = probeDenseVec(vals[:i], base, lo, span, tab, outP, outB)
	}
	return k + probeDenseGo(vals[i:], base+uint64(i), lo, span, tab, outP[k:], outB[k:])
}

// probeDenseGo is the portable ProbeDense. Every probe row is staged
// unconditionally and the cursor advances by the match bit, so the only
// data-dependent branch left is the range check.
func probeDenseGo(vals []uint64, base, lo, span uint64, tab []uint32, outP, outB []uint64) int {
	k := 0
	for i, v := range vals {
		var t uint64
		if d := v - lo; d <= span {
			t = uint64(tab[d])
		}
		outP[k] = base + uint64(i)
		outB[k] = t - 1
		k += int((t + math.MaxUint32) >> 32) // 1 iff t != 0
	}
	return k
}

// GatherBits fills dst[j] with the idx[j]-th value of the n width-bit values
// packed in words (Get's layout) and returns -1, or, if a position is n or
// more, the first j with idx[j] >= n. dst must hold len(idx) values; it holds
// the values of the positions before the reported one, and no word is loaded
// for the reported position or any after it. words must hold
// PackedWords(n, width) words.
func GatherBits(dst, words, idx []uint64, width uint, n int) int {
	dst = dst[:len(idx)]
	i := 0
	if vec() && width > 0 && len(idx) >= 8 {
		i = gatherBitsVec(dst, words, idx[:len(idx)&^7], width, uint64(n))
	}
	return offset(i, gatherBitsGo(dst[i:], words, idx[i:], width, n))
}

// gatherDense is how many of the upcoming positions must fall into one
// 64-value group for gatherBitsGo to decode the whole group: about where one
// group unpack becomes cheaper than that many single-field extractions.
const gatherDense = 8

// gatherBitsGo is the portable GatherBits. It decodes a 64-value group once,
// into a cache on its stack, where gatherDense upcoming positions share it
// (on a sorted list, the gatherDense-th position from here tells), and
// extracts every other position on its own with Get, so a selective list
// does not pay 64 decoded values per hit. Any order is correct; sorted
// selection results hit the cache.
func gatherBitsGo(dst, words, idx []uint64, width uint, n int) int {
	var group [64]uint64
	gid, full := -1, n>>6
	for j, ix := range idx {
		// A position in the cached group is in range: the group is whole.
		if g := int(ix >> 6); g != gid {
			if ix >= uint64(n) {
				return j
			}
			if g >= full || j+gatherDense > len(idx) || int(idx[j+gatherDense-1]>>6) != g {
				dst[j] = Get(words, int(ix), width)
				continue
			}
			UnpackGroup(&group, words, g, width)
			gid = g
		}
		dst[j] = group[ix&63]
	}
	return -1
}

// GatherWords fills dst[j] with words[idx[j]] and returns -1, or, if a
// position is len(words) or more, the first such j, with GatherBits' contract
// on dst.
func GatherWords(dst, words, idx []uint64) int {
	dst = dst[:len(idx)]
	i := 0
	if vec() && len(idx) >= 8 {
		i = gatherWordsVec(dst, words, idx[:len(idx)&^7])
	}
	return offset(i, gatherWordsGo(dst[i:], words, idx[i:]))
}

// gatherWordsGo is the portable GatherWords.
func gatherWordsGo(dst, words, idx []uint64) int {
	for j, ix := range idx {
		if ix >= uint64(len(words)) {
			return j
		}
		dst[j] = words[ix]
	}
	return -1
}

// ProfileScan adds to bh the bit length of every value of vals and to dh the
// bit length of every wrap-around delta vals[i]-vals[i-1] (mod 2^64), where
// vals[-1] is prev. It returns the least and the greatest value, the number
// of descents (values below the one before) and of changes (values unlike
// the one before). vals must not be empty.
func ProfileScan(vals []uint64, prev uint64, bh, dh *[65]int) (lo, hi uint64, descents, changes int) {
	lo, hi = vals[0], vals[0]
	i := 0
	if vec() && len(vals) >= minVecProfile {
		i = len(vals) &^ 7
		var hist [2][8][65]uint64
		var mm [16]uint64
		descents, changes = profileVec(vals[:i], prev, &hist, &mm)
		for j := 0; j < 8; j++ {
			lo, hi = min(lo, mm[j]), max(hi, mm[8+j])
		}
		addLanes(bh, &hist[0])
		addLanes(dh, &hist[1])
		prev = vals[i-1]
	}
	lo, hi, d, c := profileScanGo(vals[i:], prev, lo, hi, bh, dh)
	return lo, hi, descents + d, changes + c
}

// profileScanGo is the portable ProfileScan, lo and hi seeded by the caller.
// Every counter lives in a local until the end. Each histogram has four
// copies, one per position mod 4: neighbours mostly fall into the same
// bucket, and spreading them over copies keeps each increment from waiting on
// the previous one's store. Descents and changes come from each delta's
// borrow and non-zeroness without a branch.
func profileScanGo(vals []uint64, prev, lo, hi uint64, bh, dh *[65]int) (uint64, uint64, int, int) {
	var bc, dc [4][65]int
	var descents, changes uint64
	for i, v := range vals {
		d, borrow := bits.Sub64(v, prev, 0)
		bc[i&3][bits.Len64(v)]++
		dc[i&3][bits.Len64(d)]++
		descents += borrow
		changes += (d | -d) >> 63 // 1 iff d != 0
		lo, hi = min(lo, v), max(hi, v)
		prev = v
	}
	for b := range bh {
		bh[b] += bc[0][b] + bc[1][b] + bc[2][b] + bc[3][b]
		dh[b] += dc[0][b] + dc[1][b] + dc[2][b] + dc[3][b]
	}
	return lo, hi, int(descents), int(changes)
}

// OffsetBitHist adds to h the bit length of v-ref (mod 2^64) of every value
// v of vals: the frame-of-reference histogram against ref.
func OffsetBitHist(vals []uint64, ref uint64, h *[65]int) {
	i := 0
	if vec() && len(vals) >= minVecProfile {
		i = len(vals) &^ 7
		var hist [8][65]uint64
		offsetHistVec(vals[:i], ref, &hist)
		addLanes(h, &hist)
	}
	offsetBitHistGo(vals[i:], ref, h)
}

// offsetBitHistGo is the portable OffsetBitHist, with four histogram copies
// as in profileScanGo.
func offsetBitHistGo(vals []uint64, ref uint64, h *[65]int) {
	var fc [4][65]int
	for i, v := range vals {
		fc[i&3][bits.Len64(v-ref)]++
	}
	for b := range h {
		h[b] += fc[0][b] + fc[1][b] + fc[2][b] + fc[3][b]
	}
}

// addLanes adds the 8 per-lane histograms of a vector pass into h.
func addLanes(h *[65]int, lanes *[8][65]uint64) {
	for b := range h {
		var sum uint64
		for j := range lanes {
			sum += lanes[j][b]
		}
		h[b] += int(sum)
	}
}

// offset turns j, the index a Go loop reports in the positions from i on
// (or -1), into an index in the whole list.
func offset(i, j int) int {
	if j < 0 {
		return j
	}
	return i + j
}
