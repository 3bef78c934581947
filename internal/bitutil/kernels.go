package bitutil

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Kernel dispatch. The operators' inner loops — the range select over one
// unpacked block, the two-column range select of a fused conjunction, the
// dense-key join probe, and the unpack of whole 64-value groups — have two
// implementations: AVX-512 assembly (kernels_amd64.s), 8 values per step, and
// the portable Go loops below. One CPU check, run once when the package
// initialises (hasAVX512), picks the assembly where the CPU reports
// AVX-512 F, BW, DQ and VBMI and the OS saves ZMM state; every other amd64
// host and every other architecture (kernels_other.go) runs the Go loops.
// Both paths return the same count and the same output rows, so which one ran
// is never observable in a result.
//
// The assembly handles the whole 8-value steps of its input and the Go loop
// finishes the tail, starting at the assembly's output cursor. The assembly
// stores whole 8-lane vectors at that cursor; the cursor never passes the
// input index, so no store passes len(vals), which every wrapper bounds the
// outputs to.

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

// maxVecUnpackWidth is the widest field the vector unpack decodes: a value
// starting at bit offset 7 of its first byte must fit one 64-bit lane.
const maxVecUnpackWidth = 56

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
