//go:build !amd64

package bitutil

// Other architectures have no assembly kernels: vec is always false, so the
// functions below are never called.
const hasAVX512, avx512Missing = false, "amd64"

func unpackVec(dst, src []uint64, width uint) {}

func packVec(dst, src []uint64, width uint) {}

func orVec(vals []uint64) uint64 { return 0 }

func selectRangeVec(vals []uint64, base, lo, span uint64, out []uint64) int { return 0 }

func selectRangeAndVec(va, vb []uint64, base, loA, spanA, loB, spanB uint64, out []uint64) int {
	return 0
}

func probeDenseVec(vals []uint64, base, lo, span uint64, tab []uint32, outP, outB []uint64) int {
	return 0
}

func gatherBitsVec(dst, words, idx []uint64, width uint, n uint64) int { return 0 }

func gatherWordsVec(dst, words, idx []uint64) int { return 0 }

func profileVec(vals []uint64, prev uint64, hist *[2][8][65]uint64, mm *[16]uint64) (descents, changes int) {
	return 0, 0
}

func offsetHistVec(vals []uint64, ref uint64, hist *[8][65]uint64) {}
