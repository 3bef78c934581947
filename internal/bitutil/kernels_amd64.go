package bitutil

// hasAVX512 is the one CPU check behind every kernel's dispatch (vec);
// avx512Missing names the first required feature the CPU lacks.
var hasAVX512, avx512Missing = detectAVX512()

// detectAVX512 reads CPUID and XCR0: the kernels need AVX-512 F (the 512-bit
// integer ops, gathers, compress), DQ (byte-wide mask moves, 128-bit lane
// extracts), BW (byte-masked loads), VBMI (the byte permute of the unpack)
// and CD (the leading-zero count of the profile), POPCNT for the output
// cursor, and an OS that saves the opmask and ZMM registers.
func detectAVX512() (bool, string) {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false, "CPUID leaf 7"
	}
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&(1<<27) == 0 {
		return false, "OSXSAVE"
	}
	if ecx1&(1<<23) == 0 {
		return false, "POPCNT"
	}
	// XCR0 bits 1-2 (SSE, AVX state) and 5-7 (opmask, ZMM0-15 upper halves,
	// ZMM16-31).
	if xcr0, _ := xgetbv(); xcr0&0xe6 != 0xe6 {
		return false, "OS support for ZMM state (XCR0)"
	}
	_, ebx7, ecx7, _ := cpuid(7, 0)
	for _, f := range []struct {
		name string
		ok   bool
	}{
		{"AVX512F", ebx7&(1<<16) != 0},
		{"AVX512DQ", ebx7&(1<<17) != 0},
		{"AVX512CD", ebx7&(1<<28) != 0},
		{"AVX512BW", ebx7&(1<<30) != 0},
		{"AVX512VBMI", ecx7&(1<<1) != 0},
	} {
		if !f.ok {
			return false, f.name
		}
	}
	return true, ""
}

// unpackCtl holds, per width 1..maxVecUnpackWidth, the control vectors of
// the vector unpack. A step decodes 8 values from the width bytes they
// occupy; value j starts at bit j·width. Lane j of the byte permute (the
// first 8 words) gathers bytes ⌊j·width/8⌋ … +7 of the step, and lane j of
// the shift (the last 8) drops the j·width mod 8 bits below the value.
var unpackCtl = func() (ctl [maxVecUnpackWidth + 1][16]uint64) {
	for w := 1; w <= maxVecUnpackWidth; w++ {
		for j := 0; j < 8; j++ {
			first := uint64(j * w / 8)
			for b := uint64(0); b < 8; b++ {
				ctl[w][j] |= (first + b) << (8 * b)
			}
			ctl[w][8+j] = uint64(j * w % 8)
		}
	}
	return ctl
}()

// cpuid executes CPUID for the leaf and sub-leaf.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns XCR0. Call it only where CPUID reports OSXSAVE.
func xgetbv() (eax, edx uint32)

// unpackAVX512 decodes steps·8 values of the given width (1..56) from src to
// dst, 8 values per step; a step reads exactly width bytes, through a load
// masked to them.
//
//go:noescape
func unpackAVX512(dst, src *uint64, steps int, width uint, ctl *[16]uint64)

// The range selects and the probe below process len(vals) values, a multiple
// of 8; every output holds at least as many, and tab has span+1 slots.

//go:noescape
func selectRangeVec(vals []uint64, base, lo, span uint64, out []uint64) int

//go:noescape
func selectRangeAndVec(va, vb []uint64, base, loA, spanA, loB, spanB uint64, out []uint64) int

//go:noescape
func probeDenseVec(vals []uint64, base, lo, span uint64, tab []uint32, outP, outB []uint64) int

// The gathers below process len(idx) positions, a multiple of 8, into dst,
// which holds as many, and return how many they gathered: all of them, or
// the 8-position steps before the first step with a position of n (for
// gatherWordsVec, len(words)) or more. gatherBitsVec needs width 1..64 and
// n ≤ len(words)·64/width, so words is not empty where a position is in
// range.

//go:noescape
func gatherBitsVec(dst, words, idx []uint64, width uint, n uint64) int

//go:noescape
func gatherWordsVec(dst, words, idx []uint64) int

// profileVec profiles len(vals) values, a multiple of 8, against prev, the
// value before the first (ProfileScan): it counts each lane's value and delta
// bit lengths into hist[0][lane] and hist[1][lane], stores each lane's
// minimum into mm[lane] and maximum into mm[8+lane], and returns the number
// of descents and changes.
//
//go:noescape
func profileVec(vals []uint64, prev uint64, hist *[2][8][65]uint64, mm *[16]uint64) (descents, changes int)

// offsetHistVec counts the bit length of v-ref of each of len(vals) values, a
// multiple of 8, into hist[lane].
//
//go:noescape
func offsetHistVec(vals []uint64, ref uint64, hist *[8][65]uint64)

// unpackVec decodes len(dst)/64 whole groups of width (1..56) bits from src,
// which must hold their width words each.
func unpackVec(dst, src []uint64, width uint) {
	g := len(dst) / 64
	if g == 0 {
		return
	}
	src = src[:g*int(width)]
	unpackAVX512(&dst[0], &src[0], g*8, width, &unpackCtl[width])
}
