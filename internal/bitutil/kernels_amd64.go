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

// packCtl holds, per width minVecPackWidth..maxVecUnpackWidth, the control
// of the vector pack, the inverse of unpackCtl: a step shifts value j left by
// j·width mod 8, so its bytes line up with bytes ⌊j·width/8⌋ … +7 of the
// step's width output bytes, and builds each output byte as the OR of the
// bytes of the lanes that share it. Lane j supplies output byte k from its
// byte k-⌊j·width/8⌋; the i-th lane (in lane order) sharing byte k does so
// through permute i, which the byte mask keep[i] enables at byte k. A byte
// holds pieces of four values at widths 2 and 3, of three at width 5, of one
// at multiples of 8 and of two at every other width; at width 1 it holds
// eight, more than the kernel has permutes for.
var packCtl = func() (ctl [maxVecUnpackWidth + 1]packControl) {
	for w := minVecPackWidth; w <= maxVecUnpackWidth; w++ {
		c := &ctl[w]
		for j := 0; j < 8; j++ {
			c.shift[j] = uint64(j * w % 8)
		}
		for k := 0; k < w; k++ {
			i := 0
			for j := 0; j < 8; j++ {
				if j*w >= 8*k+8 || j*w+w <= 8*k {
					continue // value j has no bit in byte k
				}
				first := j * w / 8
				c.perm[i][k/8] |= uint64(8*j+k-first) << (8 * (k % 8))
				c.keep[i] |= 1 << k
				i++
			}
			c.perms = max(c.perms, i)
		}
	}
	return ctl
}()

// packControl is one width's pack control (packCtl): the per-lane shifts,
// the byte permutes and their byte masks, and how many permutes the width
// needs, 1..4; the unused permutes have an empty mask. packAVX512 reads the
// fields at their byte offsets: shift 0, perm 64, keep 320, perms 352.
type packControl struct {
	shift [8]uint64
	perm  [4][8]uint64
	keep  [4]uint64
	perms int
}

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

// packAVX512 packs steps·8 values at the given width (minVecPackWidth..56)
// from src to dst, 8 values per step; a step writes exactly width bytes,
// through a store masked to them.
//
//go:noescape
func packAVX512(dst, src *uint64, steps int, width uint, ctl *packControl)

// orVec returns the OR of len(vals) values, a multiple of 8.
//
//go:noescape
func orVec(vals []uint64) uint64

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

// packVec packs len(src)/64 whole groups at width (minVecPackWidth..56) into
// dst, which must hold their width words each.
func packVec(dst, src []uint64, width uint) {
	g := len(src) / 64
	if g == 0 {
		return
	}
	dst = dst[:g*int(width)]
	packAVX512(&dst[0], &src[0], g*8, width, &packCtl[width])
}
