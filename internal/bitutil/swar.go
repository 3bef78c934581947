// SWAR (SIMD within a register) primitives: an exact field-parallel range
// test over bit-packed 64-bit words, for field widths that divide 64.
//
// These kernels are the pure-Go substitute for the AVX-512 bit-parallel scan
// instructions the original C++ MorphStore uses (cf. BitWeaving, SIMD-Scan):
// several packed fields are tested against a predicate with a handful of
// word-level instructions instead of one comparison per field.
//
// One predicate shape covers every comparison. CmpKind.Range normalises
// `f op val` (and a between) to the wrapped unsigned range test
//
//	(f - lo) mod 2^b  <=  span
//
// so a scan has a single kernel per input shape and the comparison kind is
// decided once per operator, never per element.
//
// Exactness on packed words comes from the even/odd split: fields are
// isolated into windows of width 2b (the neighbour field zeroed), so the
// borrows of window-local subtractions can never cross into the next field.
// With H the top bit of a window, (x|H) - y never borrows out of the window
// for x, y < 2^b; its low b bits are (x - y) mod 2^b, and for the second
// subtraction (span|H) - d keeps H iff span >= d.
//
// Result layout: PackedRange.Match answers with one bit per field, at the
// field's own top bit. The even-field results sit at window top bits
// (position 2b·i + 2b-1); shifted right by b they land on the even fields'
// top bits (2b·i + b-1), which the odd-field results (already at 2b·i + 2b-1,
// the odd fields' top bits) never occupy, so one OR combines the two halves.
// A consumer gets field indices as TrailingZeros64(m) >> log2(b) — b is a
// power of two — so there is no compaction step that moves the result bits
// to consecutive positions: that step cost a loop with a division per match
// and bought nothing a shift does not.
package bitutil

// Broadcast replicates the low b bits of v into every b-wide field of a word.
func Broadcast(v uint64, b uint) uint64 {
	v &= Mask(b)
	if b == 0 {
		return 0
	}
	var out uint64
	for off := uint(0); off < 64; off += b {
		out |= v << off
	}
	return out
}

// CmpKind enumerates the comparison operators shared by the scan kernels.
type CmpKind uint8

const (
	CmpEq CmpKind = iota // field == constant
	CmpNe                // field != constant
	CmpLt                // field <  constant
	CmpLe                // field <= constant
	CmpGt                // field >  constant
	CmpGe                // field >= constant
)

func (c CmpKind) String() string {
	switch c {
	case CmpEq:
		return "=="
	case CmpNe:
		return "!="
	case CmpLt:
		return "<"
	case CmpLe:
		return "<="
	case CmpGt:
		return ">"
	case CmpGe:
		return ">="
	default:
		return "?"
	}
}

// Eval applies the comparison to a pair of scalars.
func (c CmpKind) Eval(x, y uint64) bool {
	switch c {
	case CmpEq:
		return x == y
	case CmpNe:
		return x != y
	case CmpLt:
		return x < y
	case CmpLe:
		return x <= y
	case CmpGt:
		return x > y
	case CmpGe:
		return x >= y
	default:
		return false
	}
}

// Range normalises the predicate `x c val` over the domain [0, max] — max is
// 2^b-1 for b-bit fields, the full word for unpacked values — to the wrapped
// range test (x-lo)&max <= span. val must not exceed max. empty reports a
// predicate no value satisfies (x < 0, x > max), for which lo and span are
// meaningless; ok is false for an undefined comparison kind.
func (c CmpKind) Range(val, max uint64) (lo, span uint64, empty, ok bool) {
	switch c {
	case CmpEq:
		return val, 0, false, true
	case CmpNe: // everything but val: the range that starts behind it and wraps
		return (val + 1) & max, max - 1, false, true
	case CmpLt:
		return 0, val - 1, val == 0, true
	case CmpLe:
		return 0, val, false, true
	case CmpGt:
		return val + 1, max - val - 1, val == max, true
	case CmpGe:
		return val, max - val, false, true
	}
	return 0, 0, false, false
}

// PackedRange is the range test (f-lo) mod 2^b <= span prepared for the
// b-wide fields of packed words: the window masks and the broadcast
// constants are built once, outside the word loop.
type PackedRange struct {
	even, top uint64 // low half (one field) and top bit of every 2b window
	lo, span  uint64 // lo and span|top in every window
	b         uint
}

// NewPackedRange prepares the test for field width b, which must divide 64
// and leave at least two fields per word (1, 2, 4, 8, 16 or 32); lo and span
// must fit b bits.
func NewPackedRange(lo, span uint64, b uint) PackedRange {
	w := 2 * b
	top := Broadcast(1<<(w-1), w)
	return PackedRange{even: Broadcast(Mask(b), w), top: top, lo: Broadcast(lo, w), span: Broadcast(span, w) | top, b: b}
}

// Match tests every field of the packed word x and returns the top bit of
// each field that satisfies the range test, all other bits zero (see the
// package comment for the layout). Fields a column does not use hold zero and
// are tested like any other; the caller masks them off.
func (p PackedRange) Match(x uint64) uint64 {
	de := ((x&p.even | p.top) - p.lo) & p.even
	do := ((x>>p.b&p.even | p.top) - p.lo) & p.even
	return (p.span-de)&p.top>>p.b | (p.span-do)&p.top
}
