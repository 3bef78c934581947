// Comparison predicates of the scan kernels. One predicate shape covers every
// comparison: CmpKind.Range normalises `x op val` (and a between) over the
// 64-bit domain to the wrapped unsigned range test
//
//	(x - lo) mod 2^64  <=  span
//
// so a scan has a single kernel (SelectRange, SelectRangeAnd) and the
// comparison kind is decided once per operator, never per element. The
// modulus is the word's own wrap-around.

package bitutil

import "math"

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

// Range normalises the predicate `x c val` over the 64-bit domain to the
// wrapped range test x-lo <= span. empty reports a predicate no value
// satisfies (x < 0, x > 2^64-1), for which lo and span are meaningless; ok is
// false for an undefined comparison kind.
func (c CmpKind) Range(val uint64) (lo, span uint64, empty, ok bool) {
	const top = math.MaxUint64
	switch c {
	case CmpEq:
		return val, 0, false, true
	case CmpNe: // everything but val: the range that starts behind it and wraps
		return val + 1, top - 1, false, true
	case CmpLt:
		return 0, val - 1, val == 0, true
	case CmpLe:
		return 0, val, false, true
	case CmpGt:
		return val + 1, top - val - 1, val == top, true
	case CmpGe:
		return val, top - val, false, true
	}
	return 0, 0, false, false
}
