// Comparison predicates of the scan kernels. One predicate shape covers every
// comparison: CmpKind.Range normalises `x op val` (and a between) over a
// domain [0, max] to the wrapped unsigned range test
//
//	(x - lo) mod (max+1)  <=  span
//
// so a scan has a single kernel (SelectRange, SelectRangeAnd) and the
// comparison kind is decided once per operator, never per element. The
// operators normalise over the full 64-bit domain, where the modulus is the
// word's own wrap-around.

package bitutil

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
