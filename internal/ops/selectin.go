package ops

import (
	"fmt"

	"morphstore/internal/columns"
	"morphstore/internal/qerr"
	"morphstore/internal/vector"
)

// SelectIn evaluates the set-membership predicate `element IN set` over the
// input column and returns the sorted list of matching positions as a column
// in the requested output format, like SelectAuto. The set must be sorted
// strictly ascending (the string layer hands over translated dictionary IDs
// that way); membership is a branch-free galloping binary search for large
// sets and a linear probe for small ones. An empty set is valid and yields
// an empty position list through the same writer machinery, so the result
// bytes stay identical across kernels for a given output descriptor. The
// kernel is scalar for every style: membership has no vector form here, and
// position output stays byte-identical regardless.
func (rt Runtime) SelectIn(in *columns.Column, set []uint64, out columns.FormatDesc, _ vector.Style) (*columns.Column, error) {
	if err := checkCols(in); err != nil {
		return nil, err
	}
	if err := checkSet(set); err != nil {
		return nil, err
	}
	return rt.emitPositions("select in", in, out, scan(in, func(vals []uint64, base uint64, stage [][]uint64) int {
		return selectInKernel(vals, base, set, stage[0])
	}))
}

// checkSet validates the membership set's sort contract.
func checkSet(set []uint64) error {
	for i := 1; i < len(set); i++ {
		if set[i] <= set[i-1] {
			return qerr.Tag(fmt.Errorf("ops: select in: set not strictly ascending at index %d", i), qerr.ErrInvalidSchema)
		}
	}
	return nil
}

// linearSetMax is the set size below which a linear probe beats the binary
// search's branch mispredictions.
const linearSetMax = 8

// selectInKernel emits the positions of vals whose element is in the sorted
// set.
func selectInKernel(vals []uint64, base uint64, set []uint64, stage []uint64) int {
	k := 0
	if len(set) == 0 {
		return 0
	}
	if len(set) <= linearSetMax {
		for i, v := range vals {
			for _, s := range set {
				if v == s {
					stage[k] = base + uint64(i)
					k++
					break
				}
				if v < s {
					break
				}
			}
		}
		return k
	}
	lo0, hi0 := set[0], set[len(set)-1]
	for i, v := range vals {
		if v < lo0 || v > hi0 {
			continue
		}
		lo, hi := 0, len(set)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if set[mid] < v {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(set) && set[lo] == v {
			stage[k] = base + uint64(i)
			k++
		}
	}
	return k
}
