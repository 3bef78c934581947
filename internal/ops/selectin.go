package ops

import (
	"fmt"

	"morphstore/internal/columns"
	"morphstore/internal/qerr"
)

// SelectIn evaluates the set-membership predicate `element IN set` over the
// input column and returns the sorted list of matching positions as a column
// in the requested output format, like SelectAuto. The set must be sorted
// strictly ascending (the string layer hands over translated dictionary IDs
// that way). Membership is the N:1 join's probe with the set as build keys,
// as in SemiJoin: a direct-address table for dense sets, a hash map
// otherwise. An empty set is valid and yields an empty position list through
// the same writer machinery.
func (rt Runtime) SelectIn(in *columns.Column, set []uint64, out columns.FormatDesc) (*columns.Column, error) {
	if err := checkCols(in); err != nil {
		return nil, err
	}
	if err := checkSet(set); err != nil {
		return nil, err
	}
	kernel, freeTable := joinKernel(rt.bufs, set)
	defer freeTable()
	return rt.emitPositions("select in", in, out, scan(in, kernel))
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
