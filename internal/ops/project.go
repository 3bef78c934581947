package ops

import (
	"fmt"

	"morphstore/internal/columns"
	"morphstore/internal/formats"
)

// Project gathers data[pos[i]] for every position in pos, producing a column
// of the same length as pos in the requested output format. The positions
// are read sequentially (they are a selection result); the data column is
// read with random access and must therefore be uncompressed or static BP
// (§4.2) — the engine inserts an on-the-fly morph otherwise.
func (rt Runtime) Project(data, pos *columns.Column, out columns.FormatDesc) (*columns.Column, error) {
	if err := checkCols(data, pos); err != nil {
		return nil, err
	}
	// Each worker gets its own accessor, reused across the morsels it
	// claims: the static BP accessor caches the most recently decoded group
	// and must not be shared between goroutines.
	ras := make([]formats.RandomAccessor, rt.Par())
	ra, err := formats.RandomAccess(data)
	if err != nil {
		return nil, fmt.Errorf("ops: project: %w", err)
	}
	ras[0] = ra
	return rt.mapCols("project", pos, nil, out, func(w int, ps, _, dst []uint64) error {
		if err := checkPositions(ps, data.N()); err != nil {
			return err
		}
		if ras[w] == nil {
			ra, err := formats.RandomAccess(data)
			if err != nil {
				return err
			}
			ras[w] = ra
		}
		ras[w].Gather(dst, ps)
		return nil
	})
}

// checkPositions validates that all positions address the data column.
func checkPositions(pos []uint64, n int) error {
	var acc uint64
	for _, p := range pos {
		acc |= p
	}
	if acc >= uint64(n) {
		for _, p := range pos {
			if p >= uint64(n) {
				return fmt.Errorf("position %d out of range [0,%d)", p, n)
			}
		}
	}
	return nil
}
