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
	ra, err := formats.RandomAccess(data)
	if err != nil {
		return nil, fmt.Errorf("ops: project: %w", err)
	}
	// The accessor is stateless and checks the positions as it gathers, so
	// one serves every worker.
	return rt.mapCols("project", pos, nil, out, func(ps, _, dst []uint64) error {
		if j := ra.Gather(dst, ps); j >= 0 {
			return fmt.Errorf("position %d out of range [0,%d)", ps[j], data.N())
		}
		return nil
	})
}
