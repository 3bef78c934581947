package ops

import (
	"morphstore/internal/columns"
	"morphstore/internal/formats"
)

// This file implements the compressed stitch: materializing the logical
// concatenation of per-morsel output chunks as one column in the requested
// format. One formats.Writer consumes the chunks in morsel order at every
// parallelism, the output half of the buffer layer, so a split operator's
// output is the sequential operator's byte for byte and every format has one
// encode path.

// StitchCompressed compresses the logical concatenation of chunks into a
// column of the requested format through one formats.Writer. par is unused:
// the stitch is serial at every parallelism, and the argument stays for the
// callers that pass it.
func StitchCompressed(desc columns.FormatDesc, sizeHint int, chunks [][]uint64, par int) (*columns.Column, error) {
	return FixedRT(par).stitchCompressed(desc, sizeHint, chunks)
}

// stitchCompressed is the runtime form of StitchCompressed: the writer's
// buffers come from the runtime's lease.
func (rt Runtime) stitchCompressed(desc columns.FormatDesc, sizeHint int, chunks [][]uint64) (*columns.Column, error) {
	w, err := formats.NewWriterFrom(rt.bufs, desc, sizeHint)
	if err != nil {
		return nil, err
	}
	for _, c := range chunks {
		if err := w.Write(c); err != nil {
			return nil, err
		}
	}
	return w.Close()
}
