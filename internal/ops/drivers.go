package ops

import (
	"fmt"

	"morphstore/internal/bufpool"
	"morphstore/internal/columns"
	"morphstore/internal/formats"
)

// This file implements the three morsel drivers every streamed operator runs
// through. An operator is a kernel plus a choice of driver:
//
//   - emit: variable-length output, one or two row-aligned streams, over one
//     input or two in lockstep (select, between, the fused two-column select,
//     and the N:1 join's probe, which semijoin and select-in share),
//   - mapCols: exactly one output value per input element (project, calc),
//   - reduce: a fixed-width partial folded over the input (sum, grouped sum).
//
// Each driver checks cancellation, splits the streamed input into contiguous
// block-aligned morsels (formats.SplitColumnMorsels) and lets worker
// goroutines claim them from the work queue (runParts). emit stitches the
// per-morsel outputs in morsel order through one writer per output stream,
// mapCols has the workers fill one shared buffer that one writer then
// encodes, and reduce merges the workers' partials. Morsels are processed
// with their global element offset as the position base, so position lists
// stay globally sorted and the stitched column holds exactly the bytes one
// writer consuming the whole stream would produce.
//
// When the input does not split — one worker, a format that cannot be sliced
// (RLE), or too few elements — the driver runs the same kernel once over
// [0, N) on the calling goroutine, writing straight into the compressed
// output writer with no staged copy. "Sequential" is therefore not a second
// implementation, just the runtime at width 1.

// split cuts the streamed input — two lockstep inputs at shared boundaries
// when b is non-nil — into work-queue morsels. A nil result means the
// operator runs as one morsel on the calling goroutine, recorded as a
// sequential fallback.
func (rt Runtime) split(a, b *columns.Column) []formats.Partition {
	var parts []formats.Partition
	if b == nil {
		parts = formats.SplitColumnMorsels(a, rt.Par())
	} else {
		parts = formats.SplitColumnsAlignedMorsels(a, b, rt.Par())
	}
	if parts == nil {
		rt.coll.SeqFallback()
	}
	return parts
}

// whole is the single morsel of an input that did not split.
func whole(col *columns.Column) formats.Partition { return formats.Partition{Count: col.N()} }

// appendSink is the per-morsel output of the emit driver: it stages a
// morsel's output values, in a buffer from the lease, behind the
// formats.Writer interface, so a kernel writes to the compressed output
// writer and to a morsel buffer alike.
type appendSink struct {
	vals []uint64
	bufs *bufpool.Lease
}

func (s *appendSink) Write(v []uint64) error {
	s.vals = s.bufs.Append(s.vals, v...)
	return nil
}

func (s *appendSink) Close() (*columns.Column, error) {
	return columns.FromValues(s.vals), nil
}

// emitOut describes one output stream of the emit driver: its format and an
// upper bound on its rows, which sizes its writer and its stitch.
type emitOut struct {
	desc columns.FormatDesc
	hint int
}

// emitKernel processes one morsel of the emit driver's input: it writes the
// morsel's output rows to sinks (one per output stream, row-aligned), using
// stage — two blockBuf-element buffers, whatever the number of outputs — as
// its scratch and rt's lease for any buffer of its own.
type emitKernel func(rt Runtime, pt formats.Partition, stage [][]uint64, sinks []formats.Writer) error

// chunkKernel fills stage with the output rows of vals (at most blockBuf
// elements whose first has global position base) and returns their count.
type chunkKernel func(vals []uint64, base uint64, stage [][]uint64) int

// scan adapts a chunk kernel to an emitKernel streaming the morsel's values
// through the de/re-compression wrapper.
func scan(in *columns.Column, chunk chunkKernel) emitKernel {
	return func(rt Runtime, pt formats.Partition, stage [][]uint64, sinks []formats.Writer) error {
		return rt.streamCols(in, nil, pt, func(vals, _ []uint64, base uint64) error {
			return flush(stage, chunk(vals, base, stage), sinks)
		})
	}
}

// flush writes the first k staged rows to the sinks.
func flush(stage [][]uint64, k int, sinks []formats.Writer) error {
	for o, w := range sinks {
		if err := w.Write(stage[o][:k]); err != nil {
			return err
		}
	}
	return nil
}

// runStaged runs kernel over pt with both halves of a scratch buffer as its
// stage, so a kernel that stages two rows per match (the join's probe) feeds
// an operator with one sink too: flush writes only the stages it has sinks
// for.
func (rt Runtime) runStaged(kernel emitKernel, pt formats.Partition, sinks []formats.Writer) error {
	buf := rt.scratch()
	defer rt.free(buf)
	return kernel(rt, pt, [][]uint64{buf[:blockBuf], buf[blockBuf:]}, sinks)
}

// emit is the variable-length-output driver: kernel runs once per morsel of
// in — of in and b at shared boundaries when b is non-nil — and the
// per-morsel outputs are stitched, per output stream, in morsel order. A
// morsel's buffer starts at an eighth of the morsel and grows by append.
// Each morsel's staged rows are charged to the query's memory counter, and
// released with the morsel buffers once the stitch has copied them.
func (rt Runtime) emit(name string, in, b *columns.Column, outs []emitOut, kernel emitKernel) ([]*columns.Column, error) {
	if err := rt.Err(); err != nil {
		return nil, err
	}
	cols := make([]*columns.Column, len(outs))
	parts := rt.split(in, b)
	if parts == nil {
		sinks := make([]formats.Writer, len(outs))
		for o, out := range outs {
			w, err := formats.NewWriterFrom(rt.bufs, out.desc, out.hint)
			if err != nil {
				return nil, err
			}
			sinks[o] = w
		}
		if err := rt.runStaged(kernel, whole(in), sinks); err != nil {
			return nil, fmt.Errorf("ops: %s: %w", name, err)
		}
		for o, w := range sinks {
			col, err := w.Close()
			if err != nil {
				return nil, err
			}
			cols[o] = col
		}
		return cols, nil
	}
	results := make([][][]uint64, len(outs)) // [output][morsel]
	for o := range results {
		results[o] = make([][]uint64, len(parts))
	}
	// The morsel buffers are staging: given back, and their charge released,
	// however the driver ends.
	defer func() {
		for _, r := range results {
			for _, vals := range r {
				rt.releaseMem(8 * len(vals))
				rt.free(vals)
			}
		}
	}()
	err := rt.runParts(parts, func(_, i int, pt formats.Partition) error {
		local := make([]appendSink, len(outs))
		sinks := make([]formats.Writer, len(outs))
		for o := range outs {
			local[o] = appendSink{rt.bufs.Get(pt.Count/8 + 16)[:0], rt.bufs}
			sinks[o] = &local[o]
		}
		err := rt.runStaged(kernel, pt, sinks)
		for o := range local {
			results[o][i] = local[o].vals
			rt.ChargeMem(8 * len(local[o].vals))
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("ops: %s: %w", name, err)
	}
	for o, out := range outs {
		if cols[o], err = rt.stitchCompressed(out.desc, out.hint, results[o]); err != nil {
			return nil, err
		}
	}
	return cols, nil
}

// emitPositions is emit for the common single position-list output over the
// elements of in.
func (rt Runtime) emitPositions(name string, in *columns.Column, out columns.FormatDesc, kernel emitKernel) (*columns.Column, error) {
	cols, err := rt.emit(name, in, nil, []emitOut{{positionDesc(out, in.N()), in.N()}}, kernel)
	if err != nil {
		return nil, err
	}
	return cols[0], nil
}

// mapKernel computes one output value per element of a chunk: dst[i] from
// a[i] (and b[i] for a dual-input operator; b is nil otherwise). It keeps no
// state, so every worker runs the same kernel.
type mapKernel func(a, b, dst []uint64) error

// mapCols is the one-value-per-element driver over input a, or over a and b
// in lockstep. Output offsets are known a priori, so the workers write into
// disjoint ranges of one shared destination, charged to the query's memory
// counter, which the compressed stitch then compresses and which is given
// back and released; an unsplit input streams chunk by chunk into the output
// writer instead.
func (rt Runtime) mapCols(name string, a, b *columns.Column, out columns.FormatDesc, kernel mapKernel) (*columns.Column, error) {
	if err := rt.Err(); err != nil {
		return nil, err
	}
	parts := rt.split(a, b)
	if parts == nil {
		w, err := formats.NewWriterFrom(rt.bufs, out, a.N())
		if err != nil {
			return nil, err
		}
		buf := rt.scratch()
		defer rt.free(buf)
		stage := buf[:blockBuf]
		err = rt.streamCols(a, b, whole(a), func(va, vb []uint64, _ uint64) error {
			if err := kernel(va, vb, stage[:len(va)]); err != nil {
				return err
			}
			return w.Write(stage[:len(va)])
		})
		if err != nil {
			return nil, fmt.Errorf("ops: %s: %w", name, err)
		}
		return w.Close()
	}
	dst := rt.bufs.Get(a.N()) // every element is written by its morsel
	rt.ChargeMem(8 * len(dst))
	defer func() {
		rt.releaseMem(8 * len(dst))
		rt.free(dst)
	}()
	err := rt.runParts(parts, func(_, _ int, pt formats.Partition) error {
		return rt.streamCols(a, b, pt, func(va, vb []uint64, base uint64) error {
			return kernel(va, vb, dst[base:base+uint64(len(va))])
		})
	})
	if err != nil {
		return nil, fmt.Errorf("ops: %s: %w", name, err)
	}
	return rt.stitchCompressed(out, a.N(), [][]uint64{dst})
}

// reduceKernel folds one morsel into acc, a partial of the driver's width.
type reduceKernel func(rt Runtime, acc []uint64, pt formats.Partition) error

// reduce is the aggregation driver over input a, or over a and b in
// lockstep: every worker folds the morsels it claims into its own
// width-element partial and the partials merge by element-wise addition
// modulo 2^64 — commutative and associative, so the result is identical no
// matter which worker claimed which morsel. Each worker zeroes and the merge
// re-adds a whole partial; when the partial is wide relative to a worker's
// share of the elements (a high-cardinality grouping) that outweighs the
// parallelized scan and the input is folded as one morsel instead.
func (rt Runtime) reduce(name string, a, b *columns.Column, width int, kernel reduceKernel) ([]uint64, error) {
	if err := rt.Err(); err != nil {
		return nil, err
	}
	parts := rt.split(a, b)
	if parts != nil && width > a.N()/rt.workers(len(parts)) {
		rt.coll.SeqFallback()
		parts = nil
	}
	total := rt.bufs.Get(width) // the caller's output column
	clear(total)
	if parts == nil {
		if err := kernel(rt, total, whole(a)); err != nil {
			return nil, fmt.Errorf("ops: %s: %w", name, err)
		}
		return total, nil
	}
	partials := make([][]uint64, rt.workers(len(parts)))
	defer func() {
		for _, partial := range partials {
			rt.free(partial)
		}
	}()
	err := rt.runParts(parts, func(w, _ int, pt formats.Partition) error {
		if partials[w] == nil {
			partials[w] = rt.bufs.Get(width)
			clear(partials[w])
		}
		return kernel(rt, partials[w], pt)
	})
	if err != nil {
		return nil, fmt.Errorf("ops: %s: %w", name, err)
	}
	for _, partial := range partials {
		for i, v := range partial {
			total[i] += v
		}
	}
	return total, nil
}
