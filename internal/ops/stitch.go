package ops

import (
	"morphstore/internal/bitutil"
	"morphstore/internal/columns"
	"morphstore/internal/faultpoint"
	"morphstore/internal/formats"
)

// This file implements the compressed stitch: materializing the logical
// concatenation of per-morsel output chunks as one column in the requested
// format. The old stitch pushed every element through one sequential writer —
// an Amdahl bottleneck that grew with selectivity and worker count. Now the
// output stream is cut at block boundaries of the target format, each section
// is compressed by a worker goroutine into an independent partial column, and
// formats.ConcatCompressed splices the partial columns by whole-block copies,
// rebasing the first block of each DeltaBP part onto its preceding stream
// element. The only remaining sequential work is the final block-granular
// memcpy, so the stitched column stays byte-identical to the sequential
// operator's at a fraction of the serial cost.

// StitchCompressed compresses the logical concatenation of chunks into a
// column of the requested format, using up to par section-compression
// workers. It produces exactly the bytes a single formats.Writer consuming
// the chunks in order would (the sequential operators' output contract), and
// falls back to that single writer when the output is too small to cut, the
// format gains nothing from sectioning (uncompressed output is a single
// copy already), or par <= 1.
func StitchCompressed(desc columns.FormatDesc, sizeHint int, chunks [][]uint64, par int) (*columns.Column, error) {
	return FixedRT(par).stitchCompressed(desc, sizeHint, chunks)
}

// stitchCompressed is the runtime form of StitchCompressed, sharing the
// engine's worker budget and the operator's cancellation context with the
// section workers.
func (rt Runtime) stitchCompressed(desc columns.FormatDesc, sizeHint int, chunks [][]uint64) (*columns.Column, error) {
	total := 0
	for _, c := range chunks {
		total += len(c)
	}
	if rt.Par() > 1 && total >= 2*formats.MinMorsel && desc.Kind != columns.Uncompressed {
		col, done, err := rt.stitchParallel(desc, chunks, total)
		if done || err != nil {
			return col, err
		}
	}
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

// stitchParallel is the sectioned path of stitchCompressed; done reports
// whether it applied (false sends the caller to the serial writer).
func (rt Runtime) stitchParallel(desc columns.FormatDesc, chunks [][]uint64, total int) (col *columns.Column, done bool, err error) {
	d := desc
	if d.Kind == columns.StaticBP && d.Bits == 0 {
		// The monolithic auto-width writer packs at the running maximum width
		// and widens what it has packed when a wider value arrives; sections
		// packed that way would end at different widths. Deriving the global
		// width up front lets every section pack at it and concatenate by
		// pure bit-copies.
		b, err := rt.maxBitsChunks(chunks)
		if err != nil {
			return nil, true, err
		}
		if b == 0 {
			return nil, false, nil // all-zero stream: zero-width column, serial is trivial
		}
		d.Bits = uint8(b)
	}
	align := formats.ConcatAlign(d.Kind)
	if align == 0 {
		return nil, false, nil
	}
	ranges := formats.SplitRange(total, rt.Par(), align)
	if ranges == nil {
		return nil, false, nil
	}
	parts := make([]*columns.Column, len(ranges))
	// The sections are staging: given back, and their charge released, once
	// the concatenation has copied them or the stitch failed.
	defer func() {
		for _, c := range parts {
			if c != nil {
				rt.releaseMem(c.PhysicalBytes())
				rt.free(c.Words())
			}
		}
	}()
	err = rt.runParts(ranges, func(_, i int, pt formats.Partition) error {
		if err := faultpoint.StitchSeam.Hit(); err != nil {
			return err
		}
		w, err := formats.NewWriterFrom(rt.bufs, d, pt.Count)
		if err != nil {
			return err
		}
		if err := feedChunks(chunks, pt.Start, pt.Count, w.Write); err != nil {
			return err
		}
		c, err := w.Close()
		if err != nil {
			return err
		}
		// The section's compressed buffer is a transient intermediate beyond
		// the final column: charge it to the query's memory counter so
		// MemPeak sees the stitch's real peak, not just the concat.
		rt.ChargeMem(c.PhysicalBytes())
		parts[i] = c
		return nil
	})
	if err != nil {
		return nil, true, err
	}
	col, err = formats.ConcatFrom(rt.bufs, d, parts)
	return col, true, err
}

// maxBitsChunks returns the effective bit width of the widest element across
// all chunks, scanning concurrently. Large chunks are subdivided so the scan
// parallelizes even for the single-chunk streams the map driver hands to the
// stitch. The scan runs under the runtime's guarded
// task loop: a cancelled or fault-injected scan reports its error instead of
// handing the section writers a silently underestimated width.
func (rt Runtime) maxBitsChunks(chunks [][]uint64) (uint, error) {
	var pieces [][]uint64
	for _, c := range chunks {
		for len(c) > 0 {
			k := min(len(c), formats.MinMorsel*morselScanFactor)
			pieces = append(pieces, c[:k])
			c = c[k:]
		}
	}
	maxes := make([]uint, len(pieces))
	err := rt.runTasks(len(pieces), func(_, i int) error {
		maxes[i] = bitutil.MaxBits(pieces[i])
		return nil
	})
	if err != nil {
		return 0, err
	}
	b := uint(0)
	for _, m := range maxes {
		b = max(b, m)
	}
	return b, nil
}

// morselScanFactor sizes the width-scan pieces: the scan touches one word
// per element (much cheaper than compression), so coarser pieces than the
// compression morsels keep the goroutine count low.
const morselScanFactor = 16

// feedChunks passes the element range [start, start+count) of the logical
// concatenation of chunks to write as zero-copy sub-slices.
func feedChunks(chunks [][]uint64, start, count int, write func([]uint64) error) error {
	for _, c := range chunks {
		if count == 0 {
			return nil
		}
		if start >= len(c) {
			start -= len(c)
			continue
		}
		k := min(len(c)-start, count)
		if err := write(c[start : start+k]); err != nil {
			return err
		}
		start = 0
		count -= k
	}
	return nil
}
