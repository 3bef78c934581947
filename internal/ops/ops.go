// Package ops implements MorphStore-Go's physical query operators with the
// paper's four degrees of compression integration (§3.2, Fig. 2):
//
//   - purely uncompressed: kernels run directly over uncompressed columns
//     (the zero-copy ValueViewer fast path),
//   - on-the-fly de/re-compression: the default; the paper's three-layer
//     architecture (Fig. 4) with a column layer (the Runtime operator
//     methods and the morsel drivers behind them, drivers.go), a buffer
//     layer (format Readers/Writers working at Lx-cache-resident-block
//     granularity, streamCols), and a kernel layer (format-oblivious
//     loops over one cache-resident block, one loop per kernel: Go has no
//     SIMD, so the paper's vector-register layer is a plain loop here),
//   - specialized operators: direct processing of compressed data (the SWAR
//     select at static BP widths 1 and 2, the run-level sum on RLE), kernels
//     in specialized.go,
//   - on-the-fly morphing: adapting a column's format before/after an
//     operator via internal/morph (driven by the engine in internal/core).
//
// The degree is a function of the input column's descriptor, not a caller's
// choice: an operator runs a direct kernel exactly where the input's format
// and width have one that beats de/re-compression (the dispatch tables in
// select.go and agg.go, measured by BenchmarkDirectKernels), the generic
// kernel everywhere else.
//
// The operator set follows MonetDB's headless-BAT style: every operator
// consumes and produces plain columns of unsigned 64-bit integers; selection
// results are sorted position lists, which are themselves ordinary columns
// and therefore compressible like any other intermediate (DP1).
//
// Every operator has exactly one implementation: a method on Runtime, which
// carries the worker count, the cancellation context and the engine's worker
// budget. Sequential execution is that method on a runtime of width 1
// (FixedRT(1) outside an engine).
package ops

import (
	"fmt"

	"morphstore/internal/bitutil"
	"morphstore/internal/columns"
	"morphstore/internal/formats"
	"morphstore/internal/qerr"
)

// blockBuf is the element capacity of the cache-resident working buffers:
// 2048 elements = 16 KiB, half of a typical 32 KiB L1 data cache, matching
// the paper's evaluation setup (§5).
const blockBuf = formats.BufferLen

// positionDesc refines a requested output format for a position list whose
// values are known a priori to be < n: an auto-width static BP output is
// packed at width bits(n-1) from the first value, so it never widens. That
// width, not the list's own maximum, is part of a position list's layout.
func positionDesc(out columns.FormatDesc, n int) columns.FormatDesc {
	if out.Kind == columns.StaticBP && out.Bits == 0 && n > 0 {
		out.Bits = uint8(bitutil.EffectiveBits(uint64(n - 1)))
	}
	return out
}

// checkCols guards the exported operators against nil inputs.
func checkCols(cs ...*columns.Column) error {
	for _, c := range cs {
		if c == nil {
			return qerr.Tag(fmt.Errorf("ops: nil input column"), qerr.ErrInvalidSchema)
		}
	}
	return nil
}

// sectionReader opens a sequential reader over one partition of col. A
// partition covering the whole column reads through the format's ordinary
// reader, so formats that cannot be sliced (RLE) still stream when an
// operator runs as a single morsel.
func sectionReader(col *columns.Column, pt formats.Partition) (formats.Reader, error) {
	if pt.Start == 0 && pt.Count == col.N() {
		return formats.NewReader(col)
	}
	return formats.NewSectionReader(col, pt.Start, pt.Count)
}

// streamCols is the input side of the buffer layer (Fig. 4), shared by every
// morsel driver: it feeds the elements of partition pt of column a — or of
// the two equally long columns a and b in lockstep when b is non-nil —
// through process in cache-resident chunks of at most blockBuf elements. base
// carries the global element offset of each chunk, so selective kernels emit
// globally correct positions. An uncompressed input is handed out as
// zero-copy sub-slices of the column (the purely-uncompressed degree), alone
// or beside the other input of a lockstep pair. The decode buffers are one
// scratch buffer from the runtime's lease; every writer copies what it is
// handed, so no column references it once it is given back.
func (rt Runtime) streamCols(a, b *columns.Column, pt formats.Partition, process func(va, vb []uint64, base uint64) error) error {
	buf := rt.scratch()
	defer rt.free(buf)
	sa, err := openSource(a, pt, buf[:blockBuf])
	if err != nil {
		return err
	}
	var sb source
	if b != nil {
		if sb, err = openSource(b, pt, buf[blockBuf:]); err != nil {
			return err
		}
	}
	for base := uint64(pt.Start); ; {
		va, err := sa.next(blockBuf, b != nil)
		if err != nil || (len(va) == 0 && b == nil) {
			return err
		}
		var vb []uint64
		if b != nil {
			if vb, err = sb.next(max(len(va), 1), true); err != nil {
				return err
			}
			if len(va) == 0 && len(vb) == 0 {
				return nil
			}
			if len(va) != len(vb) {
				return fmt.Errorf("input columns diverge (%d vs %d elements)", len(va), len(vb))
			}
		}
		if err := process(va, vb, base); err != nil {
			return err
		}
		base += uint64(len(va))
	}
}

// source is one input of streamCols: the zero-copy view of an uncompressed
// section, or a reader decompressing into a cache-resident buffer.
type source struct {
	view []uint64 // values not yet handed out; nil when r decompresses
	r    formats.Reader
	buf  []uint64
}

func openSource(col *columns.Column, pt formats.Partition, buf []uint64) (source, error) {
	r, err := sectionReader(col, pt)
	if err != nil {
		return source{}, err
	}
	if vv, ok := r.(formats.ValueViewer); ok {
		if vals, viewable := vv.View(); viewable {
			return source{view: vals}, nil
		}
	}
	return source{r: r, buf: buf}, nil
}

// next returns the next chunk of at most k elements; an empty chunk once the
// input has ended. A decompressing source fills the chunk when full is set —
// two lockstep inputs must hand out equally long chunks — and returns what
// one Read produces otherwise.
func (s *source) next(k int, full bool) ([]uint64, error) {
	if s.r == nil {
		k = min(k, len(s.view))
		vals := s.view[:k]
		s.view = s.view[k:]
		return vals, nil
	}
	var n int
	var err error
	if full {
		n, err = readFull(s.r, s.buf[:k])
	} else {
		n, err = s.r.Read(s.buf[:k])
	}
	return s.buf[:n], err
}

// readFull reads from r until dst is full or the column is exhausted.
func readFull(r formats.Reader, dst []uint64) (int, error) {
	n := 0
	for n < len(dst) {
		k, err := r.Read(dst[n:])
		if err != nil {
			return n, err
		}
		if k == 0 {
			break
		}
		n += k
	}
	return n, nil
}

// readAll fully decompresses a column (used for small build sides): an
// uncompressed column's own values, or its values decompressed into a
// buffer from the runtime's lease. done gives that buffer back.
func (rt Runtime) readAll(col *columns.Column) (vals []uint64, done func(), err error) {
	if vals, ok := col.Values(); ok {
		return vals, func() {}, nil
	}
	if vals, err = formats.DecompressFrom(rt.bufs, col); err != nil {
		return nil, nil, err
	}
	return vals, func() { rt.free(vals) }, nil
}
