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
//   - specialized operators: direct processing of compressed data
//     (SWAR select/sum on static BP, per-block sums on DynBP, run-level
//     select/sum on RLE), kernels in specialized.go,
//   - on-the-fly morphing: adapting a column's format before/after an
//     operator via internal/morph (driven by the engine in internal/core).
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
// values are known a priori to be < n: an auto-width static BP output can
// then be packed streamingly at width bits(n-1) instead of buffering the
// whole column to find the maximum.
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
// globally correct positions. A single uncompressed input is handed out as
// zero-copy sub-slices of the column (the purely-uncompressed degree).
func streamCols(a, b *columns.Column, pt formats.Partition, process func(va, vb []uint64, base uint64) error) error {
	ra, err := sectionReader(a, pt)
	if err != nil {
		return err
	}
	base := uint64(pt.Start)
	if b == nil {
		if vv, ok := ra.(formats.ValueViewer); ok {
			if vals, viewable := vv.View(); viewable {
				for len(vals) > 0 {
					k := min(len(vals), blockBuf)
					if err := process(vals[:k], nil, base); err != nil {
						return err
					}
					vals, base = vals[k:], base+uint64(k)
				}
				return nil
			}
		}
		buf := make([]uint64, blockBuf)
		for {
			k, err := ra.Read(buf)
			if err != nil || k == 0 {
				return err
			}
			if err := process(buf[:k], nil, base); err != nil {
				return err
			}
			base += uint64(k)
		}
	}
	rb, err := sectionReader(b, pt)
	if err != nil {
		return err
	}
	bufA := make([]uint64, blockBuf)
	bufB := make([]uint64, blockBuf)
	for {
		na, err := readFull(ra, bufA)
		if err != nil {
			return err
		}
		nb, err := readFull(rb, bufB[:max(na, 1)])
		if err != nil {
			return err
		}
		if na == 0 && nb == 0 {
			return nil
		}
		if na != nb {
			return fmt.Errorf("input columns diverge (%d vs %d elements)", na, nb)
		}
		if err := process(bufA[:na], bufB[:nb], base); err != nil {
			return err
		}
		base += uint64(na)
	}
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

// readAll fully decompresses a column (used for small build sides).
func readAll(col *columns.Column) ([]uint64, error) {
	if vals, ok := col.Values(); ok {
		return vals, nil
	}
	return formats.Decompress(col)
}
