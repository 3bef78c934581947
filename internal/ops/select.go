package ops

import (
	"fmt"

	"morphstore/internal/bitutil"
	"morphstore/internal/columns"
	"morphstore/internal/formats"
	"morphstore/internal/qerr"
	"morphstore/internal/vector"
)

// The selection family has one predicate shape and one kernel. Every
// comparison kind and the between normalise, once per operator, to the
// wrapped unsigned range test v-lo <= span over the 64-bit domain
// (bitutil.CmpKind.Range), which blockKernel runs over every unpacked block
// of every input format.

// SelectAuto evaluates the predicate `element <op> val` over the input column
// and returns the sorted list of matching positions as a column in the
// requested output format. The comparison is normalised to the range test
// once, up front: a predicate no value can satisfy (< 0, > 2^64-1) returns the
// empty position list without a scan, and an undefined op is an
// ErrInvalidSchema error rather than a silent empty result. The operator is
// the on-the-fly de/re-compression operator of Fig. 4 — every morsel of the
// input is decompressed block-wise into a cache-resident buffer, the block
// range kernel emits qualifying positions, and the output is recompressed
// block-wise.
func (rt Runtime) SelectAuto(in *columns.Column, op bitutil.CmpKind, val uint64, out columns.FormatDesc) (*columns.Column, error) {
	if err := checkCols(in); err != nil {
		return nil, err
	}
	lo, span, empty, ok := op.Range(val)
	if !ok {
		return nil, qerr.Tag(fmt.Errorf("ops: select: undefined comparison kind %d", op), qerr.ErrInvalidSchema)
	}
	return rt.selectRange("select", in, out, empty, lo, span)
}

// SelectBetweenAuto evaluates the conjunctive range predicate
// lo <= element <= hi, returning matching positions like SelectAuto: the same
// range test and kernel, with the bounds given directly. An inverted range
// (lo > hi) matches nothing. The style and specialized arguments are ignored:
// the processing style is the CPU's, detected once in package bitutil (see
// package vector).
func (rt Runtime) SelectBetweenAuto(in *columns.Column, lo, hi uint64, out columns.FormatDesc, _ vector.Style, _ bool) (*columns.Column, error) {
	if err := checkCols(in); err != nil {
		return nil, err
	}
	return rt.selectRange("select between", in, out, lo > hi, lo, hi-lo)
}

// SelectBetweenAuto is the single-worker form of Runtime.SelectBetweenAuto.
func SelectBetweenAuto(in *columns.Column, lo, hi uint64, out columns.FormatDesc, style vector.Style, specialized bool) (*columns.Column, error) {
	return FixedRT(1).SelectBetweenAuto(in, lo, hi, out, style, specialized)
}

// selectRange runs the range test v-lo <= span through the emit driver. The
// test has no encoding for "nothing matches"; an empty predicate is answered
// here, once, for every input format.
func (rt Runtime) selectRange(name string, in *columns.Column, out columns.FormatDesc, empty bool, lo, span uint64) (*columns.Column, error) {
	if empty {
		w, err := formats.NewWriterFrom(rt.bufs, positionDesc(out, in.N()), 0)
		if err != nil {
			return nil, err
		}
		return w.Close()
	}
	return rt.emitPositions(name, in, out, scan(in, blockKernel(lo, span)))
}

// SelectAnd evaluates the conjunction of two range tests over the equally
// long columns a and b — a[i]-loA <= spanA and b[i]-loB <= spanB, the
// normalised form of bitutil.CmpKind.Range and of a between over the 64-bit
// domain — and returns the sorted positions where both hold, in format out.
// It is the select → select → intersect triple of a conjunction as one
// operator: both columns stream in lockstep through the emit driver and no
// per-predicate position list is written. The positions are exactly the
// intersection of the two selections, so a caller that would have passed the
// intersection's output format gets the intersection's bytes. An empty
// predicate (no range form) is the caller's to answer.
func (rt Runtime) SelectAnd(a *columns.Column, loA, spanA uint64, b *columns.Column, loB, spanB uint64, out columns.FormatDesc) (*columns.Column, error) {
	if err := checkCols(a, b); err != nil {
		return nil, err
	}
	if a.N() != b.N() {
		return nil, qerr.Tag(fmt.Errorf("ops: select and: columns of %d and %d elements", a.N(), b.N()), qerr.ErrInvalidSchema)
	}
	cols, err := rt.emit("select and", a, b, []emitOut{{out, a.N()}},
		func(rt Runtime, pt formats.Partition, stage [][]uint64, sinks []formats.Writer) error {
			return rt.streamCols(a, b, pt, func(va, vb []uint64, base uint64) error {
				return flush(stage, bitutil.SelectRangeAnd(va, vb, base, loA, spanA, loB, spanB, stage[0]), sinks)
			})
		})
	if err != nil {
		return nil, err
	}
	return cols[0], nil
}

// blockKernel is the range test over one unpacked block (bitutil.SelectRange).
func blockKernel(lo, span uint64) chunkKernel {
	return func(vals []uint64, base uint64, stage [][]uint64) int {
		return bitutil.SelectRange(vals, base, lo, span, stage[0])
	}
}
