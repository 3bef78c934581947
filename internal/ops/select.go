package ops

import (
	"fmt"
	"math"
	"math/bits"

	"morphstore/internal/bitutil"
	"morphstore/internal/columns"
	"morphstore/internal/formats"
	"morphstore/internal/qerr"
	"morphstore/internal/vector"
)

// The selection family has one predicate shape. Every comparison kind and the
// between normalise, once per operator, to the wrapped unsigned range test
// v-lo <= span (bitutil.CmpKind.Range), and the input column's descriptor
// alone picks the kernel (selectDomain, rangeKernel):
//
//	static BP, width 1 or 2, constant in the field range  swarSelect on the packed words
//	every other format and width                         blockKernel on unpacked blocks
//
// BenchmarkDirectKernels is the evidence: the SWAR test loses to unpack +
// block kernel from width 4 up.

// SelectAuto evaluates the predicate `element <op> val` over the input column
// and returns the sorted list of matching positions as a column in the
// requested output format. The comparison is normalised to the range test
// once, up front: a predicate no value can satisfy (< 0, > max) returns the
// empty position list without a scan, and an undefined op is an
// ErrInvalidSchema error rather than a silent empty result. The operator is
// the on-the-fly de/re-compression operator of Fig. 4 — every morsel of the
// input is decompressed block-wise into a cache-resident buffer, the block
// range kernel emits qualifying positions, and the output is recompressed
// block-wise — except where the input's format has a direct kernel that is
// faster (the table above; the selective employment of §3.3). The positions,
// and therefore the output bytes, are the same on every path.
func (rt Runtime) SelectAuto(in *columns.Column, op bitutil.CmpKind, val uint64, out columns.FormatDesc) (*columns.Column, error) {
	if err := checkCols(in); err != nil {
		return nil, err
	}
	max, swar := selectDomain(in, val)
	lo, span, empty, ok := op.Range(val, max)
	if !ok {
		return nil, qerr.Tag(fmt.Errorf("ops: select: undefined comparison kind %d", op), qerr.ErrInvalidSchema)
	}
	return rt.selectRange("select", in, out, empty, rangeKernel(in, lo, span, swar))
}

// SelectBetweenAuto evaluates the conjunctive range predicate
// lo <= element <= hi, returning matching positions like SelectAuto: the same
// range test and kernel dispatch, with the bounds given directly. An inverted
// range (lo > hi) matches nothing. The style and specialized arguments are
// ignored: every kernel has one loop (see package vector), and the input's
// format picks the kernel.
func (rt Runtime) SelectBetweenAuto(in *columns.Column, lo, hi uint64, out columns.FormatDesc, _ vector.Style, _ bool) (*columns.Column, error) {
	if err := checkCols(in); err != nil {
		return nil, err
	}
	// Values above the domain can never match, so the upper bound clamps.
	max, swar := selectDomain(in, lo)
	return rt.selectRange("select between", in, out, lo > hi, rangeKernel(in, lo, min(hi, max)-lo, swar))
}

// SelectBetweenAuto is the single-worker form of Runtime.SelectBetweenAuto.
func SelectBetweenAuto(in *columns.Column, lo, hi uint64, out columns.FormatDesc, style vector.Style, specialized bool) (*columns.Column, error) {
	return FixedRT(1).SelectBetweenAuto(in, lo, hi, out, style, specialized)
}

// selectDomain decides whether the SWAR kernel runs for the input and the
// predicate constant c (a between's lower bound) — a static BP column at
// width 1 or 2 whose fields can hold c; a constant beyond the field range
// decides the predicate for every field alike and is left to the block
// kernel — and returns the largest value of the domain the predicate is
// normalised over: the field range when it does, all of uint64 otherwise.
func selectDomain(in *columns.Column, c uint64) (max uint64, swar bool) {
	d := in.Desc()
	if b := uint(d.Bits); d.Kind == columns.StaticBP && (b == 1 || b == 2) && c <= bitutil.Mask(b) {
		return bitutil.Mask(b), true
	}
	return math.MaxUint64, false
}

// rangeKernel picks the kernel of the range test v-lo <= span for the input:
// the SWAR test where selectDomain chose it, the block kernel behind the
// de/re-compression wrapper everywhere else.
func rangeKernel(in *columns.Column, lo, span uint64, swar bool) emitKernel {
	if swar {
		return swarSelect(in, lo, span)
	}
	return scan(in, blockKernel(lo, span))
}

// selectRange runs a range kernel through the emit driver. The kernels test
// v-lo <= span, which has no encoding for "nothing matches"; an empty
// predicate is answered here, once, for every kernel and input format.
func (rt Runtime) selectRange(name string, in *columns.Column, out columns.FormatDesc, empty bool, kernel emitKernel) (*columns.Column, error) {
	if empty {
		w, err := formats.NewWriterFrom(rt.bufs, positionDesc(out, in.N()), 0)
		if err != nil {
			return nil, err
		}
		return w.Close()
	}
	return rt.emitPositions(name, in, out, kernel)
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
	kernel := andKernel(loA, spanA, loB, spanB)
	cols, err := rt.emit("select and", a, b, []emitOut{{out, a.N()}},
		func(rt Runtime, pt formats.Partition, stage [][]uint64, sinks []formats.Writer) error {
			return rt.streamCols(a, b, pt, func(va, vb []uint64, base uint64) error {
				return flush(stage, kernel(va, vb, base, stage[0]), sinks)
			})
		})
	if err != nil {
		return nil, err
	}
	return cols[0], nil
}

// andKernel is the two-test kernel over one lockstep chunk, in two predicated
// passes: the first stages the chunk-local indices passing the first test
// (blockKernel's compress-store), the second compacts them in place to those
// whose second value passes too and turns them into global positions. The
// second pass touches only the first pass's survivors, so a selective first
// test makes it cheap.
func andKernel(loA, spanA, loB, spanB uint64) func(va, vb []uint64, base uint64, out []uint64) int {
	return func(va, vb []uint64, base uint64, out []uint64) int {
		k := 0
		for i, v := range va {
			out[k] = uint64(i)
			_, miss := bits.Sub64(spanA, v-loA, 0)
			k += int(1 - miss)
		}
		m := 0
		for _, i := range out[:k] {
			out[m] = base + i
			_, miss := bits.Sub64(spanB, vb[i]-loB, 0)
			m += int(1 - miss)
		}
		return m
	}
}

// blockKernel is the range test over one unpacked block. It is predicated
// like a masked compress-store: every position is staged unconditionally and
// the cursor advances by the match bit — the complement of the borrow of
// span - (v-lo) — so the loop has no data-dependent branch and costs the same
// at every selectivity.
func blockKernel(lo, span uint64) chunkKernel {
	return func(vals []uint64, base uint64, stage [][]uint64) int {
		out, k := stage[0], 0
		for i, v := range vals {
			out[k] = base + uint64(i)
			_, miss := bits.Sub64(span, v-lo, 0)
			k += int(1 - miss)
		}
		return k
	}
}
