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
		w, err := formats.NewWriter(positionDesc(out, in.N()), 0)
		if err != nil {
			return nil, err
		}
		return w.Close()
	}
	return rt.emitPositions(name, in, out, kernel)
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
