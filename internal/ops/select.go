package ops

import (
	"morphstore/internal/bitutil"
	"morphstore/internal/columns"
	"morphstore/internal/formats"
	"morphstore/internal/vector"
)

// SelectAuto evaluates the predicate `element <op> val` over the input column
// and returns the sorted list of matching positions as a column in the
// requested output format. By default it is the on-the-fly de/re-compression
// operator of Fig. 4: every morsel of the input is decompressed block-wise
// into a cache-resident buffer, the vector-register-layer kernel emits
// qualifying positions, and the output is recompressed block-wise. With
// specialized set, inputs that have a direct kernel are processed without
// decompression instead — the SWAR select on the packed words of a static BP
// column, the run-level select on RLE — the selective-employment policy of
// §3.3; the positions, and therefore the output bytes, are the same.
func (rt Runtime) SelectAuto(in *columns.Column, op bitutil.CmpKind, val uint64, out columns.FormatDesc, style vector.Style, specialized bool) (*columns.Column, error) {
	if err := checkCols(in); err != nil {
		return nil, err
	}
	kernel := scan(in, func(vals []uint64, base uint64, stage [][]uint64) int {
		if style == vector.Vec512 {
			return selectKernelVec(vals, base, op, val, stage[0])
		}
		return selectKernelScalar(vals, base, op, val, stage[0])
	})
	switch {
	case specialized && swarOK(in, val):
		b := uint(in.Desc().Bits)
		yb := bitutil.Broadcast(val, b)
		kernel = swarSelect(in, func(words, dst []uint64) {
			for i, word := range words {
				dst[i] = bitutil.CmpPackedWord(word, yb, b, op)
			}
		})
	case specialized && in.Desc().Kind == columns.RLE:
		kernel = rleSelect(in, op, val)
	}
	return rt.emitPositions("select", in, out, kernel)
}

// selectKernelScalar is the scalar specialization of the select core.
func selectKernelScalar(vals []uint64, base uint64, op bitutil.CmpKind, val uint64, stage []uint64) int {
	k := 0
	switch op {
	case bitutil.CmpEq:
		for i, v := range vals {
			if v == val {
				stage[k] = base + uint64(i)
				k++
			}
		}
	case bitutil.CmpNe:
		for i, v := range vals {
			if v != val {
				stage[k] = base + uint64(i)
				k++
			}
		}
	case bitutil.CmpLt:
		for i, v := range vals {
			if v < val {
				stage[k] = base + uint64(i)
				k++
			}
		}
	case bitutil.CmpLe:
		for i, v := range vals {
			if v <= val {
				stage[k] = base + uint64(i)
				k++
			}
		}
	case bitutil.CmpGt:
		for i, v := range vals {
			if v > val {
				stage[k] = base + uint64(i)
				k++
			}
		}
	case bitutil.CmpGe:
		for i, v := range vals {
			if v >= val {
				stage[k] = base + uint64(i)
				k++
			}
		}
	}
	return k
}

// vecCmp applies the comparison to two registers, producing a lane mask.
func vecCmp(a, b vector.Vec, op bitutil.CmpKind) vector.Mask {
	switch op {
	case bitutil.CmpEq:
		return vector.CmpEq(a, b)
	case bitutil.CmpNe:
		return vector.CmpNe(a, b)
	case bitutil.CmpLt:
		return vector.CmpLt(a, b)
	case bitutil.CmpLe:
		return vector.CmpLe(a, b)
	case bitutil.CmpGt:
		return vector.CmpGt(a, b)
	case bitutil.CmpGe:
		return vector.CmpGe(a, b)
	default:
		return 0
	}
}

// selectKernelVec is the Vec512 specialization: compare eight lanes at a
// time and compress-store the qualifying positions.
func selectKernelVec(vals []uint64, base uint64, op bitutil.CmpKind, val uint64, stage []uint64) int {
	bcast := vector.Set1(val)
	k := 0
	i := 0
	for ; i+vector.Lanes <= len(vals); i += vector.Lanes {
		v := vector.Load(vals[i:])
		m := vecCmp(v, bcast, op)
		if m != 0 {
			k += vector.CompressStore(stage[k:], m, vector.SeqFrom(base+uint64(i)))
		}
	}
	for ; i < len(vals); i++ {
		if op.Eval(vals[i], val) {
			stage[k] = base + uint64(i)
			k++
		}
	}
	return k
}

// SelectBetweenAuto evaluates the conjunctive range predicate
// lo <= element <= hi, returning matching positions like SelectAuto; the
// specialized form combines two SWAR comparison masks per packed word of a
// static BP column. An inverted range (lo > hi) matches nothing.
func (rt Runtime) SelectBetweenAuto(in *columns.Column, lo, hi uint64, out columns.FormatDesc, style vector.Style, specialized bool) (*columns.Column, error) {
	if err := checkCols(in); err != nil {
		return nil, err
	}
	if lo > hi {
		// The kernels test v-lo <= hi-lo, which wraps for an inverted range;
		// answer it here, once, for every kernel and input format.
		w, err := formats.NewWriter(positionDesc(out, in.N()), 0)
		if err != nil {
			return nil, err
		}
		return w.Close()
	}
	kernel := scan(in, func(vals []uint64, base uint64, stage [][]uint64) int {
		if style == vector.Vec512 {
			return betweenKernelVec(vals, base, lo, hi, stage[0])
		}
		return betweenKernelScalar(vals, base, lo, hi, stage[0])
	})
	if specialized && swarOK(in, lo) {
		b := uint(in.Desc().Bits)
		// Values above the packable range can never match a width-b field.
		ylo, yhi := bitutil.Broadcast(lo, b), bitutil.Broadcast(min(hi, bitutil.Mask(b)), b)
		kernel = swarSelect(in, func(words, dst []uint64) {
			for i, word := range words {
				dst[i] = bitutil.CmpPackedWord(word, ylo, b, bitutil.CmpGe) & bitutil.CmpPackedWord(word, yhi, b, bitutil.CmpLe)
			}
		})
	}
	return rt.emitPositions("select between", in, out, kernel)
}

// SelectBetweenAuto is the single-worker form of Runtime.SelectBetweenAuto.
func SelectBetweenAuto(in *columns.Column, lo, hi uint64, out columns.FormatDesc, style vector.Style, specialized bool) (*columns.Column, error) {
	return FixedRT(1).SelectBetweenAuto(in, lo, hi, out, style, specialized)
}

func betweenKernelScalar(vals []uint64, base uint64, lo, hi uint64, stage []uint64) int {
	k := 0
	// v-lo <= hi-lo is a single unsigned comparison for lo <= v <= hi.
	span := hi - lo
	for i, v := range vals {
		if v-lo <= span {
			stage[k] = base + uint64(i)
			k++
		}
	}
	return k
}

func betweenKernelVec(vals []uint64, base uint64, lo, hi uint64, stage []uint64) int {
	vlo := vector.Set1(lo)
	vspan := vector.Set1(hi - lo)
	k := 0
	i := 0
	for ; i+vector.Lanes <= len(vals); i += vector.Lanes {
		v := vector.Load(vals[i:])
		m := vector.CmpLe(vector.Sub(v, vlo), vspan)
		if m != 0 {
			k += vector.CompressStore(stage[k:], m, vector.SeqFrom(base+uint64(i)))
		}
	}
	span := hi - lo
	for ; i < len(vals); i++ {
		if vals[i]-lo <= span {
			stage[k] = base + uint64(i)
			k++
		}
	}
	return k
}
