package ops

import (
	"errors"
	"fmt"

	"morphstore/internal/columns"
	"morphstore/internal/formats"
)

// This file implements the sorted-set operators (intersection and union of
// sorted position lists) and their value-range-parallel driver. The
// two-pointer merge carries no state across elements other than the two
// cursors, so cutting BOTH inputs at one shared set of boundary values
// (formats.SplitSortedAligned: boundary values sampled from the first input,
// cut points located by galloping lower-bound searches) yields range pairs
// that can be processed independently: concatenating the per-range results
// in range order reproduces the whole-input merge exactly, duplicates
// included. The per-range outputs are finished through the parallel
// compressed stitch, so the result column is byte-identical at every
// parallelism level.
//
// Unlike the morsel drivers, the range cuts are value positions, not
// block-aligned element positions, so both inputs are materialized as value
// slices first (zero-copy for uncompressed inputs). That also makes the
// parallel path total over formats — RLE inputs, which cannot be
// morsel-split, still partition by value range.

// pullReader adapts a block Reader for the streamed merge kernels, which
// need element-at-a-time access with lookahead.
type pullReader struct {
	r   formats.Reader
	buf []uint64
	pos int
	n   int
	err error
}

func newPullReader(col *columns.Column) (*pullReader, error) {
	r, err := formats.NewReader(col)
	if err != nil {
		return nil, err
	}
	return &pullReader{r: r, buf: make([]uint64, blockBuf)}, nil
}

// fill loads the next block; it reports whether data is available.
func (p *pullReader) fill() bool {
	if p.err != nil {
		return false
	}
	p.n, p.err = p.r.Read(p.buf)
	p.pos = 0
	return p.n > 0 && p.err == nil
}

// peek returns the current element; ok is false at end of input or error.
func (p *pullReader) peek() (uint64, bool) {
	if p.pos >= p.n && !p.fill() {
		return 0, false
	}
	return p.buf[p.pos], true
}

// advance moves past the current element.
func (p *pullReader) advance() { p.pos++ }

// splitSortedInputs materializes both sorted inputs and cuts them at shared
// value boundaries; a nil pair list means the operator runs as one range
// (par <= 1, the larger input too small to be worth splitting — the inputs
// are then not materialized — or no value boundary exists). The two
// decompressions run as concurrent budget-slot tasks (they are real work, so
// they count against the engine allowance, and decompressing them in parallel
// halves the serial tail ahead of the range kernels); the coarsest
// cancellation window of the sorted-set driver is therefore one full-column
// decompress rather than one morsel.
func (rt Runtime) splitSortedInputs(a, b *columns.Column) ([]formats.RangePair, []uint64, []uint64, error) {
	if rt.Par() <= 1 || a.N() < 2*formats.MinMorsel {
		return nil, nil, nil, nil
	}
	cols := [2]*columns.Column{a, b}
	var vals [2][]uint64
	if err := rt.runTasks(2, func(_, i int) error {
		v, err := readAll(cols[i])
		vals[i] = v
		return err
	}); err != nil {
		return nil, nil, nil, err
	}
	return formats.SplitSortedAligned(vals[0], vals[1], rt.Par()), vals[0], vals[1], nil
}

// sortedSet is the value-range driver of both sorted-set operators: ranges
// runs the operator's slice kernel over one value range pair, stream its
// streamed form over two whole inputs; hint sizes the output writer.
func (rt Runtime) sortedSet(name string, a, b *columns.Column, out columns.FormatDesc, hint int,
	ranges func(a, b []uint64) []uint64, stream func(pa, pb *pullReader, w formats.Writer) error) (*columns.Column, error) {
	if err := rt.Err(); err != nil {
		return nil, err
	}
	// Intersection and union are symmetric in their operands, so the larger
	// input goes first: it drives the boundary sampling and the size gate,
	// and a tiny first operand cannot force a huge second one sequential.
	if a.N() < b.N() {
		a, b = b, a
	}
	pairs, avals, bvals, err := rt.splitSortedInputs(a, b)
	if err != nil {
		return nil, err
	}
	if pairs == nil {
		// One serial pass, so the lease shrinks like every other unsplit
		// operator.
		rt.seqFallback()
		if avals != nil {
			// The inputs are already materialized but admit no value boundary
			// (e.g. one giant duplicate run); run the slice kernel whole
			// rather than decompressing a second time.
			return rt.stitchCompressed(out, hint, [][]uint64{ranges(avals, bvals)})
		}
		pa, err := newPullReader(a)
		if err != nil {
			return nil, err
		}
		pb, err := newPullReader(b)
		if err != nil {
			return nil, err
		}
		w, err := formats.NewWriter(out, hint)
		if err != nil {
			return nil, err
		}
		if err := errors.Join(stream(pa, pb, w), pa.err, pb.err); err != nil {
			return nil, fmt.Errorf("ops: %s: %w", name, err)
		}
		return w.Close()
	}
	results := make([][]uint64, len(pairs))
	err = rt.runTasks(len(pairs), func(_, i int) error {
		p := pairs[i]
		results[i] = ranges(avals[p.A.Start:p.A.Start+p.A.Count], bvals[p.B.Start:p.B.Start+p.B.Count])
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("ops: %s: %w", name, err)
	}
	return rt.stitchCompressed(out, hint, results)
}

// Intersect merges two sorted position lists into their intersection (the
// conjunction of two selections on the same table, e.g. the discount and
// quantity predicates of SSB Q1.x).
func (rt Runtime) Intersect(a, b *columns.Column, out columns.FormatDesc) (*columns.Column, error) {
	if err := checkCols(a, b); err != nil {
		return nil, err
	}
	return rt.sortedSet("intersect", a, b, out, min(a.N(), b.N()), intersectValues, intersectStream)
}

// Merge merges two sorted position lists into their union without duplicates
// (the disjunction of two selections, e.g. the two-city IN predicates of SSB
// Q3.3/Q3.4).
func (rt Runtime) Merge(a, b *columns.Column, out columns.FormatDesc) (*columns.Column, error) {
	if err := checkCols(a, b); err != nil {
		return nil, err
	}
	return rt.sortedSet("merge", a, b, out, a.N()+b.N(), mergeValues, mergeStream)
}

// intersectStream is the two-pointer intersection over two streamed inputs:
// the kernel of an Intersect whose inputs did not split, written straight
// into the output writer.
func intersectStream(pa, pb *pullReader, w formats.Writer) error {
	stage := make([]uint64, blockBuf)
	k := 0
	va, oka := pa.peek()
	vb, okb := pb.peek()
	for oka && okb {
		switch {
		case va < vb:
			pa.advance()
			va, oka = pa.peek()
		case vb < va:
			pb.advance()
			vb, okb = pb.peek()
		default:
			stage[k] = va
			k++
			if k == len(stage) {
				if err := w.Write(stage); err != nil {
					return err
				}
				k = 0
			}
			pa.advance()
			pb.advance()
			va, oka = pa.peek()
			vb, okb = pb.peek()
		}
	}
	return w.Write(stage[:k])
}

// mergeStream is the streamed form of the sorted union (an element present
// in both inputs is emitted once).
func mergeStream(pa, pb *pullReader, w formats.Writer) error {
	stage := make([]uint64, blockBuf)
	k := 0
	emit := func(v uint64) error {
		stage[k] = v
		k++
		if k == len(stage) {
			k = 0
			return w.Write(stage)
		}
		return nil
	}
	va, oka := pa.peek()
	vb, okb := pb.peek()
	for oka || okb {
		switch {
		case oka && (!okb || va < vb):
			if err := emit(va); err != nil {
				return err
			}
			pa.advance()
			va, oka = pa.peek()
		case okb && (!oka || vb < va):
			if err := emit(vb); err != nil {
				return err
			}
			pb.advance()
			vb, okb = pb.peek()
		default: // equal
			if err := emit(va); err != nil {
				return err
			}
			pa.advance()
			pb.advance()
			va, oka = pa.peek()
			vb, okb = pb.peek()
		}
	}
	return w.Write(stage[:k])
}

// intersectValues is the slice form of intersectStream, the kernel of one
// value range; it must mirror the streamed kernel element for element
// (including duplicate handling) so the concatenated ranges stay
// byte-identical.
func intersectValues(a, b []uint64) []uint64 {
	dst := make([]uint64, 0, min(len(a), len(b))/4+16)
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case b[j] < a[i]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

// mergeValues is the slice form of mergeStream.
func mergeValues(a, b []uint64) []uint64 {
	dst := make([]uint64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case i < len(a) && (j >= len(b) || a[i] < b[j]):
			dst = append(dst, a[i])
			i++
		case j < len(b) && (i >= len(a) || b[j] < a[i]):
			dst = append(dst, b[j])
			j++
		default: // equal
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}
