package ops

import (
	"errors"
	"fmt"

	"morphstore/internal/columns"
	"morphstore/internal/formats"
)

// This file implements the sorted-set operators (intersection and union of
// sorted position lists). The two-pointer merge is order-dependent across
// its whole input, so it does not fit the emit/map/reduce drivers: it runs
// as one pass at every parallelism, the operator's slice kernel streamed over
// both inputs' block windows straight into the output writer, recorded as a
// sequential fallback.

// pullReader exposes a sorted input to the set kernels as a sequence of block
// windows: the unread part of the block most recently decompressed, or, for
// an uncompressed input, of the next blockBuf values of the column itself.
type pullReader struct {
	r    formats.Reader
	buf  []uint64 // decompression buffer; nil when the values are viewed in place
	rest []uint64 // viewed values not yet handed out
	win  []uint64 // unread elements of the current block
	err  error
}

// newPullReader opens a pull reader over col; its decompression buffer, if
// it needs one, is buf (blockBuf elements).
func newPullReader(col *columns.Column, buf []uint64) (*pullReader, error) {
	r, err := formats.NewReader(col)
	if err != nil {
		return nil, err
	}
	if vv, ok := r.(formats.ValueViewer); ok {
		if vals, viewable := vv.View(); viewable {
			return &pullReader{rest: vals}, nil
		}
	}
	return &pullReader{r: r, buf: buf}, nil
}

// window returns the unread elements of the current block, moving on to the
// next block when the last one is used up; it is empty once the input has
// ended (or failed: err is set).
func (p *pullReader) window() []uint64 {
	if len(p.win) > 0 || p.err != nil {
		return p.win
	}
	if p.buf == nil {
		k := min(len(p.rest), blockBuf)
		p.win, p.rest = p.rest[:k], p.rest[k:]
	} else {
		var n int
		n, p.err = p.r.Read(p.buf)
		p.win = p.buf[:n]
	}
	return p.win
}

// setKernel is the slice kernel of a sorted-set operator. It consumes the
// sorted windows a and b until one of them is used up, writes its output to
// dst and returns how far it advanced in a, b and dst. An empty window means
// that input has ended, so the other one is all that is left. dst must hold
// len(a)+len(b) elements.
type setKernel func(dst, a, b []uint64) (i, j, k int)

// streamSet runs a set kernel over two whole inputs: over their current block
// windows, again and again, until it makes no more progress. The merge state
// is the two cursors and nothing else, so cutting the inputs into windows
// changes nothing about the output.
// The kernel's output stage is one scratch buffer of 2*blockBuf elements,
// the two inputs' decompression buffers halves of another.
func (rt Runtime) streamSet(kernel setKernel, a, b *columns.Column, w formats.Writer) error {
	in, stage := rt.scratch(), rt.scratch()
	defer rt.free(in)
	defer rt.free(stage)
	pa, err := newPullReader(a, in[:blockBuf])
	if err != nil {
		return err
	}
	pb, err := newPullReader(b, in[blockBuf:])
	if err != nil {
		return err
	}
	for pa.err == nil && pb.err == nil {
		i, j, k := kernel(stage, pa.window(), pb.window())
		if i+j == 0 {
			break
		}
		pa.win, pb.win = pa.win[i:], pb.win[j:]
		if err := w.Write(stage[:k]); err != nil {
			return err
		}
	}
	return errors.Join(pa.err, pb.err)
}

// setOp is what distinguishes one sorted-set operator from the other.
type setOp struct {
	name   string
	kernel setKernel
	// bound is the largest output inputs of na and nb elements can produce;
	// it sizes the output writer.
	bound func(na, nb int) int
}

var (
	intersectOp = setOp{"intersect", intersectKernel, func(na, nb int) int { return min(na, nb) }}
	mergeOp     = setOp{"merge", mergeKernel, func(na, nb int) int { return na + nb }}
)

// sortedSet is the driver of both sorted-set operators: one serial pass of
// the operator's kernel over the whole inputs into the output writer.
func (rt Runtime) sortedSet(op setOp, a, b *columns.Column, out columns.FormatDesc) (*columns.Column, error) {
	if err := rt.Err(); err != nil {
		return nil, err
	}
	rt.coll.SeqFallback()
	w, err := formats.NewWriterFrom(rt.bufs, out, rt.reserve(0, op.bound(a.N(), b.N())))
	if err != nil {
		return nil, err
	}
	if err := rt.streamSet(op.kernel, a, b, w); err != nil {
		return nil, fmt.Errorf("ops: %s: %w", op.name, err)
	}
	return w.Close()
}

// Intersect merges two sorted position lists into their intersection (the
// conjunction of two selections on the same table, e.g. the discount and
// quantity predicates of SSB Q1.x). The merge is one branch-free slice kernel
// (intersectKernel) run over the inputs' block windows.
func (rt Runtime) Intersect(a, b *columns.Column, out columns.FormatDesc) (*columns.Column, error) {
	if err := checkCols(a, b); err != nil {
		return nil, err
	}
	return rt.sortedSet(intersectOp, a, b, out)
}

// Merge merges two sorted position lists into their union without duplicates
// (the disjunction of two selections, e.g. the two-city IN predicates of SSB
// Q3.3/Q3.4), driven like Intersect with mergeKernel.
func (rt Runtime) Merge(a, b *columns.Column, out columns.FormatDesc) (*columns.Column, error) {
	if err := checkCols(a, b); err != nil {
		return nil, err
	}
	return rt.sortedSet(mergeOp, a, b, out)
}

// b2i is 1 for true and 0 for false; the compiler turns it into a flag-set
// instruction, not a branch.
func b2i(c bool) int {
	if c {
		return 1
	}
	return 0
}

// intersectKernel is the two-pointer intersection with the three-way branch
// replaced by arithmetic: the current element of a is staged unconditionally
// and the cursors advance by comparison results — i by x<=y, j by y<=x, k by
// x==y. The current elements live in registers and their successors are
// loaded before the comparison is known (clamped at the window end, where the
// value is never used), so the next comparison waits for a conditional move,
// not for a load whose address depends on this one.
func intersectKernel(dst, a, b []uint64) (i, j, k int) {
	if len(a) == 0 || len(b) == 0 {
		return 0, 0, 0
	}
	x, y := a[0], b[0]
	for i < len(a) && j < len(b) {
		xn, yn := a[min(i+1, len(a)-1)], b[min(j+1, len(b)-1)]
		le, ge, eq := x <= y, y <= x, x == y
		dst[k] = x
		if le {
			x = xn
		}
		if ge {
			y = yn
		}
		i, j, k = i+b2i(le), j+b2i(ge), k+b2i(eq)
	}
	return i, j, k
}

// mergeKernel is the sorted union (an element present in both inputs is
// emitted once) in the same form: the smaller current element is staged and
// the cursors advance by x<=y and y<=x. Once an input has ended the other one
// passes through unchanged.
func mergeKernel(dst, a, b []uint64) (i, j, k int) {
	if len(a) == 0 || len(b) == 0 {
		i, j = copy(dst, a), copy(dst, b)
		return i, j, i + j
	}
	x, y := a[0], b[0]
	for i < len(a) && j < len(b) {
		xn, yn := a[min(i+1, len(a)-1)], b[min(j+1, len(b)-1)]
		le, ge := x <= y, y <= x
		dst[k] = y
		if le {
			dst[k], x = x, xn
		}
		if ge {
			y = yn
		}
		i, j, k = i+b2i(le), j+b2i(ge), k+1
	}
	return i, j, k
}
