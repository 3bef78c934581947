package formats

import (
	"fmt"

	"morphstore/internal/bufpool"
	"morphstore/internal/columns"
)

// rleCodec implements run-length encoding: the column is a sequence of
// (run value, run length) word pairs. RLE is one of the five basic
// lightweight techniques of §2.1; the paper's engine does not yet ship it,
// so in MorphStore-Go it is an extension format that plugs into the same
// codec, morph and operator machinery (and powers the specialized
// sum-on-RLE operator sketched by Abadi et al. [2]).
//
// The whole column is the main part (any n is representable); run lengths
// are never zero.
type rleCodec struct{}

func (rleCodec) NewReader(col *columns.Column) Reader {
	return &rleReader{words: col.MainWords(), n: col.N()}
}

func (rleCodec) NewWriter(_ columns.FormatDesc, _ int, bufs *bufpool.Lease) Writer {
	return &rleWriter{words: bufs.Get(64)[:0], bufs: bufs}
}

// Run is one (value, length) pair of an RLE column.
type Run struct {
	Value  uint64
	Length uint64
}

// RLERuns exposes the runs of an RLE column without decompression; it is the
// direct-access primitive of the specialized RLE operators.
func RLERuns(col *columns.Column) ([]Run, error) {
	if col.Desc().Kind != columns.RLE {
		return nil, fmt.Errorf("formats: RLERuns on %v column", col.Desc())
	}
	words := col.MainWords()
	if err := rleCheck(words, col.N()); err != nil {
		return nil, err
	}
	runs := make([]Run, len(words)/2)
	for i := range runs {
		runs[i] = Run{Value: words[2*i], Length: words[2*i+1]}
	}
	return runs, nil
}

// rleCheck validates the run words of an RLE column of n elements: whole
// (value, length) pairs whose lengths are positive and sum to exactly n.
// Zero-length and overflowing runs alike would make the runs inconsistent
// with the column's element count.
func rleCheck(words []uint64, n int) error {
	if len(words)%2 != 0 {
		return fmt.Errorf("%w: RLE buffer has odd word count", ErrCorrupt)
	}
	var total uint64
	for i := 1; i < len(words); i += 2 {
		l := words[i]
		if l == 0 || l > uint64(n)-total {
			return fmt.Errorf("%w: RLE run of length %d at element %d of column of %d", ErrCorrupt, l, total, n)
		}
		total += l
	}
	if total != uint64(n) {
		return fmt.Errorf("%w: RLE runs cover %d of %d elements", ErrCorrupt, total, n)
	}
	return nil
}

// rleReader expands runs into the destination, validating each run as it
// reaches it (a pass of its own over the run words would double the cost of
// run-poor columns) and the run words as a whole once the column is complete.
type rleReader struct {
	words  []uint64
	n      int
	w      int // current run pair offset
	within int // elements of the current run already emitted
	emit   int // total elements emitted
}

func (r *rleReader) Read(dst []uint64) (int, error) {
	// The cursor lives in locals for the duration of the loop: run-poor
	// columns spend their time here, one iteration per run.
	words, w, within, left := r.words, r.w, r.within, r.n-r.emit
	k := 0
	for k < len(dst) && left > 0 {
		if w+2 > len(words) {
			return k, fmt.Errorf("%w: RLE runs exhausted at element %d of %d", ErrCorrupt, r.n-left, r.n)
		}
		v, l := words[w], words[w+1]
		if l == 0 || l-uint64(within) > uint64(left) {
			// Zero-length runs and runs overflowing the column's element
			// count (any length past the int range among them) are corrupt;
			// clamping the overflow instead would silently decode a different
			// column than the run validation rejects.
			return k, fmt.Errorf("%w: RLE run of length %d at element %d of column of %d",
				ErrCorrupt, l, r.n-left, r.n)
		}
		take := min(int(l)-within, len(dst)-k)
		for _, end := k, k+take; k < end; k++ {
			dst[k] = v
		}
		left -= take
		if within += take; within == int(l) {
			w, within = w+2, 0
		}
	}
	r.w, r.within, r.emit = w, within, r.n-left
	if left == 0 && w != len(words) {
		return k, fmt.Errorf("%w: RLE column of %d elements has %d words beyond its last run",
			ErrCorrupt, r.n, len(words)-w)
	}
	return k, nil
}

type rleWriter struct {
	words  []uint64
	bufs   *bufpool.Lease
	cur    uint64
	curLen uint64
	n      int
	closed bool
}

func (w *rleWriter) Write(vals []uint64) error {
	w.n += len(vals)
	for i := 0; i < len(vals); {
		// Scan one run of the input, then extend the open run or start anew.
		v, j := vals[i], i+1
		for j < len(vals) && vals[j] == v {
			j++
		}
		if w.curLen > 0 && v != w.cur {
			w.words = w.bufs.Append(w.words, w.cur, w.curLen)
			w.curLen = 0
		}
		w.cur, w.curLen = v, w.curLen+uint64(j-i)
		i = j
	}
	return nil
}

func (w *rleWriter) Close() (*columns.Column, error) {
	if w.closed {
		return nil, fmt.Errorf("formats: writer already closed")
	}
	w.closed = true
	if w.curLen > 0 {
		w.words = w.bufs.Append(w.words, w.cur, w.curLen)
	}
	return columns.New(columns.RLEDesc, w.n, w.n, len(w.words), w.words)
}
