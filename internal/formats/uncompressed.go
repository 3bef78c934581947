package formats

import (
	"fmt"

	"morphstore/internal/columns"
)

// uncomprCodec implements the trivial uncompressed format: one 64-bit word
// per data element, main part only, no remainder.
type uncomprCodec struct{}

func (uncomprCodec) NewReader(col *columns.Column) Reader {
	return &uncomprReader{vals: col.Words()}
}

func (uncomprCodec) NewWriter(_ columns.FormatDesc, sizeHint int) Writer {
	return &uncomprWriter{hint: sizeHint}
}

func uncomprSection(col *columns.Column, start, count int) Reader {
	return &uncomprReader{vals: col.Words()[start : start+count]}
}

type uncomprReader struct {
	vals []uint64
	pos  int
}

func (r *uncomprReader) Read(dst []uint64) (int, error) {
	n := copy(dst, r.vals[r.pos:])
	r.pos += n
	return n, nil
}

// View exposes the remaining values without copying: the direct-data-access
// fast path of the purely-uncompressed integration degree.
func (r *uncomprReader) View() ([]uint64, bool) {
	v := r.vals[r.pos:]
	r.pos = len(r.vals)
	return v, true
}

type uncomprWriter struct {
	vals   []uint64
	hint   int // capacity to reserve, unless the first Write already covers it
	closed bool
}

func (w *uncomprWriter) Write(vals []uint64) error {
	if w.vals == nil && len(vals) < w.hint {
		w.vals = make([]uint64, 0, w.hint)
	}
	// A first Write covering the hint (Compress) appends to nil instead: one
	// allocation that is copied into without being zeroed first.
	w.vals = append(w.vals, vals...)
	return nil
}

func (w *uncomprWriter) Close() (*columns.Column, error) {
	if w.closed {
		return nil, fmt.Errorf("formats: writer already closed")
	}
	w.closed = true
	return columns.FromValues(w.vals), nil
}
