package formats

import (
	"fmt"

	"morphstore/internal/bitutil"
	"morphstore/internal/bufpool"
	"morphstore/internal/columns"
)

// staticBPCodec implements static bit packing: every element of the column
// is stored with one fixed bit width, tightly packed across word boundaries.
// This is the paper's "static BP" — the format family that also covers the
// classic byte-aligned SQL integer types (widths 8/16/32/64) and the only
// compressed format with random read access (§4.2).
//
// Layout: PackedWords(n, bits) words of LSB-first packed values. The whole
// column is the main part; there is never a remainder.
type staticBPCodec struct{}

// staticBPWords hands out the packed words and bit width of a static BP
// column after bounds-checking them — the width must be a representable bit
// count and the words must cover every packed element — so a truncated or
// mislabeled column surfaces as ErrCorrupt instead of an out-of-bounds slice
// access. Every packed read starts here.
func staticBPWords(col *columns.Column) (words []uint64, bits uint, err error) {
	if col.Desc().Kind != columns.StaticBP {
		return nil, 0, fmt.Errorf("formats: staticBPWords on %v column", col.Desc())
	}
	bits = uint(col.Desc().Bits)
	if bits > 64 {
		return nil, 0, fmt.Errorf("%w: static BP width %d (column of %d elements)", ErrCorrupt, bits, col.N())
	}
	words = col.MainWords()
	if want := bitutil.PackedWords(col.N(), bits); len(words) < want {
		return nil, 0, fmt.Errorf("%w: static BP column of %d elements at width %d has %d words, want %d",
			ErrCorrupt, col.N(), bits, len(words), want)
	}
	return words, bits, nil
}

func (staticBPCodec) NewReader(col *columns.Column) Reader {
	return staticBPSection(col, 0, col.N())
}

func staticBPSection(col *columns.Column, start, count int) Reader {
	r := &staticBPReader{n: start + count, pos: start}
	r.words, r.bits, r.err = staticBPWords(col)
	return r
}

func (staticBPCodec) NewWriter(desc columns.FormatDesc, sizeHint int, bufs *bufpool.Lease) Writer {
	w := &staticBPWriter{bits: uint(desc.Bits), auto: desc.Bits == 0, sizeHint: sizeHint, bufs: bufs}
	if !w.auto {
		w.words = bufs.Get(bitutil.PackedWords(sizeHint, w.bits))[:0]
	}
	return w
}

// staticBPReader decompresses sequentially, keeping its bit cursor
// word-aligned by always consuming multiples of 64 elements except at the
// very end (64 values of width b occupy exactly b words).
type staticBPReader struct {
	words []uint64
	n     int
	bits  uint
	pos   int   // elements consumed
	err   error // validation failure, reported by every Read
}

func (r *staticBPReader) Read(dst []uint64) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	remain := r.n - r.pos
	if remain <= 0 {
		return 0, nil
	}
	k := min(len(dst), remain)
	if k >= 64 && k < remain {
		k &^= 63 // stay word-aligned while more full groups follow
	}
	if r.bits == 0 {
		clear(dst[:k])
		r.pos += k
		return k, nil
	}
	startBit := uint64(r.pos) * uint64(r.bits)
	if startBit%64 == 0 {
		bitutil.Unpack(dst[:k], r.words[startBit>>6:], r.bits)
	} else {
		for i := 0; i < k; i++ {
			dst[i] = bitutil.Get(r.words, r.pos+i, r.bits)
		}
	}
	r.pos += k
	return k, nil
}

// staticBPWriter packs as values arrive. A preset width rejects a wider
// value; in auto mode the width is the running maximum (widen).
type staticBPWriter struct {
	bits     uint
	auto     bool
	sizeHint int
	bufs     *bufpool.Lease
	words    []uint64 // packed output: whole groups so far
	group    [64]uint64
	inGroup  int
	buf      []uint64 // read buffer of appendColumn's streaming path, allocated on demand
	n        int
	closed   bool
}

// pack appends vals, a whole number of 64-value groups (or the final partial
// group), to the packed output.
func (w *staticBPWriter) pack(vals []uint64) {
	off, k := len(w.words), bitutil.PackedWords(len(vals), w.bits)
	w.words = w.bufs.Grow(w.words, k)[:off+k] // Pack writes all k words
	bitutil.Pack(w.words[off:], vals, w.bits)
}

// Write packs whole groups straight from the input through bitutil.Pack and
// stages only what does not fill a group.
func (w *staticBPWriter) Write(vals []uint64) error {
	if b := bitutil.MaxBits(vals); b > w.bits {
		if !w.auto {
			return fmt.Errorf("formats: value exceeds static BP width %d", w.bits)
		}
		w.widen(b)
	}
	w.n += len(vals)
	for len(vals) > 0 {
		if w.inGroup == 0 && len(vals) >= 64 {
			whole := len(vals) &^ 63
			w.pack(vals[:whole])
			vals = vals[whole:]
			continue
		}
		c := copy(w.group[w.inGroup:], vals)
		vals = vals[c:]
		if w.inGroup += c; w.inGroup == 64 {
			w.pack(w.group[:])
			w.inGroup = 0
		}
	}
	return nil
}

// widen repacks the whole groups packed so far at width m > w.bits, so on
// Close the width is the maximum over all values. It works in place from the
// last group backwards: group g moves from word g·bits to word g·m, which no
// group still to be moved occupies. The first widening reserves room for
// sizeHint values; later ones grow the buffer only when the groups do not fit.
func (w *staticBPWriter) widen(m uint) {
	groups := (w.n - w.inGroup) / 64
	need := groups * int(m)
	if w.words == nil || cap(w.words) < need {
		words := w.bufs.Get(max(need, bitutil.PackedWords(w.sizeHint, m)))[:len(w.words)]
		copy(words, w.words)
		_ = w.bufs.Put(w.words) // the writer's own buffer, issued by bufs
		w.words = words
	}
	w.words = w.words[:need] // every group is repacked below, so no stale word stays
	// group stays on the stack: UnpackGroup is a direct call of Unpack.
	var group [64]uint64
	for g := groups - 1; g >= 0; g-- {
		bitutil.UnpackGroup(&group, w.words, g, w.bits)
		bitutil.Pack(w.words[g*int(m):], group[:], m)
	}
	w.bits = m
}

// appendColumn appends every element of p, a static BP column no wider than
// the writer (its callers open it at the final width). On a group boundary
// at p's width, p's whole groups are copied and its partial last group
// becomes the open group; otherwise p streams through its reader into Write.
func (w *staticBPWriter) appendColumn(p *columns.Column) error {
	pw, pb, err := staticBPWords(p)
	if err != nil {
		return err
	}
	if pb > w.bits {
		return fmt.Errorf("formats: concat: static BP width %d cannot hold %d-bit part", w.bits, pb)
	}
	if w.inGroup > 0 || pb != w.bits {
		return writeColumn(w, p, w.bufs, &w.buf)
	}
	whole := p.N() &^ 63
	off := whole / 64 * int(pb)
	w.words = w.bufs.Append(w.words, pw[:off]...)
	w.inGroup = p.N() - whole
	bitutil.Unpack(w.group[:w.inGroup], pw[off:], pb)
	w.n += p.N()
	return nil
}

func (w *staticBPWriter) Close() (*columns.Column, error) {
	if w.closed {
		return nil, fmt.Errorf("formats: writer already closed")
	}
	w.closed = true
	_ = w.bufs.Put(w.buf) // the writer's own buffer, issued by bufs
	w.buf = nil
	// The final partial group packs at its exact length.
	w.pack(w.group[:w.inGroup])
	if want := bitutil.PackedWords(w.n, w.bits); len(w.words) != want {
		return nil, fmt.Errorf("formats: static BP writer produced %d words, want %d", len(w.words), want)
	}
	return columns.New(columns.FormatDesc{Kind: columns.StaticBP, Bits: uint8(w.bits)},
		w.n, w.n, len(w.words), w.words)
}
