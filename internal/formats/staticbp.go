package formats

import (
	"fmt"

	"morphstore/internal/bitutil"
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

// StaticBPWords hands out the packed words and bit width of a static BP
// column after bounds-checking them — the width must be a representable bit
// count and the words must cover every packed element — so a truncated or
// mislabeled column surfaces as ErrCorrupt instead of an out-of-bounds slice
// access. Every packed read, inside this package and in the specialized
// operators, starts here.
func StaticBPWords(col *columns.Column) (words []uint64, bits uint, err error) {
	if col.Desc().Kind != columns.StaticBP {
		return nil, 0, fmt.Errorf("formats: StaticBPWords on %v column", col.Desc())
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
	r.words, r.bits, r.err = StaticBPWords(col)
	return r
}

func (staticBPCodec) NewWriter(desc columns.FormatDesc, sizeHint int) Writer {
	w := &staticBPWriter{bits: uint(desc.Bits), auto: desc.Bits == 0}
	if w.auto {
		// Static BP needs the global maximum before packing, so the writer
		// buffers all input and packs on Close.
		w.pending = make([]uint64, 0, sizeHint)
	} else {
		w.words = make([]uint64, 0, bitutil.PackedWords(sizeHint, w.bits))
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

// staticBPWriter packs incrementally at a preset width — whole 64-value
// groups straight from the input through the unrolled kernels, staging only
// what does not fill a group — or, in auto mode, buffers the whole column and
// runs the preset-width path at the derived width on Close.
type staticBPWriter struct {
	bits    uint
	auto    bool
	pending []uint64 // auto mode: all values so far
	words   []uint64 // preset mode: packed output
	group   [64]uint64
	inGroup int
	n       int
	closed  bool
}

// pack appends vals, a whole number of 64-value groups (or the final partial
// group), to the packed output.
func (w *staticBPWriter) pack(vals []uint64) {
	off := len(w.words)
	w.words = append(w.words, make([]uint64, bitutil.PackedWords(len(vals), w.bits))...)
	bitutil.Pack(w.words[off:], vals, w.bits)
}

func (w *staticBPWriter) Write(vals []uint64) error {
	if w.auto {
		w.pending = append(w.pending, vals...)
		return nil
	}
	if bitutil.MaxBits(vals) > w.bits {
		return fmt.Errorf("formats: value exceeds static BP width %d", w.bits)
	}
	w.add(vals)
	return nil
}

// add appends values known to fit the width: whole groups pack straight from
// the input, only what does not fill a group is staged.
func (w *staticBPWriter) add(vals []uint64) {
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
}

// packStaticBP is auto-width static BP over a whole slice: MaxBits, then the
// preset-width writer, which need not re-check values against a width derived
// from them.
func packStaticBP(src []uint64) (*columns.Column, error) {
	bits := bitutil.MaxBits(src)
	w := &staticBPWriter{bits: bits, words: make([]uint64, 0, bitutil.PackedWords(len(src), bits))}
	w.add(src)
	return w.Close()
}

func (w *staticBPWriter) Close() (*columns.Column, error) {
	if w.closed {
		return nil, fmt.Errorf("formats: writer already closed")
	}
	w.closed = true
	if w.auto {
		return packStaticBP(w.pending)
	}
	// The final partial group packs at its exact length.
	w.pack(w.group[:w.inGroup])
	if want := bitutil.PackedWords(w.n, w.bits); len(w.words) != want {
		return nil, fmt.Errorf("formats: static BP writer produced %d words, want %d", len(w.words), want)
	}
	return columns.New(columns.FormatDesc{Kind: columns.StaticBP, Bits: uint8(w.bits)},
		w.n, w.n, len(w.words), w.words)
}
