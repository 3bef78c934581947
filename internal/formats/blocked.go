package formats

import (
	"fmt"

	"morphstore/internal/bitutil"
	"morphstore/internal/bufpool"
	"morphstore/internal/columns"
)

// This file is the one definition of the block-structured formats. Each is a
// cascade: a logical-level transform (none, DELTA, FOR) maps the 512 elements
// of a block to small values, and one physical-level packer — block-wise
// binary packing at a per-block bit width, the 64-bit port of SIMD-BP128
// [Lemire/Boytsov] that the paper calls SIMD-BP512 — stores them. Adapting
// the width per block is what makes the family robust against outliers.
//
// Block layout (word-aligned; 512 values of width b occupy exactly 8*b words):
//
//	[param]    the transform's per-block parameter (two-word headers only)
//	[bits]     the packed width, 0..64
//	[payload]  8*bits words: the 512 transformed values, LSB-first
//
// Every block decodes on its own. The n mod 512 trailing elements are the
// column's uncompressed remainder: untransformed raw words behind the main
// part.

// transform is the logical level of a blocked format; everything the three
// formats do not share is in one of these values.
type transform struct {
	name     string // for error messages
	desc     columns.FormatDesc
	hdrWords int // 1: [bits], 2: [param][bits]
	// chained marks a transform whose block encoding depends on the element
	// preceding the block (DELTA): a part concatenated behind a different
	// element than it was encoded behind needs its first block rebased.
	chained bool
	// hintDiv sizes a writer's initial buffer: sizeHint/hintDiv words.
	hintDiv int
	// encode maps one full block to the values to pack — blk itself, or
	// scratch filled from it — plus the block parameter and the packed width.
	// prev is the stream element preceding blk (0 at the stream head).
	encode func(scratch, blk []uint64, prev uint64) (vals []uint64, param uint64, bits uint)
	// decode maps the unpacked values of one block back to its elements, in
	// place. param is the block's first header word.
	decode func(dst []uint64, param uint64)
}

// dynBP packs the elements as they are: the paper's SIMD-BP512.
var dynBP = &transform{
	name: "dyn BP", desc: columns.DynBPDesc, hdrWords: 1, hintDiv: 4,
	encode: func(_, blk []uint64, _ uint64) ([]uint64, uint64, uint) {
		return blk, 0, bitutil.MaxBits(blk)
	},
	decode: func([]uint64, uint64) {},
}

// deltaBP is the paper's DELTA+SIMD-BP512. Differences are taken modulo 2^64,
// so the format is lossless for arbitrary data; it only compresses well when
// the data is (nearly) sorted — exactly the case for the position lists
// produced by selections, the paper's running example of a beneficial
// intermediate format. The block parameter is the element preceding the block
// (0 for the first), so each block still decodes independently.
var deltaBP = &transform{
	name: "delta BP", desc: columns.DeltaBPDesc, hdrWords: 2, hintDiv: 8, chained: true,
	encode: func(scratch, blk []uint64, prev uint64) ([]uint64, uint64, uint) {
		base := prev
		for i, v := range blk {
			scratch[i] = v - prev
			prev = v
		}
		return scratch, base, bitutil.MaxBits(scratch)
	},
	decode: func(dst []uint64, base uint64) {
		v := base
		for i, d := range dst {
			v += d
			dst[i] = v
		}
	},
}

// forBP is the paper's FOR+SIMD-BP512: the block parameter is the block's
// minimum and the offsets from it are packed — the format of choice for
// narrow ranges of huge values (column C3).
var forBP = &transform{
	name: "FOR BP", desc: columns.ForBPDesc, hdrWords: 2, hintDiv: 8,
	encode: func(scratch, blk []uint64, _ uint64) ([]uint64, uint64, uint) {
		ref := blk[0]
		for _, v := range blk[1:] {
			ref = min(ref, v)
		}
		var acc uint64
		for i, v := range blk {
			scratch[i] = v - ref
			acc |= v - ref
		}
		return scratch, ref, bitutil.EffectiveBits(acc)
	},
	decode: func(dst []uint64, ref uint64) {
		for i := range dst {
			dst[i] += ref
		}
	},
}

// payloadWords is the number of packed words of one block at width bits.
func payloadWords(bits uint) int { return int(bits) * (BlockLen / 64) }

// appendBlock encodes one full block of BlockLen elements behind words,
// growing words from bufs.
func (t *transform) appendBlock(bufs *bufpool.Lease, words, scratch, blk []uint64, prev uint64) []uint64 {
	vals, param, bits := t.encode(scratch[:BlockLen], blk[:BlockLen], prev)
	words = bufs.Grow(words, t.hdrWords+payloadWords(bits))
	if t.hdrWords == 2 {
		words = append(words, param)
	}
	words = append(words, uint64(bits))
	off := len(words)
	words = words[:off+payloadWords(bits)]
	bitutil.Pack(words[off:], vals, bits) // writes every payload word
	return words
}

// blockAt bounds-checks the block starting at words[w] — the only place a
// header is trusted — and returns its width and payload; the block's
// parameter is words[w] and the next block starts right behind the payload.
func (t *transform) blockAt(words []uint64, w int) (bits uint, payload []uint64, err error) {
	p := w + t.hdrWords
	if p > len(words) {
		return 0, nil, fmt.Errorf("%w: %s block header beyond buffer", ErrCorrupt, t.name)
	}
	if words[p-1] > 64 {
		return 0, nil, fmt.Errorf("%w: %s block width %d", ErrCorrupt, t.name, words[p-1])
	}
	bits = uint(words[p-1])
	if p+payloadWords(bits) > len(words) {
		return 0, nil, fmt.Errorf("%w: %s block payload beyond buffer", ErrCorrupt, t.name)
	}
	return bits, words[p : p+payloadWords(bits)], nil
}

// decodeBlock decodes the block starting at words[w] into dst[:BlockLen] and
// returns the word offset of the next block.
func (t *transform) decodeBlock(words []uint64, w int, dst []uint64) (int, error) {
	bits, payload, err := t.blockAt(words, w)
	if err != nil {
		return 0, err
	}
	bitutil.Unpack(dst[:BlockLen], payload, bits)
	t.decode(dst[:BlockLen], words[w])
	return w + t.hdrWords + len(payload), nil
}

// skip walks the headers of the first n blocks of a main part and returns the
// word offset behind them. No payload is touched, so positioning costs one
// word read per block.
func (t *transform) skip(words []uint64, n int) (int, error) {
	w := 0
	for ; n > 0; n-- {
		_, payload, err := t.blockAt(words, w)
		if err != nil {
			return 0, err
		}
		w += t.hdrWords + len(payload)
	}
	return w, nil
}

// blockedFormat is the registry row of a blocked format: the transform is
// its codec, and every blocked format slices and concatenates at block
// granularity.
func blockedFormat(t *transform) format {
	section := func(col *columns.Column, start, count int) Reader { return newBlockedReader(t, col, start, count) }
	return format{Codec: t, partitionAlign: BlockLen, section: section,
		concatAlign: BlockLen, concat: t.concat, blocked: t}
}

func (t *transform) NewReader(col *columns.Column) Reader {
	return newBlockedReader(t, col, 0, col.N())
}

func (t *transform) NewWriter(_ columns.FormatDesc, sizeHint int, bufs *bufpool.Lease) Writer {
	return newBlockedWriter(t, sizeHint/t.hintDiv, bufs)
}

// concat copies whole blocks verbatim wherever a seam falls on a block
// boundary of the output stream; a misaligned seam re-blocks the following
// part (see blockedWriter.appendColumn).
func (t *transform) concat(bufs *bufpool.Lease, _ columns.FormatDesc, parts []*columns.Column) (*columns.Column, error) {
	capWords := 0
	for _, p := range parts {
		capWords += len(p.Words())
	}
	w := newBlockedWriter(t, capWords, bufs)
	for _, p := range parts {
		if err := w.appendColumn(p); err != nil {
			return nil, err
		}
	}
	return w.Close()
}

// blockedReader decodes the element range [elem, end) of a column: the whole
// column, or one section of it. The range starts on a block boundary and ends
// on one unless it reaches past the compressed main part.
type blockedReader struct {
	t    *transform
	col  *columns.Column
	w    int   // word cursor in the main part
	elem int   // next element to produce
	end  int   // one past the last element to produce
	err  error // validation or positioning failure, reported by every Read
}

func newBlockedReader(t *transform, col *columns.Column, start, count int) *blockedReader {
	r := &blockedReader{t: t, col: col, elem: start, end: start + count}
	main := col.MainElems()
	if r.err = t.validate(col); r.err != nil {
		return r
	}
	if start < 0 || count < 0 || r.end > col.N() || start%BlockLen != 0 || (r.end < main && r.end%BlockLen != 0) {
		r.err = fmt.Errorf("formats: %s section [%d,%d) of column of %d leaves its range or cuts through a block",
			t.name, start, r.end, col.N())
		return r
	}
	r.w, r.err = t.skip(col.MainWords(), min(start, main)/BlockLen)
	return r
}

// validate checks the main-part extent of a column: the compressed main part
// always covers whole blocks, so a misaligned extent means the metadata is
// corrupt and block decoding would write past the destination.
func (t *transform) validate(col *columns.Column) error {
	if col.MainElems()%BlockLen != 0 {
		return fmt.Errorf("%w: %s main part of %d elements is not block-aligned (column of %d elements)",
			ErrCorrupt, t.name, col.MainElems(), col.N())
	}
	return nil
}

// blockContext annotates a block-decode error with the element offset of the
// failing block and the column length, so corruption reports are actionable.
func blockContext(err error, elem, n int) error {
	return fmt.Errorf("%w (block at element %d of column of %d)", err, elem, n)
}

// tail returns the part of the uncompressed remainder inside [elem, end).
func (r *blockedReader) tail() []uint64 {
	main := r.col.MainElems()
	if r.end <= main {
		return nil
	}
	return r.col.Remainder()[max(r.elem, main)-main : r.end-main]
}

func (r *blockedReader) Read(dst []uint64) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	k := 0
	words := r.col.MainWords()
	for mainEnd := min(r.end, r.col.MainElems()); r.elem < mainEnd; {
		if len(dst)-k < BlockLen {
			if k == 0 {
				return 0, ErrSmallBuffer
			}
			return k, nil
		}
		w, err := r.t.decodeBlock(words, r.w, dst[k:])
		if err != nil {
			return k, blockContext(err, r.elem, r.col.N())
		}
		r.w = w
		r.elem += BlockLen
		k += BlockLen
	}
	c := copy(dst[k:], r.tail())
	r.elem += c
	return k + c, nil
}

// WalkBlocks visits the compressed blocks of a blocked-format column without
// decoding them: visit receives each block's packed width and payload words
// (the transformed values; the elements themselves for DynBP). It returns the
// uncompressed remainder. Headers are validated exactly as for decoding, so
// callers may index the payload unchecked.
func WalkBlocks(col *columns.Column, visit func(bits uint, payload []uint64)) (tail []uint64, err error) {
	t := lookup(col.Desc().Kind).blocked
	if t == nil {
		return nil, fmt.Errorf("formats: WalkBlocks on %v column", col.Desc())
	}
	r := newBlockedReader(t, col, 0, col.N())
	if r.err != nil {
		return nil, r.err
	}
	words := col.MainWords()
	for mainEnd := min(r.end, col.MainElems()); r.elem < mainEnd; r.elem += BlockLen {
		bits, payload, err := t.blockAt(words, r.w)
		if err != nil {
			return nil, blockContext(err, r.elem, col.N())
		}
		visit(bits, payload)
		r.w += t.hdrWords + len(payload)
	}
	return r.tail(), nil
}

// BlockHeaderBytes returns the per-block header overhead of a blocked format
// in bytes (0 for formats without blocks): the size model's share of the
// layout.
func BlockHeaderBytes(kind columns.Kind) int {
	if t := lookup(kind).blocked; t != nil {
		return 8 * t.hdrWords
	}
	return 0
}

// blockedWriter encodes a stream block by block, carrying the elements that
// do not fill a block yet; on Close they become the column's remainder. Its
// buffers come from bufs; Close returns all but the column's words.
type blockedWriter struct {
	t       *transform
	bufs    *bufpool.Lease
	words   []uint64
	pending []uint64 // fewer than BlockLen carried elements
	scratch []uint64 // transform output of the block being encoded
	buf     []uint64 // read buffer of appendColumn's re-blocking path, allocated on demand
	prev    uint64   // element preceding the next block (0 at the stream head)
	n       int
	closed  bool
}

func newBlockedWriter(t *transform, capWords int, bufs *bufpool.Lease) *blockedWriter {
	return &blockedWriter{
		t:       t,
		bufs:    bufs,
		words:   bufs.Get(capWords)[:0],
		pending: bufs.Get(BlockLen)[:0],
		scratch: bufs.Get(BlockLen),
	}
}

func (w *blockedWriter) emit(blk []uint64) {
	w.words = w.t.appendBlock(w.bufs, w.words, w.scratch, blk, w.prev)
	w.prev = blk[BlockLen-1]
}

func (w *blockedWriter) Write(vals []uint64) error {
	w.n += len(vals)
	for len(vals) > 0 {
		if len(w.pending) == 0 {
			// Fast path: consume full blocks directly from the input.
			for len(vals) >= BlockLen {
				w.emit(vals)
				vals = vals[BlockLen:]
			}
		}
		c := min(BlockLen-len(w.pending), len(vals))
		w.pending = append(w.pending, vals[:c]...)
		vals = vals[c:]
		if len(w.pending) == BlockLen {
			w.emit(w.pending)
			w.pending = w.pending[:0]
		}
	}
	return nil
}

// appendColumn appends every element of p, a column of the writer's format.
// With nothing pending, p's blocks land on block boundaries of the output and
// are copied verbatim, headers untouched — for a chained transform after
// rebasing the first block when it was encoded behind a different element
// (independently compressed parts start behind 0); deeper blocks reference
// elements inside p. With elements pending, every block boundary of p shifts,
// so its elements re-block through the decoder.
func (w *blockedWriter) appendColumn(p *columns.Column) error {
	if len(w.pending) > 0 {
		if w.buf == nil {
			w.buf = w.bufs.Get(BufferLen)
		}
		r := newBlockedReader(w.t, p, 0, p.N())
		for {
			k, err := r.Read(w.buf)
			if err != nil || k == 0 {
				return err
			}
			if err := w.Write(w.buf[:k]); err != nil {
				return err
			}
		}
	}
	if err := w.t.validate(p); err != nil {
		return err
	}
	if pw, blocks := p.MainWords(), p.MainElems()/BlockLen; blocks > 0 {
		from := 0
		if w.t.chained {
			blk := w.pending[:BlockLen] // nothing is pending, so its space is free
			var err error
			if len(pw) == 0 || pw[0] != w.prev {
				if from, err = w.t.decodeBlock(pw, 0, blk); err != nil {
					return blockContext(err, 0, p.N())
				}
				w.emit(blk)
			}
			// The next block continues behind p's last main element.
			last, err := w.t.skip(pw, blocks-1)
			if err == nil {
				_, err = w.t.decodeBlock(pw, last, blk)
			}
			if err != nil {
				return blockContext(err, (blocks-1)*BlockLen, p.N())
			}
			w.prev = blk[BlockLen-1]
		}
		w.words = w.bufs.Append(w.words, pw[from:]...)
		w.n += p.MainElems()
	}
	return w.Write(p.Remainder())
}

func (w *blockedWriter) Close() (*columns.Column, error) {
	if w.closed {
		return nil, fmt.Errorf("formats: writer already closed")
	}
	w.closed = true
	mainWords := len(w.words)
	words := w.bufs.Append(w.words, w.pending...)
	rem := len(w.pending)
	// The writer's own buffers, issued by bufs.
	_ = w.bufs.Put(w.pending)
	_ = w.bufs.Put(w.scratch)
	_ = w.bufs.Put(w.buf)
	w.pending, w.scratch, w.buf = nil, nil, nil
	return columns.New(w.t.desc, w.n, w.n-rem, mainWords, words)
}
