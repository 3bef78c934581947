package formats

import (
	"fmt"

	"morphstore/internal/bitutil"
	"morphstore/internal/bufpool"
	"morphstore/internal/columns"
	"morphstore/internal/faultpoint"
)

// This file implements the concatenation of compressed columns: several
// columns of one format become a single column byte-identical to compressing
// their element streams back to back in one pass. There is no second encoder
// for it: the format's Writer is fed the parts whole (appendColumn), and
// copies a part's words wherever the part starts on one of its group, block
// or run boundaries:
//
//	Uncompressed  written from the part's value view.
//	StaticBP      whole groups copied when the writer is on a group boundary
//	              at the part's width; the partial last group stays open.
//	              The writer starts at the widest part's width.
//	blocked       (DynBP, DeltaBP, ForBP) whole blocks copied, headers
//	              untouched, when nothing is pending; a DELTA part's first
//	              block is rebased when its stored base is not the element
//	              before it. The remainder stays pending.
//	RLE           runs copied, the first merged into the open run; the last
//	              stays open.
//
// Any other part streams through its reader into Write.

// CanConcat reports whether ConcatCompressed supports the format.
func CanConcat(kind columns.Kind) bool { return lookup(kind).Codec != nil }

// ConcatCompressed concatenates parts — all columns in desc's format — into
// one column holding their element streams back to back, byte-identical to
// compressing the whole concatenated stream monolithically with desc. One
// writer of desc's format takes each part whole, so a part is copied, not
// re-encoded, wherever it starts on a group or block boundary at the writer's
// width.
//
// For an auto-width static BP request (desc.Bits == 0) the width is the
// widest part's, which equals the monolithic derived width whenever every
// part was itself compressed at its tight (derived) width.
func ConcatCompressed(desc columns.FormatDesc, parts []*columns.Column) (*columns.Column, error) {
	if err := faultpoint.ConcatFixup.Hit(); err != nil {
		return nil, err
	}
	n, words := 0, 0
	var widest uint8
	for _, p := range parts {
		if p == nil {
			return nil, fmt.Errorf("formats: concat: nil part")
		}
		if p.Desc().Kind != desc.Kind {
			return nil, fmt.Errorf("formats: concat: part is %v, want %v", p.Desc(), desc)
		}
		n += p.N()
		words += len(p.Words())
		widest = max(widest, min(p.Desc().Bits, 64)) // a wider part fails its own check
	}
	if desc == columns.StaticBPDesc(0) {
		desc.Bits = widest
	}
	w, err := concatWriter(desc, n, words)
	if err != nil {
		return nil, err
	}
	for _, p := range parts {
		if err := appendColumn(w, p); err != nil {
			return nil, err
		}
	}
	return w.Close()
}

// AppendTail returns col extended by tail, in col's format, without decoding
// col's compressed main part: col is copied into a writer of its format
// (whole blocks, static BP groups or runs) and the tail is written behind it,
// so the tail is encoded once. A static BP column stays at auto width: a tail
// value wider than col's width widens the result. When col is as a writer at
// auto width leaves it, the result is byte-identical to compressing col's
// elements followed by tail in one pass.
func AppendTail(col *columns.Column, tail []uint64) (*columns.Column, error) {
	if err := faultpoint.ConcatFixup.Hit(); err != nil {
		return nil, err
	}
	desc := col.Desc()
	if desc.Kind == columns.StaticBP {
		// The writer starts at the final width, so col's groups are copied or
		// repacked once and the tail packs at that width. A width past 64
		// fails col's own check.
		desc.Bits = max(min(desc.Bits, 64), uint8(bitutil.MaxBits(tail)))
	}
	// The buffer has room for the tail at its largest, so col's words are
	// copied once whatever the tail holds. A blocked writer stores col's
	// remainder and the tail as raw words or as blocks of at most 64 bits per
	// element plus a header each; RLE stores at most one run per tail element.
	words := len(col.Words())
	switch t := lookup(desc.Kind).blocked; {
	case t != nil:
		words += len(tail) + t.hdrWords*(len(tail)/BlockLen+1)
	case desc.Kind == columns.RLE:
		words += 2 * len(tail)
	}
	w, err := concatWriter(desc, col.N()+len(tail), words)
	if err != nil {
		return nil, err
	}
	if err := appendColumn(w, col); err != nil {
		return nil, err
	}
	if err := w.Write(tail); err != nil {
		return nil, err
	}
	return w.Close()
}

// concatWriter opens the writer ConcatCompressed and AppendTail feed: n
// elements in desc's format. Its output buffer starts with room for words
// words in the formats whose size n does not determine.
func concatWriter(desc columns.FormatDesc, n, words int) (Writer, error) {
	f := lookup(desc.Kind)
	switch {
	case f.blocked != nil:
		return newBlockedWriter(f.blocked, words, nil), nil
	case desc.Kind == columns.RLE:
		return &rleWriter{words: make([]uint64, 0, words)}, nil
	}
	return NewWriter(desc, n)
}

// appendColumn appends every element of p, a column of w's format, to w:
// through the writer's own appendColumn where it has one, else (the
// uncompressed writer) through writeColumn.
func appendColumn(w Writer, p *columns.Column) error {
	if a, ok := w.(interface{ appendColumn(*columns.Column) error }); ok {
		return a.appendColumn(p)
	}
	var buf []uint64
	return writeColumn(w, p, nil, &buf)
}

// writeColumn streams every element of p into w: an uncompressed p in one
// Write of its value view, any other through its reader in chunks of *buf,
// which it draws from bufs on first use.
func writeColumn(w Writer, p *columns.Column, bufs *bufpool.Lease, buf *[]uint64) error {
	if vals, ok := p.Values(); ok {
		return w.Write(vals)
	}
	r, err := NewReader(p)
	if err != nil {
		return err
	}
	if *buf == nil {
		*buf = bufs.Get(BufferLen)
	}
	for {
		k, err := r.Read(*buf)
		if err != nil || k == 0 {
			return err
		}
		if err := w.Write((*buf)[:k]); err != nil {
			return err
		}
	}
}
