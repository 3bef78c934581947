package formats

import (
	"fmt"

	"morphstore/internal/bitutil"
	"morphstore/internal/columns"
	"morphstore/internal/faultpoint"
)

// This file implements the concatenation of compressed columns: several
// columns of one format become a single column byte-identical to compressing
// their element streams back to back in one pass. AppendTail uses it to
// extend a compressed main by a compressed tail (the delta merge and the
// remorph fold) without decoding the main.
//
// Every format concatenates by plain copies as long as each seam falls on a
// block boundary in the logical stream; the remaining fixups are:
//
//	Uncompressed  plain word copy, any seam.
//	StaticBP      packed bit-stream append; word-copy at 64-element seams,
//	              shift-merge otherwise, width-repack when parts disagree.
//	blocked       (DynBP, DeltaBP, ForBP) whole blocks copied verbatim,
//	              headers untouched; a misaligned seam re-blocks the following
//	              part. A chained transform (DELTA) additionally rebases the
//	              first block of each part onto the preceding stream element
//	              when its stored base disagrees (parts compressed
//	              independently start at base 0); FOR references are per-block
//	              minima and self-contained.
//	RLE           run lists appended with an adjacent-run merge at each seam,
//	              which restores the canonical maximal-run encoding.

// CanConcat reports whether ConcatCompressed supports the format.
func CanConcat(kind columns.Kind) bool { return lookup(kind).concat != nil }

// ConcatCompressed concatenates parts — all columns in desc's format — into
// one column holding their element streams back to back, byte-identical to
// compressing the whole concatenated stream monolithically with desc. Whole
// compressed blocks are copied; only seams that do not fall on a block
// boundary force the following part through a re-encoding path, and the
// format-specific head fixups (DeltaBP rebase, RLE run merge) touch O(1)
// blocks or runs per seam.
//
// For an auto-width static BP request (desc.Bits == 0) the target width is
// the maximum of the parts' widths, which equals the monolithic derived
// width whenever every part was itself compressed at its tight (derived)
// width.
func ConcatCompressed(desc columns.FormatDesc, parts []*columns.Column) (*columns.Column, error) {
	if err := faultpoint.ConcatFixup.Hit(); err != nil {
		return nil, err
	}
	for _, p := range parts {
		if p == nil {
			return nil, fmt.Errorf("formats: concat: nil part")
		}
		if p.Desc().Kind != desc.Kind {
			return nil, fmt.Errorf("formats: concat: part is %v, want %v", p.Desc(), desc)
		}
	}
	concat := lookup(desc.Kind).concat
	if concat == nil {
		return nil, fmt.Errorf("formats: no codec for kind %v", desc.Kind)
	}
	return concat(desc, parts)
}

func concatUncompr(_ columns.FormatDesc, parts []*columns.Column) (*columns.Column, error) {
	total := 0
	for _, p := range parts {
		total += p.N()
	}
	words := make([]uint64, 0, total)
	for _, p := range parts {
		words = append(words, p.Words()...)
	}
	return columns.FromValues(words), nil
}

// appendPackedBits ORs the first nbits bits of the packed source stream into
// dst starting at bit position bitPos. dst must be zero beyond bitPos and the
// source padding bits beyond nbits must be zero (both hold for freshly packed
// buffers), so a word-aligned bitPos degrades to a plain copy and a
// misaligned one to a two-target shift-merge per word.
func appendPackedBits(dst []uint64, bitPos uint64, src []uint64, nbits uint64) {
	if nbits == 0 {
		return
	}
	srcWords := int((nbits + 63) / 64)
	w := int(bitPos >> 6)
	off := uint(bitPos & 63)
	if off == 0 {
		copy(dst[w:], src[:srcWords])
		return
	}
	endWord := int((bitPos + nbits - 1) >> 6)
	for i := 0; i < srcWords; i++ {
		v := src[i]
		dst[w+i] |= v << off
		if w+i+1 <= endWord {
			dst[w+i+1] |= v >> (64 - off)
		}
	}
}

func concatStaticBP(desc columns.FormatDesc, parts []*columns.Column) (*columns.Column, error) {
	bits := uint(desc.Bits)
	total := 0
	for _, p := range parts {
		if _, _, err := staticBPWords(p); err != nil {
			return nil, err
		}
		total += p.N()
		pb := uint(p.Desc().Bits)
		if desc.Bits == 0 {
			// Auto width: the widest part decides (tight part widths make
			// this the monolithic derived width).
			bits = max(bits, pb)
		} else if pb > bits {
			return nil, fmt.Errorf("formats: concat: static BP width %d cannot hold %d-bit part", bits, pb)
		}
	}
	if bits == 0 { // every element of every part is zero
		return columns.New(columns.FormatDesc{Kind: columns.StaticBP}, total, total, 0, nil)
	}
	// The parts are ORed into the words, so they start cleared.
	words := make([]uint64, bitutil.PackedWords(total, bits))
	var vbuf, tmp []uint64 // width-repack scratch, taken on demand
	bitPos := uint64(0)
	for _, p := range parts {
		n := p.N()
		if n == 0 {
			continue
		}
		pb := uint(p.Desc().Bits)
		switch {
		case pb == 0:
			// All-zero part: the target bits are already zero.
		case pb == bits:
			appendPackedBits(words, bitPos, p.MainWords(), uint64(n)*uint64(bits))
		default:
			// Width mismatch: unpack and repack chunk-wise at the target
			// width. Chunks are multiples of 64 elements, so both the source
			// read and the scratch pack stay word-aligned.
			const repackChunk = 4 * 1024
			if vbuf == nil {
				vbuf = make([]uint64, repackChunk)
				tmp = make([]uint64, bitutil.PackedWords(repackChunk, 64))
			}
			pw := p.MainWords()
			for off := 0; off < n; off += repackChunk {
				k := min(repackChunk, n-off)
				bitutil.Unpack(vbuf[:k], pw[off*int(pb)/64:], pb)
				tw := bitutil.PackedWords(k, bits)
				clear(tmp[:tw])
				bitutil.Pack(tmp[:tw], vbuf[:k], bits)
				appendPackedBits(words, bitPos+uint64(off)*uint64(bits), tmp[:tw], uint64(k)*uint64(bits))
			}
		}
		bitPos += uint64(n) * uint64(bits)
	}
	return columns.New(columns.FormatDesc{Kind: columns.StaticBP, Bits: uint8(bits)},
		total, total, len(words), words)
}

func concatRLE(_ columns.FormatDesc, parts []*columns.Column) (*columns.Column, error) {
	total, capWords := 0, 0
	for _, p := range parts {
		total += p.N()
		capWords += len(p.MainWords())
	}
	words := make([]uint64, 0, capWords)
	for _, p := range parts {
		pw := p.MainWords()
		// The concatenation reuses the parts' run words verbatim, so their
		// lengths must be validated here: a corrupt run total would become an
		// undetectable lie about the combined column's element count.
		if err := rleCheck(pw, p.N()); err != nil {
			return nil, err
		}
		// Seam fixup: a run continuing across the part boundary merges into
		// the preceding run, restoring maximal (canonical) runs. One merge
		// suffices — runs within a part already alternate values.
		if len(words) >= 2 && len(pw) >= 2 && words[len(words)-2] == pw[0] {
			words[len(words)-1] += pw[1]
			pw = pw[2:]
		}
		words = append(words, pw...)
	}
	return columns.New(columns.RLEDesc, total, total, len(words), words)
}
