// Package morph implements format morphing: changing the representation of a
// column from one lightweight compressed format to another (paper §3.2,
// "on-the-fly morphing", and Damme et al., "Direct transformation techniques
// for compressed data", ADBIS 2015).
//
// Morphing never materializes the whole column uncompressed in main memory.
// The generic path streams the column through a format Reader into a format
// Writer at Lx-cache-resident-block granularity; the one direct morph,
// DynBP to static BP, exploits the source layout to shortcut the width
// derivation (it reads only the DynBP block headers).
package morph

import (
	"fmt"

	"morphstore/internal/bitutil"
	"morphstore/internal/columns"
	"morphstore/internal/formats"
)

// Morph returns a column with the same logical content as col represented in
// the requested format. If the column already is in that format it is
// returned unchanged. DynBP to static BP takes the direct morph; every
// other pair streams block-wise through the format reader and writer.
func Morph(col *columns.Column, dst columns.FormatDesc) (*columns.Column, error) {
	src := col.Desc()
	if src.Kind == dst.Kind {
		if src.Kind != columns.StaticBP || dst.Bits == 0 || src.Bits == dst.Bits {
			return col, nil
		}
	}
	if src.Kind == columns.DynBP && dst.Kind == columns.StaticBP {
		return morphDynBPToStaticBP(col, dst)
	}
	return Generic(col, dst)
}

// Generic is the block-granular fallback morph: decompress through a Reader
// into a cache-resident buffer, recompress through a Writer. Exposed for the
// tests comparing it against the direct morph.
func Generic(col *columns.Column, dst columns.FormatDesc) (*columns.Column, error) {
	r, err := formats.NewReader(col)
	if err != nil {
		return nil, err
	}
	w, err := formats.NewWriter(dst, col.N())
	if err != nil {
		return nil, err
	}
	buf := make([]uint64, formats.BufferLen)
	for {
		k, err := r.Read(buf)
		if err != nil {
			return nil, fmt.Errorf("morph %v -> %v: %w", col.Desc(), dst, err)
		}
		if k == 0 {
			break
		}
		if err := w.Write(buf[:k]); err != nil {
			return nil, fmt.Errorf("morph %v -> %v: %w", col.Desc(), dst, err)
		}
	}
	out, err := w.Close()
	if err != nil {
		return nil, fmt.Errorf("morph %v -> %v: %w", col.Desc(), dst, err)
	}
	return out, nil
}

// morphDynBPToStaticBP derives the global bit width from the DynBP block
// headers and the remainder without unpacking any payload, then repacks
// block by block through the preset-width writer.
func morphDynBPToStaticBP(col *columns.Column, dst columns.FormatDesc) (*columns.Column, error) {
	if dst.Bits == 0 {
		var bits uint
		tail, err := formats.WalkBlocks(col, func(b uint, _ []uint64) { bits = max(bits, b) })
		if err != nil {
			return nil, fmt.Errorf("morph %v -> %v: %w", col.Desc(), dst, err)
		}
		dst = columns.StaticBPDesc(max(bits, bitutil.MaxBits(tail)))
	}
	return Generic(col, dst)
}
