// Package morph implements format morphing: changing the representation of a
// column from one lightweight compressed format to another (paper §3.2,
// "on-the-fly morphing", and Damme et al., "Direct transformation techniques
// for compressed data", ADBIS 2015).
//
// Morphing never materializes the whole column uncompressed in main memory.
// The generic path streams the column through a format Reader into a format
// Writer at Lx-cache-resident-block granularity; direct morph algorithms
// registered for specific format pairs shortcut even that, exploiting the
// source layout (e.g. reading only the block headers of DynBP to derive the
// static BP width).
package morph

import (
	"fmt"

	"morphstore/internal/bitutil"
	"morphstore/internal/columns"
	"morphstore/internal/formats"
)

// directMorph transforms col into the destination format, exploiting the
// concrete source and destination layouts.
type directMorph func(col *columns.Column, dst columns.FormatDesc) (*columns.Column, error)

type kindPair struct{ src, dst columns.Kind }

var direct = map[kindPair]directMorph{}

func registerDirect(src, dst columns.Kind, f directMorph) {
	direct[kindPair{src, dst}] = f
}

func init() {
	registerDirect(columns.DynBP, columns.StaticBP, morphDynBPToStaticBP)
	registerDirect(columns.RLE, columns.Uncompressed, morphRLEToUncompressed)
}

// Morph returns a column with the same logical content as col represented in
// the requested format. If the column already is in that format it is
// returned unchanged. A registered direct morph algorithm is preferred; the
// generic fallback streams block-wise through the format reader and writer.
func Morph(col *columns.Column, dst columns.FormatDesc) (*columns.Column, error) {
	src := col.Desc()
	if src.Kind == dst.Kind {
		if src.Kind != columns.StaticBP || dst.Bits == 0 || src.Bits == dst.Bits {
			return col, nil
		}
	}
	if f, ok := direct[kindPair{src.Kind, dst.Kind}]; ok {
		return f(col, dst)
	}
	return Generic(col, dst)
}

// Generic is the block-granular fallback morph: decompress through a Reader
// into a cache-resident buffer, recompress through a Writer. Exposed for the
// ablation benchmarks comparing it against the direct algorithms.
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

// morphRLEToUncompressed expands runs straight into the output buffer.
func morphRLEToUncompressed(col *columns.Column, _ columns.FormatDesc) (*columns.Column, error) {
	runs, err := formats.RLERuns(col)
	if err != nil {
		return nil, err
	}
	out := make([]uint64, 0, col.N())
	for _, r := range runs {
		for i := uint64(0); i < r.Length; i++ {
			out = append(out, r.Value)
		}
	}
	if len(out) != col.N() {
		return nil, fmt.Errorf("morph: %w: RLE runs cover %d of %d elements", formats.ErrCorrupt, len(out), col.N())
	}
	return columns.FromValues(out), nil
}
