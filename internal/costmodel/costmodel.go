// Package costmodel implements the gray-box cost model for lightweight
// integer compression that MorphStore-Go's compression-aware optimization
// builds on (paper §5, "Determining a good format combination"; Damme et
// al., ACM TODS 44(3), 2019): analytic per-format size estimates driven by
// compact data characteristics (bit-width histograms, sortedness, run
// structure).
//
// The model never inspects the full data; it consumes a stats.Profile, the
// per-intermediate characteristics the paper assumes known during planning.
package costmodel

import (
	"fmt"
	"math/bits"

	"morphstore/internal/columns"
	"morphstore/internal/formats"
	"morphstore/internal/stats"
)

// EstimateBytes returns the estimated physical size of a column with the
// given data characteristics when stored in the given format.
func EstimateBytes(p *stats.Profile, desc columns.FormatDesc) (int, error) {
	n := p.N
	meta := columns.MetadataBytes
	if int(desc.Kind) >= columns.NumKinds {
		return 0, fmt.Errorf("costmodel: no size model for %v", desc)
	}
	if n == 0 {
		return meta, nil
	}
	switch desc.Kind {
	case columns.Uncompressed:
		return meta + 8*n, nil

	case columns.StaticBP:
		b := p.MaxBits
		if desc.Bits != 0 {
			b = uint(desc.Bits)
		}
		return meta + packedBytes(n, float64(b)), nil

	case columns.DynBP:
		return meta + blockedBytes(n, desc.Kind, stats.ExpectedBlockMaxBits(&p.BitHist, n, formats.BlockLen)), nil

	case columns.DeltaBP:
		// The first element has no predecessor; its "delta" is the value
		// itself, a negligible contribution the histogram model ignores.
		return meta + blockedBytes(n, desc.Kind, stats.ExpectedBlockMaxBits(&p.DeltaBitHist, n-1, formats.BlockLen)), nil

	case columns.ForBP:
		var e float64
		if p.Sorted && n > formats.BlockLen {
			// Sorted data: a block spans ~1/nb of the value range, so the
			// per-block offsets need bits(range * blockLen / n).
			span := float64(p.Max-p.Min) * float64(formats.BlockLen) / float64(n)
			e = float64(bits.Len64(uint64(span)))
		} else {
			// Unsorted: assume the global minimum approximates each block's
			// reference and model the block maximum of the shifted widths.
			e = stats.ExpectedBlockMaxBits(&p.ForBitHist, n, formats.BlockLen)
		}
		return meta + blockedBytes(n, desc.Kind, e), nil

	case columns.RLE:
		return meta + 16*p.Runs, nil

	default:
		return 0, fmt.Errorf("costmodel: no size model for %v", desc)
	}
}

// blockedBytes is the data size of n elements in a blocked format whose
// blocks pack their transformed values at an expected width of e bits: whole
// blocks of header plus payload, and the trailing elements as the column's
// uncompressed remainder. Adding a cascade means one more case above that
// supplies its e.
func blockedBytes(n int, kind columns.Kind, e float64) int {
	perBlock := formats.BlockHeaderBytes(kind) + packedBytes(formats.BlockLen, e)
	return n/formats.BlockLen*perBlock + 8*(n%formats.BlockLen)
}

// packedBytes is the expected packed payload size of n values at a
// (possibly fractional, expected) bit width.
func packedBytes(n int, bits float64) int {
	words := float64(n) * bits / 64
	return int(words+0.999) * 8
}

// ChooseBySize returns the candidate format with the smallest estimated
// physical size — the compression-rate objective of the selection strategy,
// the one evaluated in Fig. 10.
func ChooseBySize(p *stats.Profile, candidates []columns.FormatDesc) (columns.FormatDesc, error) {
	if len(candidates) == 0 {
		return columns.FormatDesc{}, fmt.Errorf("costmodel: no candidate formats")
	}
	best := candidates[0]
	bestSize := -1
	for _, d := range candidates {
		s, err := EstimateBytes(p, d)
		if err != nil {
			return columns.FormatDesc{}, err
		}
		if bestSize < 0 || s < bestSize {
			best, bestSize = d, s
		}
	}
	return best, nil
}
