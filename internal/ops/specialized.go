package ops

import (
	"math/bits"

	"morphstore/internal/bitutil"
	"morphstore/internal/columns"
	"morphstore/internal/formats"
)

// This file implements the kernels of the "specialized operator" integration
// degree (Fig. 2c): kernels that process compressed data directly, without
// decompressing into any buffer. They are format-specific by design, and the
// auto operators employ them selectively (§3.2) — only at the formats and
// widths where they beat the on-the-fly de/re-compression kernels (the
// dispatch tables of select.go and agg.go). They plug into the same morsel
// drivers as the generic kernels: the SWAR select partitions at the 64-value
// packing-group granularity (its widths divide 64, so a morsel boundary is
// always a packed-word boundary), and RLE never splits, so the run-level sum
// always sees the whole column.

// swarSelect evaluates the range test f-lo <= span (modulo the field range)
// directly on the packed words of a static BP column, in the spirit of
// BitWeaving/SIMD-Scan: one word-level instruction sequence tests the 64/b
// fields of a word and leaves one result bit at the top of each matching
// field, from which the positions fall out by a shift. Morsel starts are
// multiples of 64 elements, so they always coincide with a packed-word
// boundary.
func swarSelect(in *columns.Column, lo, span uint64) emitKernel {
	b := uint(in.Desc().Bits)
	per, shift := int(64/b), uint(bits.TrailingZeros(b))
	test := bitutil.NewPackedRange(lo, span, b)
	return func(pt formats.Partition, stage [][]uint64, sinks []formats.Writer) error {
		words, _, err := formats.StaticBPWords(in)
		if err != nil {
			return err
		}
		out, k := stage[0], 0
		end := pt.Start + pt.Count
		for wi := pt.Start / per; wi*per < end; wi++ {
			if k+per > len(out) {
				if err := flush(stage, k, sinks); err != nil {
					return err
				}
				k = 0
			}
			m, base := test.Match(words[wi]), wi*per
			if valid := end - base; valid < per {
				// The unused fields of the last word hold zero and may pass the test.
				m &= uint64(1)<<(uint(valid)*b) - 1
			}
			for ; m != 0; m &= m - 1 {
				out[k] = uint64(base + bits.TrailingZeros64(m)>>shift)
				k++
			}
		}
		return flush(stage, k, sinks)
	}
}

// sumRLE sums an RLE column as the dot product of run values and run
// lengths, never touching individual elements (Abadi et al. [2]).
func sumRLE(in *columns.Column) reduceKernel {
	return func(acc []uint64, _ formats.Partition) error {
		runs, err := formats.RLERuns(in)
		if err != nil {
			return err
		}
		for _, r := range runs {
			acc[0] += r.Value * r.Length
		}
		return nil
	}
}
