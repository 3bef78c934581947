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
// drivers as the generic kernels: the static BP SWAR kernels partition at the
// 64-value packing-group granularity (any SWAR width divides 64, so a morsel
// boundary is always a packed-word boundary), and RLE never splits, so its
// run-level kernels always see the whole column.

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

// rleSelect evaluates the range test run by run: a matching run of length l
// contributes l consecutive positions at once.
func rleSelect(in *columns.Column, lo, span uint64) emitKernel {
	return func(_ formats.Partition, stage [][]uint64, sinks []formats.Writer) error {
		runs, err := formats.RLERuns(in)
		if err != nil {
			return err
		}
		out, k := stage[0], 0
		pos := uint64(0)
		for _, r := range runs {
			if r.Value-lo <= span {
				for i := uint64(0); i < r.Length; i++ {
					out[k] = pos + i
					k++
					if k == len(out) {
						if err := flush(stage, k, sinks); err != nil {
							return err
						}
						k = 0
					}
				}
			}
			pos += r.Length
		}
		return flush(stage, k, sinks)
	}
}

// sumStaticBP sums a morsel of a static BP column at a SWAR width directly
// on its packed words via window-parallel SWAR accumulation (the
// bit-parallel aggregation of Feng & Lo [25]). pt.Start is a multiple of 64
// elements, so the morsel's packed words begin word-aligned at Start*b/64 and
// span exactly the words holding its Count fields.
func sumStaticBP(in *columns.Column) reduceKernel {
	return func(acc []uint64, pt formats.Partition) error {
		words, b, err := formats.StaticBPWords(in)
		if err != nil {
			return err
		}
		startW := pt.Start * int(b) / 64
		acc[0] += bitutil.SumPackedWords(words[startW:startW+bitutil.PackedWords(pt.Count, b)], b)
		return nil
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
