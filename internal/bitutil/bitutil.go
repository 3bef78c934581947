// Package bitutil provides the bit-level kernels underlying every
// null-suppression (NS) compression format in MorphStore-Go: tight bit
// packing of 64-bit integers at arbitrary widths, the width scan that picks
// the width (MaxBits) and random access into packed words, plus the block
// kernels the operators run over unpacked values (the range selects, the
// dense-key probe and the gathers, kernels.go) and the two passes of a
// column profile. The unpack, the pack, the width scan and the block and
// profile kernels run in AVX-512 where the CPU has it and as Go loops
// elsewhere.
//
// Packing layout: values are stored LSB-first in a contiguous stream of
// 64-bit words. Value i occupies bit positions [i*bits, (i+1)*bits) of the
// stream; fields may straddle word boundaries. A convenient consequence is
// that 64 values of width b occupy exactly b words.
package bitutil

//go:generate go run ./gen

import "math/bits"

// Mask returns a mask with the low b bits set. b must be in [0, 64].
func Mask(b uint) uint64 {
	if b >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << b) - 1
}

// MaxBits returns the effective bit width of the largest value in vals,
// i.e. the smallest b such that every value fits in b bits. The width of an
// empty or all-zero slice is 0.
func MaxBits(vals []uint64) uint {
	var acc uint64
	i := 0
	if vec() && len(vals) >= 8 {
		i = len(vals) &^ 7
		acc = orVec(vals[:i])
	}
	for _, v := range vals[i:] {
		acc |= v
	}
	return uint(bits.Len64(acc))
}

// EffectiveBits returns the effective bit width of a single value.
func EffectiveBits(v uint64) uint { return uint(bits.Len64(v)) }

// PackedWords returns the number of 64-bit words required to store n values
// at the given width.
func PackedWords(n int, width uint) int {
	if width == 0 || n <= 0 {
		return 0
	}
	return int((uint64(n)*uint64(width) + 63) / 64)
}

// Pack packs all values of src at the given width into dst, LSB-first.
// dst must have at least PackedWords(len(src), width) entries and is not
// written beyond them. Values wider than width are truncated to their low
// width bits. width must be in [0, 64].
func Pack(dst []uint64, src []uint64, width uint) {
	if width == 0 {
		return
	}
	if width == 64 {
		copy(dst, src)
		return
	}
	// The vector kernel or the unrolled per-width kernels handle whole groups
	// of 64 values.
	i, w := 0, 0
	if width >= minVecPackWidth && width <= maxVecUnpackWidth && vec() {
		packVec(dst, src, width)
		i = len(src) &^ 63
		w = i / 64 * int(width)
	}
	if f := pack64[width]; f != nil {
		for ; i+64 <= len(src); i, w = i+64, w+int(width) {
			f(src[i:i+64], dst[w:])
		}
	}
	src = src[i:]
	dst = dst[w:]
	if len(src) == 0 {
		return
	}
	m := Mask(width)
	var acc uint64
	var used uint
	w = 0
	for _, v := range src {
		v &= m
		acc |= v << used
		used += width
		if used >= 64 {
			dst[w] = acc
			w++
			used -= 64
			if used > 0 {
				acc = v >> (width - used)
			} else {
				acc = 0
			}
		}
	}
	if used > 0 {
		dst[w] = acc
	}
}

// Unpack unpacks len(dst) values of the given width from src into dst.
// src must contain at least PackedWords(len(dst), width) words.
func Unpack(dst []uint64, src []uint64, width uint) {
	if width == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	if width == 64 {
		copy(dst, src)
		return
	}
	// The vector kernel or the unrolled per-width kernels handle whole groups
	// of 64 values.
	i, w := 0, 0
	if width <= maxVecUnpackWidth && vec() {
		unpackVec(dst, src, width)
		i = len(dst) &^ 63
		w = i / 64 * int(width)
	}
	for ; i+64 <= len(dst); i, w = i+64, w+int(width) {
		unpack64(src[w:], dst[i:i+64], width)
	}
	dst = dst[i:]
	src = src[w:]
	if len(dst) == 0 {
		return
	}
	if 64%width == 0 {
		unpackAligned(dst, src, width)
		return
	}
	m := Mask(width)
	var bitpos uint
	w = 0
	for i := range dst {
		v := src[w] >> bitpos
		if rem := 64 - bitpos; rem < width {
			v |= src[w+1] << rem
		}
		dst[i] = v & m
		bitpos += width
		if bitpos >= 64 {
			bitpos -= 64
			w++
		}
	}
}

// unpackAligned handles widths that divide 64: fields never straddle words,
// which permits a branch-free inner loop over whole words.
func unpackAligned(dst []uint64, src []uint64, width uint) {
	m := Mask(width)
	per := int(64 / width)
	i := 0
	n := len(dst)
	for w := 0; i+per <= n; w++ {
		v := src[w]
		for l := 0; l < per; l++ {
			dst[i+l] = v & m
			v >>= width
		}
		i += per
	}
	if i < n {
		v := src[(i*int(width))/64]
		for ; i < n; i++ {
			dst[i] = v & m
			v >>= width
		}
	}
}

// UnpackGroup decodes the g-th group of 64 consecutive values from the
// packed word stream into dst. Groups are the natural decode unit of the
// packing layout (64 values of width w occupy exactly w words), which makes
// group-cached access to sorted position sequences nearly sequential-speed.
// The stream must contain all 64 values of the group.
func UnpackGroup(dst *[64]uint64, words []uint64, g int, width uint) {
	switch {
	case width == 0:
		*dst = [64]uint64{}
	case width == 64:
		copy(dst[:], words[g*64:])
	case width <= maxVecUnpackWidth && vec():
		unpackVec(dst[:], words[g*int(width):], width)
	default:
		unpack64(words[g*int(width):], dst[:], width)
	}
}

// Get returns the i-th value of width bits from the packed word stream.
// This is the random-access primitive used by the static bit-packing format.
//
// It is branch-free past the zero-width check: the field's bits above the
// first word always come from the next word, clamped to the last one. Where
// the field does not straddle, that word contributes only bits above the
// field, which the mask drops; at offset 0 the shift is 64, which Go defines
// as 0.
func Get(words []uint64, i int, width uint) uint64 {
	if width == 0 {
		return 0
	}
	bitpos := uint64(i) * uint64(width)
	w := bitpos >> 6
	off := uint(bitpos & 63)
	v := words[w]>>off | words[min(w+1, uint64(len(words)-1))]<<(64-off)
	return v & (^uint64(0) >> (64 - width))
}
