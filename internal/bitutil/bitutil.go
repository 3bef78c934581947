// Package bitutil provides the bit-level kernels underlying every
// null-suppression (NS) compression format in MorphStore-Go: tight bit
// packing of 64-bit integers at arbitrary widths, the width scan that picks
// the width (MaxBits) and random access into packed words, plus the block
// kernels the operators run over unpacked values (the range selects, the
// dense-key probe and the gathers, kernels.go) and the two passes of a
// column profile. The unpack, the pack, the width scan and the block and
// profile kernels run in AVX-512 where the CPU has it and as Go elsewhere:
// two implementations of each. The Go pack and unpack take 8-value steps
// through unaligned loads and stores on amd64 and arm64 (stepLayout) and
// leave plain loops the rest: widths past 56, the last few values, and
// every other architecture. On the AVX-512 path the assembly takes the whole
// 64-value groups at widths up to 56 and the Go code the rest, except that
// pack1 packs width 1 on both paths.
//
// Packing layout: values are stored LSB-first in a contiguous stream of
// 64-bit words. Value i occupies bit positions [i*bits, (i+1)*bits) of the
// stream; fields may straddle word boundaries. A convenient consequence is
// that 64 values of width b occupy exactly b words.
package bitutil

import (
	"math/bits"
	"runtime"
	"unsafe"
)

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
	dst = dst[:PackedWords(len(src), width)]
	// Whole groups of 64 values go to pack1 at width 1 or to the vector
	// kernel; then 8-value steps to the unaligned stores, and the
	// accumulator loop packs the rest.
	i := 0
	if width < minVecPackWidth {
		i = pack1(dst, src)
	} else if width <= maxVecUnpackWidth && vec() {
		packVec(dst, src, width)
		i = len(src) &^ 63
	}
	if unalignedLE && width <= maxUnalignedWidth && i < len(src) {
		i += packUnaligned(dst[i/64*int(width):], src[i:], width)
	}
	m := Mask(width)
	bit := i * int(width)
	w := bit / 64
	used := uint(bit % 64)
	var acc uint64
	if used > 0 {
		acc = dst[w] & Mask(used)
	}
	for _, v := range src[i:] {
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

// pack1 packs the whole 64-value groups of src at width 1, one word each, and
// returns how many values it packed. It ORs 8 fields per step, where the
// accumulator loop takes a dependent shift and OR per value: width 1 is
// every DELTA+BP block of a dense position list.
func pack1(dst, src []uint64) int {
	n := len(src) &^ 63
	for i := 0; i < n; i += 64 {
		var acc uint64
		for l := 0; l < 64; l += 8 {
			s := src[i+l:][:8]
			acc |= (s[0]&1 | s[1]&1<<1 | s[2]&1<<2 | s[3]&1<<3 | s[4]&1<<4 | s[5]&1<<5 | s[6]&1<<6 | s[7]&1<<7) << l
		}
		dst[i/64] = acc
	}
	return n
}

// Unpack unpacks len(dst) values of the given width from src into dst.
// src must contain at least PackedWords(len(dst), width) words.
func Unpack(dst []uint64, src []uint64, width uint) {
	if width == 0 {
		clear(dst)
		return
	}
	if width == 64 {
		copy(dst, src)
		return
	}
	// The vector kernel decodes whole groups of 64 values, the unaligned
	// loads 8-value steps, and Get the rest.
	i := 0
	if width <= maxVecUnpackWidth && vec() {
		unpackVec(dst, src, width)
		i = len(dst) &^ 63
	}
	if unalignedLE && width <= maxUnalignedWidth && i < len(dst) {
		i += unpackUnaligned(dst[i:], src[i/64*int(width):], width)
	}
	for ; i < len(dst); i++ {
		dst[i] = Get(src, i, width)
	}
}

// The portable pack and unpack of widths up to maxUnalignedWidth run in
// 8-value steps, where every field's bit offset is the same in every step:
// 8 values of width w take exactly w bytes. Field k of a step starts in its
// byte k·w/8, at bit k·w%8 ≤ 7 of it, so one unaligned 8-byte load or store
// there holds the whole field, and up to width pairWidth the pair of fields
// 2j and 2j+1. The step's byte offsets and multipliers come from a table per
// width, so a step has no bounds check and no data-dependent branch. That
// needs a little-endian byte order, in which byte b of the word stream holds
// its bits 8b..8b+7, and cheap unaligned access; elsewhere the Go loops of
// Pack and Unpack run alone.
const (
	unalignedLE       = runtime.GOARCH == "amd64" || runtime.GOARCH == "arm64"
	maxUnalignedWidth = 56
	pairWidth         = 28
)

// stepLayout is one width's 8-value step. Field k is loaded or stored at
// byte off[k] of the step: its own first byte, or up to pairWidth its
// pair's, so that off[2j+1] = off[2j]. It sits at bit b = k·w-8·off[k] of
// that 8-byte word, and b+w ≤ 64.
type stepLayout struct {
	off   [8]uintptr
	lift  [8]uint64 // 1<<(64-b-w): a multiply moves the field to the top bits
	place [8]uint64 // 1<<b: a multiply moves a value to the field
	drop  [8]uint   // 8·(off[k]-off[k-1]): the bits the pack's window passes
}

var stepLayouts = func() (t [maxUnalignedWidth + 1]stepLayout) {
	for w := uint(1); w <= maxUnalignedWidth; w++ {
		l := &t[w]
		for k := uint(0); k < 8; k++ {
			first := k
			if w <= pairWidth {
				first = k &^ 1
			}
			l.off[k] = uintptr(first * w / 8)
			b := k*w - 8*uint(l.off[k])
			l.lift[k] = 1 << (64 - b - w)
			l.place[k] = 1 << b
			if k > 0 {
				l.drop[k] = 8 * uint(l.off[k]-l.off[k-1])
			}
		}
	}
	return t
}()

// unalignedSteps returns how many leading 8-value steps of width w fit in
// the first n values and, loads or stores included, in the first size
// bytes: step j's last access ends at byte j·w+off[7]+8.
func unalignedSteps(n, size int, width uint) int {
	end := size - int(stepLayouts[width].off[7]) - 8
	if end < 0 {
		return 0
	}
	return min(n/8, end/int(width)+1)
}

// unpackUnaligned decodes the leading 8-value steps of dst from src whose
// loads stay inside src, and returns how many values it decoded. Field k is
// its load times lift[k], shifted right by 64-w.
func unpackUnaligned(dst, src []uint64, width uint) int {
	n := 8 * unalignedSteps(len(dst), 8*len(src), width)
	l := &stepLayouts[width]
	r := (64 - width) & 63
	p := unsafe.Pointer(unsafe.SliceData(src))
	load := func(k int) uint64 { return *(*uint64)(unsafe.Add(p, l.off[k])) }
	if width <= pairWidth {
		for i := 0; i < n; i += 8 {
			d := dst[i : i+8 : i+8]
			x := load(0)
			d[0], d[1] = x*l.lift[0]>>r, x*l.lift[1]>>r
			x = load(2)
			d[2], d[3] = x*l.lift[2]>>r, x*l.lift[3]>>r
			x = load(4)
			d[4], d[5] = x*l.lift[4]>>r, x*l.lift[5]>>r
			x = load(6)
			d[6], d[7] = x*l.lift[6]>>r, x*l.lift[7]>>r
			p = unsafe.Add(p, width)
		}
		return n
	}
	for i := 0; i < n; i += 8 {
		d := dst[i : i+8 : i+8]
		d[0] = load(0) * l.lift[0] >> r
		d[1] = load(1) * l.lift[1] >> r
		d[2] = load(2) * l.lift[2] >> r
		d[3] = load(3) * l.lift[3] >> r
		d[4] = load(4) * l.lift[4] >> r
		d[5] = load(5) * l.lift[5] >> r
		d[6] = load(6) * l.lift[6] >> r
		d[7] = load(7) * l.lift[7] >> r
		p = unsafe.Add(p, width)
	}
	return n
}

// packUnaligned packs the leading 8-value steps of src into dst whose
// stores stay inside dst, and returns how many values it packed. A step's
// fields end exactly at its last byte, so it starts from nothing: acc holds
// the step's bits from byte off[k] on, and is stored there whole after
// field k (or its pair) is added. The bytes a store writes past its fields
// are zeros, and the next store rewrites them.
func packUnaligned(dst, src []uint64, width uint) int {
	n := 8 * unalignedSteps(len(src), 8*len(dst), width)
	l := &stepLayouts[width]
	m := Mask(width)
	p := unsafe.Pointer(unsafe.SliceData(dst))
	var v *[8]uint64
	// field moves value k to its place in the store at off[k]; put stores
	// fields there, with what acc held from off[k-1] on.
	field := func(k int) uint64 { return v[k] & m * l.place[k] }
	put := func(acc, fields uint64, k int) uint64 {
		acc = acc>>(l.drop[k]&63) | fields
		*(*uint64)(unsafe.Add(p, l.off[k])) = acc
		return acc
	}
	if width <= pairWidth {
		for i := 0; i < n; i += 8 {
			v = (*[8]uint64)(src[i:])
			acc := put(0, field(0)|field(1), 0)
			acc = put(acc, field(2)|field(3), 2)
			acc = put(acc, field(4)|field(5), 4)
			put(acc, field(6)|field(7), 6)
			p = unsafe.Add(p, width)
		}
		return n
	}
	for i := 0; i < n; i += 8 {
		v = (*[8]uint64)(src[i:])
		acc := put(0, field(0), 0)
		acc = put(acc, field(1), 1)
		acc = put(acc, field(2), 2)
		acc = put(acc, field(3), 3)
		acc = put(acc, field(4), 4)
		acc = put(acc, field(5), 5)
		acc = put(acc, field(6), 6)
		put(acc, field(7), 7)
		p = unsafe.Add(p, width)
	}
	return n
}

// UnpackGroup decodes the g-th group of 64 consecutive values from the
// packed word stream into dst. Groups are the natural decode unit of the
// packing layout (64 values of width w occupy exactly w words), which makes
// group-cached access to sorted position sequences nearly sequential-speed.
// The stream must contain all 64 values of the group. It is a direct call of
// Unpack, so dst does not escape: the portable gather's group cache stays on
// its stack.
func UnpackGroup(dst *[64]uint64, words []uint64, g int, width uint) {
	Unpack(dst[:], words[g*int(width):], width)
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
