// Package vector is MorphStore-Go's stand-in for the Template Vector Library
// (TVL) of the original C++ system: a hardware-oblivious vector-processing
// abstraction that lets operator kernels be written once against a small set
// of primitives and instantiated either as scalar code or as 8-lane 512-bit
// "vector register" code (the AVX-512 analog).
//
// Go has no SIMD intrinsics, so the Vec512 primitives compile to straight-line
// unrolled word operations. What the abstraction preserves from the paper is
// the processing model: kernels consume and produce whole vector registers,
// and the choice of Style is a template-like parameter threaded through every
// operator and codec. Selective kernels (select, join) have no lane-mask
// primitives here: their Vec512 form is a predicated scalar loop — stage
// unconditionally, advance the cursor by the match bit — which is what a
// masked compress-store amounts to without the instruction.
package vector

import "fmt"

// Lanes is the number of 64-bit lanes in a Vec512 register.
const Lanes = 8

// Vec is a 512-bit vector register of eight 64-bit unsigned lanes.
type Vec [Lanes]uint64

// Style selects the processing-style specialization of kernels, mirroring the
// TVL template parameter that picks a SIMD extension.
type Style uint8

const (
	// Scalar processes one data element at a time.
	Scalar Style = iota
	// Vec512 processes eight 64-bit elements at a time.
	Vec512
)

func (s Style) String() string {
	switch s {
	case Scalar:
		return "scalar"
	case Vec512:
		return "vec512"
	default:
		return fmt.Sprintf("style(%d)", uint8(s))
	}
}

// Styles lists all supported processing styles.
var Styles = []Style{Scalar, Vec512}

// Load fills a vector register from the first Lanes elements of s.
func Load(s []uint64) Vec {
	_ = s[Lanes-1]
	return Vec{s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]}
}

// Store writes the register to the first Lanes elements of s.
func (v Vec) Store(s []uint64) {
	_ = s[Lanes-1]
	s[0], s[1], s[2], s[3] = v[0], v[1], v[2], v[3]
	s[4], s[5], s[6], s[7] = v[4], v[5], v[6], v[7]
}

// Add returns the lane-wise sum a+b.
func Add(a, b Vec) Vec {
	return Vec{a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3],
		a[4] + b[4], a[5] + b[5], a[6] + b[6], a[7] + b[7]}
}

// Sub returns the lane-wise difference a-b.
func Sub(a, b Vec) Vec {
	return Vec{a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3],
		a[4] - b[4], a[5] - b[5], a[6] - b[6], a[7] - b[7]}
}

// Mul returns the lane-wise product a*b (low 64 bits).
func Mul(a, b Vec) Vec {
	return Vec{a[0] * b[0], a[1] * b[1], a[2] * b[2], a[3] * b[3],
		a[4] * b[4], a[5] * b[5], a[6] * b[6], a[7] * b[7]}
}

// Gather loads dst lanes from base at the eight indices of idx
// (the _mm512_i64gather analog).
func Gather(base []uint64, idx Vec) Vec {
	return Vec{base[idx[0]], base[idx[1]], base[idx[2]], base[idx[3]],
		base[idx[4]], base[idx[5]], base[idx[6]], base[idx[7]]}
}

// HSum returns the horizontal sum of all lanes.
func (v Vec) HSum() uint64 {
	return v[0] + v[1] + v[2] + v[3] + v[4] + v[5] + v[6] + v[7]
}
