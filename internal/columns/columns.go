// Package columns implements MorphStore-Go's storage layer: the column data
// structure shared by base data, intermediate results, and query results.
//
// Exactly as in the paper (§4.1, Fig. 3), a column is a contiguous buffer
// holding the entire data either uncompressed or compressed in exactly one
// format. Because some formats can only represent multiples of their block
// size, every column is subdivided into a compressed main part (the first
// ⌊n/bs⌋·bs elements) and an uncompressed remainder (the trailing n mod bs
// elements, stored as raw 64-bit words directly behind the main part).
// Separate metadata records the sizes of both parts.
//
// All buffers are word-aligned: the unit of storage is the 64-bit word, which
// every format in internal/formats lays out explicitly.
package columns

import (
	"fmt"
	"sync/atomic"

	"morphstore/internal/stats"
)

// Kind identifies a lightweight integer compression format.
type Kind uint8

const (
	// Uncompressed stores one 64-bit word per element.
	Uncompressed Kind = iota
	// StaticBP is bit packing with one fixed bit width for the whole column
	// (the paper's "static BP"; supports random access).
	StaticBP
	// DynBP is block-wise binary packing with a per-block bit width over
	// 512-element blocks: the 64-bit port of SIMD-BP128/SIMD-BP512.
	DynBP
	// DeltaBP cascades delta coding (logical level) with DynBP (physical
	// level) over 512-element blocks: the paper's "DELTA + SIMD-BP512".
	DeltaBP
	// ForBP cascades frame-of-reference coding with DynBP over 512-element
	// blocks: the paper's "FOR + SIMD-BP512".
	ForBP
	// RLE is run-length encoding as (value, run length) word pairs. It is an
	// extension beyond the paper's five implemented formats (§2.1 names it a
	// basic technique; §4.2's concepts apply unchanged).
	RLE
	numKinds
)

// NumKinds is the number of distinct format kinds.
const NumKinds = int(numKinds)

func (k Kind) String() string {
	switch k {
	case Uncompressed:
		return "uncompr"
	case StaticBP:
		return "static_bp"
	case DynBP:
		return "dyn_bp"
	case DeltaBP:
		return "delta+bp"
	case ForBP:
		return "for+bp"
	case RLE:
		return "rle"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// FormatDesc describes the concrete compressed format of a column: the kind
// plus any format parameter. For StaticBP, Bits is the fixed bit width; a
// zero Bits in a *requested* format means "derive from the data".
type FormatDesc struct {
	Kind Kind
	Bits uint8
}

// Format constructors for the supported formats.
var (
	// UncomprDesc requests the uncompressed format.
	UncomprDesc = FormatDesc{Kind: Uncompressed}
	// DynBPDesc requests block-wise binary packing.
	DynBPDesc = FormatDesc{Kind: DynBP}
	// DeltaBPDesc requests DELTA + DynBP.
	DeltaBPDesc = FormatDesc{Kind: DeltaBP}
	// ForBPDesc requests FOR + DynBP.
	ForBPDesc = FormatDesc{Kind: ForBP}
	// RLEDesc requests run-length encoding.
	RLEDesc = FormatDesc{Kind: RLE}
)

// StaticBPDesc requests static bit packing with the given width; width 0
// derives the width from the data at compression time.
func StaticBPDesc(bits uint) FormatDesc {
	return FormatDesc{Kind: StaticBP, Bits: uint8(bits)}
}

func (d FormatDesc) String() string {
	if d.Kind == StaticBP && d.Bits != 0 {
		return fmt.Sprintf("static_bp(%d)", d.Bits)
	}
	return d.Kind.String()
}

// IsCompressed reports whether the format is an actual compressed format.
func (d FormatDesc) IsCompressed() bool { return d.Kind != Uncompressed }

// MetadataBytes is the accounted physical size of a column's metadata
// structure (format descriptor plus the main/remainder extents of Fig. 3).
const MetadataBytes = 48

// Column is a sequence of unsigned 64-bit integers materialized in exactly
// one format: a compressed main part followed by an uncompressed remainder
// in a single word buffer. A column never changes once built, so the data
// characteristics the cost model reads (stats.Profile) are a fact about it:
// they live with the column, stored at most once.
type Column struct {
	desc      FormatDesc
	n         int      // total logical number of data elements
	mainElems int      // elements represented by the compressed main part
	mainWords int      // words occupied by the compressed main part
	words     []uint64 // mainWords words, then (n-mainElems) raw words

	prof atomic.Pointer[stats.Profile] // write-once: see SetProfile
}

// New assembles a column from its parts. The format kind must be known and
// the words slice must hold exactly mainWords + (n - mainElems) words; New
// reports an error otherwise.
func New(desc FormatDesc, n, mainElems, mainWords int, words []uint64) (*Column, error) {
	if desc.Kind >= numKinds {
		return nil, fmt.Errorf("columns: unknown format kind %d", desc.Kind)
	}
	rem := n - mainElems
	if n < 0 || mainElems < 0 || rem < 0 || mainWords < 0 {
		return nil, fmt.Errorf("columns: inconsistent extents n=%d mainElems=%d mainWords=%d", n, mainElems, mainWords)
	}
	if want := mainWords + rem; len(words) != want {
		return nil, fmt.Errorf("columns: buffer has %d words, want %d (main %d + remainder %d)",
			len(words), want, mainWords, rem)
	}
	if desc.Kind == Uncompressed && mainWords != mainElems {
		// One word per element: readers slice the buffer by element position.
		return nil, fmt.Errorf("columns: uncompressed main part has %d words for %d elements", mainWords, mainElems)
	}
	return &Column{desc: desc, n: n, mainElems: mainElems, mainWords: mainWords, words: words}, nil
}

// FromValues wraps vals as an uncompressed column, taking ownership of the
// slice (no copy).
func FromValues(vals []uint64) *Column {
	return &Column{desc: UncomprDesc, n: len(vals), mainElems: len(vals), mainWords: len(vals), words: vals}
}

// Desc returns the column's format descriptor.
func (c *Column) Desc() FormatDesc { return c.desc }

// N returns the logical number of data elements.
func (c *Column) N() int { return c.n }

// Profile returns the profile stored with the column, nil until one is set.
func (c *Column) Profile() *stats.Profile { return c.prof.Load() }

// SetProfile stores p as the column's profile unless one is stored already
// and returns the stored one: the first store wins, so concurrent first
// profilings all end up with one pointer. p must describe exactly the
// column's values — stats.Collect of them, or an exact Profile.Append of
// such a profile.
func (c *Column) SetProfile(p *stats.Profile) *stats.Profile {
	if c.prof.CompareAndSwap(nil, p) {
		return p
	}
	return c.prof.Load()
}

// MainElems returns the number of elements in the compressed main part.
func (c *Column) MainElems() int { return c.mainElems }

// MainWords returns the word slice of the compressed main part.
func (c *Column) MainWords() []uint64 { return c.words[:c.mainWords] }

// Remainder returns the uncompressed trailing elements (one word each).
func (c *Column) Remainder() []uint64 { return c.words[c.mainWords:] }

// Words returns the whole underlying buffer: main part then remainder.
func (c *Column) Words() []uint64 { return c.words }

// PhysicalBytes returns the accounted physical size: data buffer plus
// metadata. This is the footprint measure used by all experiments.
func (c *Column) PhysicalBytes() int { return len(c.words)*8 + MetadataBytes }

// Values returns the column's elements as a plain slice. For uncompressed
// columns this is a zero-copy view of the buffer; callers must not modify it.
// For compressed columns it returns (nil, false): use the owning format's
// decompressor.
func (c *Column) Values() ([]uint64, bool) {
	if c.desc.Kind != Uncompressed {
		return nil, false
	}
	return c.words, true
}

// CompressionRate returns physical size relative to the uncompressed size
// (lower is better; 1.0 means no saving).
func (c *Column) CompressionRate() float64 {
	if c.n == 0 {
		return 1
	}
	return float64(c.PhysicalBytes()) / float64(c.n*8+MetadataBytes)
}

func (c *Column) String() string {
	return fmt.Sprintf("Column{%s, n=%d, main=%d elems/%d words, rem=%d, %d B}",
		c.desc, c.n, c.mainElems, c.mainWords, c.n-c.mainElems, c.PhysicalBytes())
}
