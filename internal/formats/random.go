package formats

import (
	"fmt"

	"morphstore/internal/bitutil"
	"morphstore/internal/columns"
)

// RandomAccessor provides random read access to a column's elements.
// Following the paper (§4.2), random access is deliberately restricted to
// the uncompressed format and static BP, where a logical position maps to a
// physical bit address in a straightforward way; plans that need random
// access to other formats must morph first (the on-the-fly-morphing degree).
// An accessor is stateless, so one serves any number of goroutines at once.
type RandomAccessor interface {
	// Gather fills dst[j] with the element at position idx[j] for all j and
	// returns -1, or, if a position is out of the column's range, the first
	// j whose position is, having filled dst only below it (bitutil's
	// GatherBits and GatherWords).
	Gather(dst []uint64, idx []uint64) int
}

// ErrNoRandomAccess reports a random-access request on a format without
// random-access support.
var ErrNoRandomAccess = fmt.Errorf("formats: format supports no random access")

// RandomAccess returns a random accessor for col, or ErrNoRandomAccess for
// formats other than Uncompressed and StaticBP.
func RandomAccess(col *columns.Column) (RandomAccessor, error) {
	access := lookup(col.Desc().Kind).access
	if access == nil {
		return nil, fmt.Errorf("%w: %v", ErrNoRandomAccess, col.Desc())
	}
	return access(col)
}

// HasRandomAccess reports whether the format kind supports random access.
func HasRandomAccess(kind columns.Kind) bool { return lookup(kind).access != nil }

func uncomprAccess(col *columns.Column) (RandomAccessor, error) {
	return uncomprAccessor(col.Words()[:col.N()]), nil
}

func staticBPAccess(col *columns.Column) (RandomAccessor, error) {
	words, bits, err := staticBPWords(col)
	if err != nil {
		return nil, err
	}
	return staticBPAccessor{words: words, bits: bits, n: col.N()}, nil
}

type uncomprAccessor []uint64

func (a uncomprAccessor) Gather(dst []uint64, idx []uint64) int {
	return bitutil.GatherWords(dst, a, idx)
}

// staticBPAccessor extracts each position's field from the packed words.
type staticBPAccessor struct {
	words []uint64
	bits  uint
	n     int
}

func (a staticBPAccessor) Gather(dst []uint64, idx []uint64) int {
	return bitutil.GatherBits(dst, a.words, idx, a.bits, a.n)
}
