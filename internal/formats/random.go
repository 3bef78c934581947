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
type RandomAccessor interface {
	// Gather fills dst[j] with the element at position idx[j] for all j.
	Gather(dst []uint64, idx []uint64)
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
	return uncomprAccessor(col.Words()), nil
}

func staticBPAccess(col *columns.Column) (RandomAccessor, error) {
	words, bits, err := StaticBPWords(col)
	if err != nil {
		return nil, err
	}
	return &staticBPAccessor{words: words, bits: bits, n: col.N(), gid: -1}, nil
}

type uncomprAccessor []uint64

func (a uncomprAccessor) Gather(dst []uint64, idx []uint64) {
	for j, ix := range idx {
		dst[j] = a[ix]
	}
}

// staticBPAccessor provides random access into packed words. Gather caches
// the most recently decoded 64-value group: position lists produced by
// selections are sorted, so on a dense list consecutive accesses
// overwhelmingly hit the cached group and gathering approaches sequential
// decode speed. A group is decoded only when gatherDense upcoming positions
// share it; sparser positions are extracted one by one, so a selective list
// does not pay 64 decoded values per hit. Arbitrary access orders remain
// correct.
type staticBPAccessor struct {
	words []uint64
	bits  uint
	n     int
	group [64]uint64
	gid   int
}

// gatherDense is how many of the upcoming positions must fall into one group
// for Gather to decode the whole group: about where one 64-value unpack
// becomes cheaper than that many single-field extractions.
const gatherDense = 8

func (a *staticBPAccessor) Gather(dst []uint64, idx []uint64) {
	if a.bits == 0 {
		for j := range idx {
			dst[j] = 0
		}
		return
	}
	// Locals: the stores to dst would otherwise force the fields to reload.
	words, bits, gid := a.words, a.bits, a.gid
	fullGroups := a.n >> 6
	for j, ix := range idx {
		g := int(ix >> 6)
		if g != gid {
			// Element-wise for the partial tail group and for a group too few
			// upcoming positions share (on a sorted list, the gatherDense-th
			// position from here tells).
			if g >= fullGroups || j+gatherDense > len(idx) || int(idx[j+gatherDense-1]>>6) != g {
				dst[j] = bitutil.Get(words, int(ix), bits)
				continue
			}
			bitutil.UnpackGroup(&a.group, words, g, bits)
			gid = g
		}
		dst[j] = a.group[ix&63]
	}
	a.gid = gid
}
