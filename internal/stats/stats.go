// Package stats collects the basic data characteristics MorphStore-Go's
// cost-based format selection relies on (paper §5, "Determining a good format
// combination"): number of data elements, bit-width histogram, delta
// bit-width histogram, sort order and run structure.
//
// The paper assumes these characteristics are known for all intermediates;
// here they are gathered in a single pass over the data.
package stats

import (
	"math/bits"

	"morphstore/internal/bitutil"
)

// Profile summarizes the data characteristics of one integer sequence.
type Profile struct {
	N       int    // number of data elements
	Min     uint64 // minimum value (0 if N == 0)
	Max     uint64 // maximum value
	MaxBits uint   // effective bit width of Max
	Last    uint64 // the last value in the sequence (0 if N == 0)

	Sorted bool // non-decreasing order
	Runs   int  // number of maximal runs of equal values

	// BitHist[b] counts values with effective bit width b (0..64).
	BitHist [65]int
	// DeltaBitHist[b] counts wrap-around deltas v[i]-v[i-1] (mod 2^64, i>0)
	// with effective bit width b. For sorted data these are the small
	// positive gaps that make DELTA+BP effective.
	DeltaBitHist [65]int
	// ForBitHist[b] counts offsets v-Min with effective bit width b: the
	// frame-of-reference view of the data under a global reference.
	ForBitHist [65]int
}

// Collect computes the profile of vals in one pass (plus a second one for
// the offsets from the minimum), through the profile kernels of package
// bitutil (8 values per step where the CPU has AVX-512, a portable loop
// elsewhere).
func Collect(vals []uint64) *Profile {
	p := &Profile{N: len(vals), Sorted: true}
	if len(vals) == 0 {
		return p
	}
	lo, hi, descents, changes := bitutil.ProfileScan(vals, vals[0], &p.BitHist, &p.DeltaBitHist)
	p.DeltaBitHist[0]-- // the first value's delta to itself
	p.Min, p.Max, p.MaxBits, p.Last = lo, hi, uint(bits.Len64(hi)), vals[len(vals)-1]
	p.Sorted, p.Runs = descents == 0, 1+changes
	bitutil.OffsetBitHist(vals, p.Min, &p.ForBitHist)
	return p
}

// Append returns the profile of the sequence p describes followed by tail,
// equal to Collect over the whole sequence, from one pass over tail alone
// that continues from p.Last: the histograms add up, the delta across the
// seam joins DeltaBitHist, a tail value equal to the one before it extends
// that run, and a descent anywhere, the seam included, clears Sorted. The
// tail's offsets count against p.Min, so ok is false when the tail holds a
// value below it: every offset of p would shift. p is not modified.
func (p *Profile) Append(tail []uint64) (q *Profile, ok bool) {
	if p.N == 0 {
		return Collect(tail), true
	}
	c := *p
	if len(tail) == 0 {
		return &c, true
	}
	lo, hi, descents, changes := bitutil.ProfileScan(tail, p.Last, &c.BitHist, &c.DeltaBitHist)
	if lo < p.Min {
		return nil, false
	}
	c.N += len(tail)
	c.Max = max(p.Max, hi)
	c.MaxBits = uint(bits.Len64(c.Max))
	c.Last = tail[len(tail)-1]
	c.Sorted = p.Sorted && descents == 0
	c.Runs += changes
	bitutil.OffsetBitHist(tail, p.Min, &c.ForBitHist)
	return &c, true
}

// AvgRunLength returns the mean run length (N/Runs); 0 for empty input.
func (p *Profile) AvgRunLength() float64 {
	if p.Runs == 0 {
		return 0
	}
	return float64(p.N) / float64(p.Runs)
}

// BitCDF returns the cumulative distribution F(b) = P(effective bit width
// of a value <= b) over the bit-width histogram h.
func BitCDF(h *[65]int, n int) [65]float64 {
	var cdf [65]float64
	if n == 0 {
		return cdf
	}
	acc := 0
	for b := 0; b <= 64; b++ {
		acc += h[b]
		cdf[b] = float64(acc) / float64(n)
	}
	return cdf
}

// ExpectedBlockMaxBits estimates, under an independence assumption, the
// expected maximum effective bit width within a block of blockLen values
// drawn from the distribution described by histogram h over n values.
// This is the gray-box size estimator for block-adaptive formats (DynBP):
// E[max] = sum_b b * (F(b)^L - F(b-1)^L).
func ExpectedBlockMaxBits(h *[65]int, n, blockLen int) float64 {
	if n == 0 || blockLen <= 0 {
		return 0
	}
	cdf := BitCDF(h, n)
	var e float64
	prev := 0.0
	for b := 0; b <= 64; b++ {
		cur := pow(cdf[b], blockLen)
		e += float64(b) * (cur - prev)
		prev = cur
	}
	return e
}

// pow computes x^k for non-negative integer k without importing math.
func pow(x float64, k int) float64 {
	r := 1.0
	for k > 0 {
		if k&1 == 1 {
			r *= x
		}
		x *= x
		k >>= 1
	}
	return r
}
