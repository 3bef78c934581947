package bitutil

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"testing"
)

// TestKernelPath reports which kernel path this host runs; CI runs it with -v
// so the log shows whether the AVX-512 half of FuzzKernels ran. It then pins
// the edges of the kernels on both paths: the gathers' position check, the
// pack's truncation and output bound, the width scan's lanes and tail, and
// the profile kernels' length threshold.
func TestKernelPath(t *testing.T) {
	if ok, missing := AVX512(); ok {
		t.Log("kernel path: AVX-512")
	} else {
		t.Logf("kernel path: portable (the CPU lacks %s)", missing)
	}
	t.Run("gather", testGatherPaths)
	t.Run("pack", testPackPaths)
	t.Run("maxbits", testMaxBitsPaths)
	t.Run("profile threshold", testProfileThreshold)
}

// eachPath runs f on the portable path and, where the CPU has it, on the
// AVX-512 path, naming the path.
func eachPath(f func(path string)) {
	defer forcePortable.Store(false)
	for _, path := range []string{"portable", "avx512"} {
		if path == "avx512" && !hasAVX512 {
			return
		}
		forcePortable.Store(path == "portable")
		f(path)
	}
}

// testPackPaths pins Pack at every width over lengths with a partial last
// group, and over whole groups, where the vector pack's last store ends the
// output: full 64-bit inputs, truncated to the width, must pack to the
// bit-by-bit reference on both paths (so the two paths' words are equal),
// leave the sentinel words past PackedWords alone, and unpack back to the
// truncated inputs.
func testPackPaths(t *testing.T) {
	seed := uint64(9)
	for width := uint(0); width <= 64; width++ {
		for _, n := range []int{0, 1, 7, 9, 63, 64, 65, 127, 130, 513, 1000, 2047, 2048, 2100} {
			vals := make([]uint64, n)
			for i := range vals {
				vals[i] = splitmix(&seed)
			}
			pw := PackedWords(n, width)
			want := make([]uint64, pw)
			packReference(want, vals, width)
			eachPath(func(path string) {
				ctx := fmt.Sprintf("%s: width %d, %d values", path, width, n)
				words := outBuf(pw)
				Pack(words[:pw], vals, width)
				for i, v := range words[pw:] {
					if v != sentinel {
						t.Fatalf("%s: wrote %#x at word %d, past the packed words %d", ctx, v, pw+i, pw)
					}
				}
				if !slices.Equal(words[:pw], want) {
					t.Fatalf("%s: packed words differ from the reference", ctx)
				}
				got := make([]uint64, n)
				Unpack(got, words[:pw], width)
				for i, v := range got {
					if v != vals[i]&Mask(width) {
						t.Fatalf("%s: round trip: value %d = %#x, want %#x", ctx, i, v, vals[i]&Mask(width))
					}
				}
			})
		}
	}
}

// testMaxBitsPaths pins MaxBits on both paths at every length 0..70: all
// zeros, and one set bit, of a varying bit number, at every position in
// turn, so in every lane of every 8-value step and in the tail.
func testMaxBitsPaths(t *testing.T) {
	eachPath(func(path string) {
		for n := 0; n <= 70; n++ {
			vals := make([]uint64, n)
			if got := MaxBits(vals); got != 0 {
				t.Fatalf("%s: %d zeros: max bits %d, want 0", path, n, got)
			}
			for p := range vals {
				b := uint(p*29) % 64
				vals[p] = 1 << b
				if got := MaxBits(vals); got != b+1 {
					t.Fatalf("%s: %d values, bit %d set at %d: max bits %d, want %d", path, n, b, p, got, b+1)
				}
				vals[p] = 0
			}
		}
	})
}

// testProfileThreshold pins ProfileScan and OffsetBitHist on both sides of
// minVecProfile, where the AVX-512 path starts handing them to the vector
// kernels, against the Go loops run directly.
func testProfileThreshold(t *testing.T) {
	seed := uint64(11)
	for _, n := range []int{8, minVecProfile - 1, minVecProfile, minVecProfile + 9} {
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = splitmix(&seed) >> (splitmix(&seed) % 64)
		}
		var wantB, wantD, wantF [65]int
		lo, hi, d, c := profileScanGo(vals, 3, vals[0], vals[0], &wantB, &wantD)
		offsetBitHistGo(vals, lo, &wantF)
		eachPath(func(path string) {
			var gotB, gotD, gotF [65]int
			glo, ghi, gd, gc := ProfileScan(vals, 3, &gotB, &gotD)
			OffsetBitHist(vals, glo, &gotF)
			if glo != lo || ghi != hi || gd != d || gc != c || gotB != wantB || gotD != wantD || gotF != wantF {
				t.Fatalf("%s: %d values: profile (%d, %d, %d, %d) and histograms differ from the Go loops' (%d, %d, %d, %d)",
					path, n, glo, ghi, gd, gc, lo, hi, d, c)
			}
		})
	}
}

// testGatherPaths pins the gathers' position check at every width: 19
// positions (two 8-position steps and a tail of 3) with one out-of-range
// position in each place in turn, or none, over a column whose last field
// ends its last word and over one whose last word has room left, on both
// paths against the element-wise reference.
func testGatherPaths(t *testing.T) {
	seed := uint64(5)
	for width := uint(0); width <= 64; width++ {
		for _, n := range []int{192, 200} {
			vals := make([]uint64, n)
			for i := range vals {
				vals[i] = splitmix(&seed) & Mask(width)
			}
			for bad := -1; bad < 19; bad++ {
				c := gatherCase{width: width, vals: vals, pos: make([]uint64, 19)}
				for j := range c.pos {
					c.pos[j] = splitmix(&seed) % uint64(n)
				}
				c.pos[0] = uint64(n - 1) // the last field, in the first step
				if bad >= 0 {
					c.pos[bad] = uint64(n) + uint64(bad%3)
					if bad%2 == 1 {
						c.pos[bad] = math.MaxUint64
					}
				}
				c.check(t, fmt.Sprintf("width %d, n %d, out of range at %d", width, n, bad))
			}
		}
	}
}

// gatherCase is one input of the gathers' differential: a column of values
// of one width and the positions gathered from it.
type gatherCase struct {
	width uint
	vals  []uint64
	pos   []uint64
}

// gatherRun is both gathers' output over one case on one path.
type gatherRun struct {
	bits, words       []uint64
	bitsBad, wordsBad int
}

func (c gatherCase) run() gatherRun {
	m := len(c.pos)
	packed := make([]uint64, PackedWords(len(c.vals), c.width))
	Pack(packed, c.vals, c.width)
	r := gatherRun{bits: outBuf(m), words: outBuf(m)}
	r.bitsBad = GatherBits(r.bits[:m], packed, c.pos, c.width, len(c.vals))
	r.wordsBad = GatherWords(r.words[:m], c.vals, c.pos)
	return r
}

// reference is what both gathers compute, element by element.
func (c gatherCase) reference() gatherRun {
	r := gatherRun{bits: outBuf(len(c.pos)), bitsBad: -1}
	for j, p := range c.pos {
		if p >= uint64(len(c.vals)) {
			r.bitsBad = j
			break
		}
		r.bits[j] = c.vals[p]
	}
	r.words, r.wordsBad = r.bits, r.bitsBad
	return r
}

// compare fails unless got reports the reference's out-of-range index, holds
// its values below that index (all of them when none is out of range), and
// wrote nothing past the positions' count.
func (want gatherRun) compare(t *testing.T, ctx string, got gatherRun) {
	t.Helper()
	m := len(want.bits) - 16
	for _, g := range []struct {
		name            string
		got, want       []uint64
		gotBad, wantBad int
	}{
		{"gather bits", got.bits, want.bits, got.bitsBad, want.bitsBad},
		{"gather words", got.words, want.words, got.wordsBad, want.wordsBad},
	} {
		if g.gotBad != g.wantBad {
			t.Fatalf("%s: %s: out-of-range index %d, want %d", ctx, g.name, g.gotBad, g.wantBad)
		}
		valid := m
		if g.wantBad >= 0 {
			valid = g.wantBad
		}
		for j := 0; j < valid; j++ {
			if g.got[j] != g.want[j] {
				t.Fatalf("%s: %s: row %d = %#x, want %#x", ctx, g.name, j, g.got[j], g.want[j])
			}
		}
		for i, v := range g.got[m:] {
			if v != sentinel {
				t.Fatalf("%s: %s: wrote %#x at %d, past the output bound %d", ctx, g.name, v, m+i, m)
			}
		}
	}
}

// check runs the case on the portable path against the reference and, where
// the CPU has it, on the AVX-512 path against the portable one.
func (c gatherCase) check(t *testing.T, ctx string) {
	t.Helper()
	forcePortable.Store(true)
	portable := c.run()
	forcePortable.Store(false)
	c.reference().compare(t, "portable: "+ctx, portable)
	if hasAVX512 {
		portable.compare(t, "avx512: "+ctx, c.run())
	}
}

// splitmix is the fuzz inputs' value generator.
func splitmix(seed *uint64) uint64 {
	*seed += 0x9E3779B97F4A7C15
	z := *seed
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// kernelCase is one input of the kernel differential: values of one width,
// a second lockstep column, a range test and a dense-key probe over a table.
type kernelCase struct {
	width              uint
	vals, other        []uint64
	lo, span           uint64
	probe              []uint64
	plo, pspan         uint64
	tab                []uint32
	base               uint64
	otherLo, otherSpan uint64
	gather             gatherCase
	wide               []uint64 // vals, with bits above width set in some cases
}

// newKernelCase decodes the fuzz arguments. mode picks the range test's
// edge: as given, span 0 on a present value, span MaxUint64, lo above every
// value, a wrapping v-lo, and a range over the middle of the width's domain.
func newKernelCase(seed uint64, width uint8, n uint16, lo, span uint64, mode uint8) kernelCase {
	c := kernelCase{width: uint(width) % 65, lo: lo, span: span}
	m := Mask(c.width)
	c.vals = make([]uint64, int(n)%2101)
	c.other = make([]uint64, len(c.vals))
	var hi uint64
	for i := range c.vals {
		c.vals[i] = splitmix(&seed) & m
		c.other[i] = splitmix(&seed) % 11
		hi = max(hi, c.vals[i])
	}
	switch mode % 6 {
	case 1:
		c.span = 0
		if len(c.vals) > 0 {
			c.lo = c.vals[len(c.vals)/2]
		}
	case 2:
		c.span = math.MaxUint64
	case 3: // above every value; all ones when the values reach the top
		c.lo = hi + 1
		if hi == math.MaxUint64 {
			c.lo = hi
		}
	case 4: // values below lo wrap to the top of the domain
		c.lo = m/2 + 1
		c.span = math.MaxUint64 - m/4
	case 5:
		c.lo, c.span = m/4, m/2
	}
	c.otherLo, c.otherSpan = splitmix(&seed)%11, splitmix(&seed)%6
	c.base = splitmix(&seed) >> (splitmix(&seed) % 64)

	// The probe: a table over [lo, lo+pspan] with absent keys (0) and build
	// index 0 (1) in it, probed by keys just below, inside and just above
	// it, wrapping where lo is near the top of the domain.
	c.plo, c.pspan = lo, span%5000
	c.tab = make([]uint32, c.pspan+1)
	for i := range c.tab {
		switch r := splitmix(&seed) % 4; r {
		case 0, 1:
			c.tab[i] = uint32(r)
		default:
			c.tab[i] = uint32(splitmix(&seed))
		}
	}
	c.probe = make([]uint64, len(c.vals))
	for i := range c.probe {
		c.probe[i] = c.plo + splitmix(&seed)%(c.pspan+3) - 1
		if i%5 == 0 {
			c.probe[i] = c.vals[i]
		}
	}
	c.gather = newGatherCase(&seed, c.width, c.vals)
	c.wide = append([]uint64(nil), c.vals...)
	if splitmix(&seed)%2 == 0 {
		for i := range c.wide {
			c.wide[i] |= splitmix(&seed) &^ m // Pack truncates these
		}
	}
	return c
}

// newGatherCase gathers from vals, or from its whole 64-value groups, whose
// last field ends the last word; the positions are sorted (a dense run with
// duplicates, as a selection's gather reads them), unsorted, or a few
// positions repeated, and one of every three cases puts one out-of-range
// position at a random index.
func newGatherCase(seed *uint64, width uint, vals []uint64) gatherCase {
	c := gatherCase{width: width, vals: vals}
	if splitmix(seed)%2 == 0 {
		c.vals = vals[:len(vals)&^63]
	}
	c.pos = make([]uint64, splitmix(seed)%300)
	n := uint64(max(len(c.vals), 1))
	switch splitmix(seed) % 3 {
	case 0:
		p, step := splitmix(seed)%n, splitmix(seed)%4
		for j := range c.pos {
			c.pos[j] = min(p, n-1)
			p += step
		}
	case 1:
		for j := range c.pos {
			c.pos[j] = splitmix(seed) % n
		}
	case 2:
		few := [3]uint64{splitmix(seed) % n, splitmix(seed) % n, n - 1}
		for j := range c.pos {
			c.pos[j] = few[splitmix(seed)%3]
		}
	}
	if len(c.pos) > 0 && splitmix(seed)%3 == 0 {
		c.pos[splitmix(seed)%uint64(len(c.pos))] = uint64(len(c.vals)) + splitmix(seed)%2
	}
	return c
}

// sentinel fills the slack past every kernel's output bound.
const sentinel = 0xDEADBEEFDEADBEEF

// outBuf returns n+16 words of sentinel; the kernel gets the first n.
func outBuf(n int) []uint64 {
	b := make([]uint64, n+16)
	for i := range b {
		b[i] = sentinel
	}
	return b
}

// kernelRun is every kernel's output over one case on the current path.
type kernelRun struct {
	packBuf            []uint64 // PackedWords(n, width) words, then sentinels
	unpackBuf, group   []uint64
	selBuf, andBuf     []uint64
	posBuf, bidxBuf    []uint64
	selK, andK, probeK int
	maxBits            uint
}

func runKernels(c kernelCase) kernelRun {
	var r kernelRun
	n := len(c.vals)
	pw := PackedWords(n, c.width)
	r.packBuf = outBuf(pw)
	packed := r.packBuf[:pw]
	Pack(packed, c.wide, c.width)
	r.maxBits = MaxBits(c.wide)
	r.unpackBuf = outBuf(n)
	Unpack(r.unpackBuf[:n], packed, c.width)
	for g := 0; g < n/64; g++ {
		var grp [64]uint64
		UnpackGroup(&grp, packed, g, c.width)
		r.group = append(r.group, grp[:]...)
	}
	r.selBuf, r.andBuf = outBuf(n), outBuf(n)
	r.selK = SelectRange(c.vals, c.base, c.lo, c.span, r.selBuf[:n])
	r.andK = SelectRangeAnd(c.vals, c.other, c.base, c.lo, c.span, c.otherLo, c.otherSpan, r.andBuf[:n])
	r.posBuf, r.bidxBuf = outBuf(n), outBuf(n)
	r.probeK = ProbeDense(c.probe, c.base, c.plo, c.pspan, c.tab, r.posBuf[:n], r.bidxBuf[:n])
	return r
}

// compare fails unless got is the reference's run: the same counts, the same
// staged rows up to each count, and no word written past an output bound.
func (want kernelRun) compare(t *testing.T, ctx string, got kernelRun, n int) {
	t.Helper()
	same := func(name string, g, w []uint64) {
		t.Helper()
		if len(g) != len(w) {
			t.Fatalf("%s: %s: %d rows, want %d", ctx, name, len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("%s: %s: row %d = %#x, want %#x", ctx, name, i, g[i], w[i])
			}
		}
	}
	pw := len(want.packBuf) - 16
	same("pack", got.packBuf[:pw], want.packBuf[:pw])
	for i, v := range got.packBuf[pw:] {
		if v != sentinel {
			t.Fatalf("%s: pack: wrote %#x at word %d, past the packed words %d", ctx, v, pw+i, pw)
		}
	}
	if got.maxBits != want.maxBits {
		t.Fatalf("%s: max bits %d, want %d", ctx, got.maxBits, want.maxBits)
	}
	same("unpack", got.unpackBuf[:n], want.unpackBuf[:n])
	same("unpack group", got.group, want.group)
	same("select range", got.selBuf[:got.selK], want.selBuf[:want.selK])
	same("select and", got.andBuf[:got.andK], want.andBuf[:want.andK])
	same("probe positions", got.posBuf[:got.probeK], want.posBuf[:want.probeK])
	same("probe build indices", got.bidxBuf[:got.probeK], want.bidxBuf[:want.probeK])
	for name, b := range map[string][]uint64{
		"unpack": got.unpackBuf, "select range": got.selBuf, "select and": got.andBuf,
		"probe positions": got.posBuf, "probe build indices": got.bidxBuf,
	} {
		for i, v := range b[n:] {
			if v != sentinel {
				t.Fatalf("%s: %s: wrote %#x at %d, past the output bound %d", ctx, name, v, n+i, n)
			}
		}
	}
}

// reference is what every kernel computes, element by element.
func (c kernelCase) reference() kernelRun {
	var r kernelRun
	n := len(c.vals)
	r.packBuf = outBuf(PackedWords(n, c.width))
	packReference(r.packBuf[:len(r.packBuf)-16], c.vals, c.width)
	var or uint64
	for _, v := range c.wide {
		or |= v
	}
	r.maxBits = uint(bits.Len64(or))
	r.unpackBuf = append(append([]uint64(nil), c.vals...), outBuf(0)...)
	r.group = append([]uint64(nil), c.vals[:n&^63]...)
	r.selBuf, r.andBuf, r.posBuf, r.bidxBuf = outBuf(n), outBuf(n), outBuf(n), outBuf(n)
	for i, v := range c.vals {
		if v-c.lo <= c.span {
			r.selBuf[r.selK] = c.base + uint64(i)
			r.selK++
			if c.other[i]-c.otherLo <= c.otherSpan {
				r.andBuf[r.andK] = c.base + uint64(i)
				r.andK++
			}
		}
		if d := c.probe[i] - c.plo; d <= c.pspan && c.tab[d] != 0 {
			r.posBuf[r.probeK], r.bidxBuf[r.probeK] = c.base+uint64(i), uint64(c.tab[d]-1)
			r.probeK++
		}
	}
	return r
}

// packReference packs vals into words bit by bit: bit b of value i lands at
// bit i·width+b of the stream, and bits of a value above width are dropped.
func packReference(words, vals []uint64, width uint) {
	clear(words)
	for i, v := range vals {
		for b := uint(0); b < width; b++ {
			if pos := uint(i)*width + b; v>>b&1 == 1 {
				words[pos/64] |= 1 << (pos % 64)
			}
		}
	}
}

// FuzzKernels is the contract of the AVX-512 kernels: over widths 0..64,
// lengths 0..2100 (every tail of 0..7 values past the last 8-value step, and
// of 0..63 past the last whole group the pack encodes), values wider than
// the width (the pack truncates them; the width scan sees them),
// the range edges (span 0 and MaxUint64, lo above every value, a wrapping
// v-lo), probe tables with absent keys and build index 0, and gathers of
// sorted, unsorted and repeated positions (newGatherCase), the portable
// loops must equal the element-wise reference and the AVX-512 path must equal
// the portable loops, with nothing written past an output bound. On a host
// without the AVX-512 path the second half skips, naming the missing feature.
func FuzzKernels(f *testing.F) {
	for w := 0; w <= 64; w++ {
		f.Add(uint64(w), uint8(w), uint16(31*w+w%8), uint64(w), uint64(1<<(w%40)), uint8(w))
	}
	f.Add(uint64(1), uint8(13), uint16(2100), uint64(100), uint64(4999), uint8(0))
	f.Add(uint64(2), uint8(64), uint16(2047), uint64(math.MaxUint64-3), uint64(40), uint8(0))
	f.Add(uint64(3), uint8(20), uint16(9), uint64(0), uint64(math.MaxUint64), uint8(2))
	f.Add(uint64(4), uint8(7), uint16(0), uint64(5), uint64(5), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, width uint8, n uint16, lo, span uint64, mode uint8) {
		c := newKernelCase(seed, width, n, lo, span, mode)
		ctx := fmt.Sprintf("width %d, %d values, lo %#x, span %#x", c.width, len(c.vals), c.lo, c.span)
		forcePortable.Store(true)
		portable := runKernels(c)
		forcePortable.Store(false)
		c.reference().compare(t, "portable: "+ctx, portable, len(c.vals))
		c.gather.check(t, fmt.Sprintf("%s, gather %d positions from %d values", ctx, len(c.gather.pos), len(c.gather.vals)))
		if !hasAVX512 {
			t.Skipf("portable path checked; no AVX-512 path: the CPU lacks %s", avx512Missing)
		}
		portable.compare(t, "avx512: "+ctx, runKernels(c), len(c.vals))
	})
}
