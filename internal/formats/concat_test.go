package formats

import (
	"math/rand"
	"testing"

	"morphstore/internal/bitutil"
	"morphstore/internal/columns"
)

// concatTestValues mixes narrow values, outliers and runs so every format's
// interesting cases appear: varying DynBP block widths, long and short RLE
// runs, non-monotonic data for the modular delta coding.
func concatTestValues(n int, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]uint64, n)
	i := 0
	for i < n {
		switch rng.Intn(4) {
		case 0: // run
			v := uint64(rng.Intn(64))
			l := 1 + rng.Intn(300)
			for ; l > 0 && i < n; l-- {
				vals[i] = v
				i++
			}
		case 1: // outlier
			vals[i] = rng.Uint64() >> uint(rng.Intn(40))
			i++
		default: // small value
			vals[i] = uint64(rng.Intn(900))
			i++
		}
	}
	return vals
}

// randomCuts returns sorted split points of [0, n] (possibly producing empty
// parts), aligned to align when align > 1.
func randomCuts(rng *rand.Rand, n, parts, align int) []int {
	cuts := []int{0}
	for i := 1; i < parts; i++ {
		c := rng.Intn(n + 1)
		if align > 1 {
			c = c / align * align
		}
		cuts = append(cuts, c)
	}
	cuts = append(cuts, n)
	for i := 1; i < len(cuts); i++ { // insertion sort, tiny slice
		for j := i; j > 0 && cuts[j] < cuts[j-1]; j-- {
			cuts[j], cuts[j-1] = cuts[j-1], cuts[j]
		}
	}
	return cuts
}

func assertColsEqual(t *testing.T, ctx string, want, got *columns.Column) {
	t.Helper()
	if got.Desc() != want.Desc() {
		t.Fatalf("%s: desc %v, want %v", ctx, got.Desc(), want.Desc())
	}
	if got.N() != want.N() || got.MainElems() != want.MainElems() {
		t.Fatalf("%s: extents n=%d/main=%d, want n=%d/main=%d",
			ctx, got.N(), got.MainElems(), want.N(), want.MainElems())
	}
	gw, ww := got.Words(), want.Words()
	if len(gw) != len(ww) {
		t.Fatalf("%s: %d words, want %d", ctx, len(gw), len(ww))
	}
	for i := range ww {
		if gw[i] != ww[i] {
			t.Fatalf("%s: word %d = %#x, want %#x", ctx, i, gw[i], ww[i])
		}
	}
}

// concatCase compresses the value segments of one split independently in two
// modes and asserts that ConcatCompressed reassembles the monolithic column
// bit for bit.
func concatCase(t *testing.T, ctx string, desc columns.FormatDesc, vals []uint64, cuts []int) {
	t.Helper()
	whole, err := Compress(vals, desc)
	if err != nil {
		t.Fatalf("%s: compress whole: %v", ctx, err)
	}

	// Mode 1 — independent parts: each segment compressed on its own, as if
	// by workers ignorant of their stream position. Misaligned seams and
	// DeltaBP base-0 first blocks must be fixed up by the concatenation.
	indep := make([]*columns.Column, 0, len(cuts)-1)
	for i := 1; i < len(cuts); i++ {
		p, err := Compress(vals[cuts[i-1]:cuts[i]], desc)
		if err != nil {
			t.Fatalf("%s: compress part %d: %v", ctx, i, err)
		}
		indep = append(indep, p)
	}
	got, err := ConcatCompressed(desc, indep)
	if err != nil {
		t.Fatalf("%s: concat independent: %v", ctx, err)
	}
	assertColsEqual(t, ctx+"/independent", whole, got)

	// Mode 2 — sectioned parts: each segment streamed through a Writer of
	// its own, sized to the segment.
	sect := make([]*columns.Column, 0, len(cuts)-1)
	for i := 1; i < len(cuts); i++ {
		start := cuts[i-1]
		w, err := NewWriter(desc, cuts[i]-start)
		if err != nil {
			t.Fatalf("%s: section writer %d: %v", ctx, i, err)
		}
		if err := w.Write(vals[start:cuts[i]]); err != nil {
			t.Fatalf("%s: section write %d: %v", ctx, i, err)
		}
		p, err := w.Close()
		if err != nil {
			t.Fatalf("%s: section close %d: %v", ctx, i, err)
		}
		sect = append(sect, p)
	}
	got, err = ConcatCompressed(desc, sect)
	if err != nil {
		t.Fatalf("%s: concat sectioned: %v", ctx, err)
	}
	assertColsEqual(t, ctx+"/sectioned", whole, got)
}

// TestConcatCompressedMatchesMonolithic is the property test of the
// compressed concatenation: for every format, over random split points —
// block-aligned and arbitrary, including empty and sub-block parts —
// reassembling independently compressed segments must reproduce the
// monolithic compression bit for bit.
func TestConcatCompressedMatchesMonolithic(t *testing.T) {
	descs := append(AllDescs(), columns.StaticBPDesc(17), columns.StaticBPDesc(64))
	sizes := []int{0, 1, 63, 64, BlockLen - 1, BlockLen, BlockLen + 1,
		4*BlockLen + 437, 11*BlockLen + 64}
	rng := rand.New(rand.NewSource(7))
	for _, desc := range descs {
		for _, n := range sizes {
			vals := concatTestValues(n, int64(n)+1)
			if desc.Kind == columns.StaticBP && desc.Bits > 0 {
				for i := range vals { // preset width: clamp to representable
					vals[i] &= 1<<desc.Bits - 1
				}
			}
			for trial := 0; trial < 6; trial++ {
				parts := 1 + rng.Intn(5)
				align := 1
				if trial%2 == 0 { // seams on block boundaries: the copy path
					align = max(1, lookup(desc.Kind).partitionAlign)
				}
				cuts := randomCuts(rng, n, parts, align)
				ctx := desc.String() + "/n=" + itoa(n) + "/trial=" + itoa(trial)
				concatCase(t, ctx, desc, vals, cuts)
			}
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestConcatCompressedDegenerate pins the edge cases: no parts, all parts
// empty, and the all-zero static BP column whose derived width is zero.
func TestConcatCompressedDegenerate(t *testing.T) {
	for _, desc := range AllDescs() {
		got, err := ConcatCompressed(desc, nil)
		if err != nil {
			t.Fatalf("%v: concat nil: %v", desc, err)
		}
		want, err := Compress(nil, desc)
		if err != nil {
			t.Fatal(err)
		}
		assertColsEqual(t, desc.String()+"/nil", want, got)

		empty, err := Compress(nil, desc)
		if err != nil {
			t.Fatal(err)
		}
		got, err = ConcatCompressed(desc, []*columns.Column{empty, empty})
		if err != nil {
			t.Fatalf("%v: concat empties: %v", desc, err)
		}
		assertColsEqual(t, desc.String()+"/empties", want, got)
	}

	zeros := make([]uint64, 3*BlockLen+5)
	whole, err := Compress(zeros, columns.StaticBPDesc(0))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := Compress(zeros[:BlockLen], columns.StaticBPDesc(0))
	b, _ := Compress(zeros[BlockLen:], columns.StaticBPDesc(0))
	got, err := ConcatCompressed(columns.StaticBPDesc(0), []*columns.Column{a, b})
	if err != nil {
		t.Fatal(err)
	}
	assertColsEqual(t, "static_bp/all-zero", whole, got)
}

// TestConcatCompressedRejectsMismatches checks the input validation: nil
// parts, format mismatches, and preset static BP widths too narrow for a
// part must fail like the monolithic compressor would.
func TestConcatCompressedRejectsMismatches(t *testing.T) {
	dyn, err := Compress([]uint64{1, 2, 3}, columns.DynBPDesc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ConcatCompressed(columns.RLEDesc, []*columns.Column{dyn}); err == nil {
		t.Fatal("format mismatch must fail")
	}
	if _, err := ConcatCompressed(columns.DynBPDesc, []*columns.Column{nil}); err == nil {
		t.Fatal("nil part must fail")
	}
	wide, err := Compress([]uint64{1 << 20}, columns.StaticBPDesc(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ConcatCompressed(columns.StaticBPDesc(4), []*columns.Column{wide}); err == nil {
		t.Fatal("narrow preset width must fail")
	}
}

// TestConcatCompressedAllocsFullBlocks asserts the zero-allocation property
// of the fast path: when every seam falls on a block boundary, the
// concatenation is a constant number of buffer allocations plus
// block-granular copies — no per-block or per-element work — regardless of
// how much data flows through. Beside every format at its default width, the
// inputs include a position list at the preset static BP width a position
// output is packed at (bits of n-1), so every part has the target width. A
// second group appends a tail to a main of every format (AppendTail) under
// the same bound, which holds only if the tail is encoded once.
func TestConcatCompressedAllocsFullBlocks(t *testing.T) {
	const allocBound = 8 // result buffer + column + fixed per-format scratch
	const n = 16*BlockLen + 437
	positions := make([]uint64, n)
	for i := range positions {
		positions[i] = uint64(i)
	}
	type input struct {
		desc columns.FormatDesc
		vals []uint64
	}
	var inputs []input
	for _, desc := range AllDescs() {
		inputs = append(inputs, input{desc, concatTestValues(n, 3)})
	}
	inputs = append(inputs, input{columns.StaticBPDesc(bitutil.EffectiveBits(n - 1)), positions})
	for _, in := range inputs {
		desc, vals := in.desc, in.vals
		// Part sizes are multiples of every format's block length, so all
		// seams are aligned; the tail part carries the ragged end.
		cuts := []int{0, 4 * BlockLen, 10 * BlockLen, 16 * BlockLen, len(vals)}
		parts := make([]*columns.Column, 0, len(cuts)-1)
		for i := 1; i < len(cuts); i++ {
			start := cuts[i-1]
			w, err := NewWriter(desc, cuts[i]-start)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Write(vals[start:cuts[i]]); err != nil {
				t.Fatal(err)
			}
			p, err := w.Close()
			if err != nil {
				t.Fatal(err)
			}
			parts = append(parts, p)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := ConcatCompressed(parts[0].Desc(), parts); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%v: block-aligned concat of %d parts: %.0f allocations", desc, len(parts), allocs)
		if allocs > allocBound {
			t.Errorf("%v: block-aligned concat did %.0f allocations, want <= %d",
				desc, allocs, allocBound)
		}
	}

	// AppendTail encodes the tail once, behind the main's copied words: the
	// main ends off every group and block boundary, and the tail climbs in
	// steps 128 times as wide, so its width differs from the main's in every
	// format (static BP widens the main's groups).
	rng := rand.New(rand.NewSource(5))
	vals := make([]uint64, 128*BlockLen+300+4096)
	for i := 1; i < len(vals); i++ {
		step := 8
		if i >= 128*BlockLen+300 {
			step = 1024
		}
		vals[i] = vals[i-1] + uint64(rng.Intn(step))
	}
	split := 128*BlockLen + 300
	// A tail of random 64-bit values is the costliest to store in every
	// format; its buffer is reserved up front like any other tail's, so it
	// takes no allocation more than the climbing tail.
	wide := make([]uint64, len(vals)-split)
	for i := range wide {
		wide[i] = rng.Uint64()
	}
	for _, desc := range AllDescs() {
		main, err := Compress(vals[:split], desc)
		if err != nil {
			t.Fatal(err)
		}
		var counts [2]float64
		for i, tail := range [][]uint64{vals[split:], wide} {
			counts[i] = testing.AllocsPerRun(10, func() {
				if _, err := AppendTail(main, tail); err != nil {
					t.Fatal(err)
				}
			})
		}
		t.Logf("%v: AppendTail of %d values to %d: %.0f allocations (random 64-bit tail: %.0f)",
			desc, len(wide), split, counts[0], counts[1])
		if counts[0] > allocBound {
			t.Errorf("%v: AppendTail did %.0f allocations, want <= %d", desc, counts[0], allocBound)
		}
		if counts[1] != counts[0] {
			t.Errorf("%v: AppendTail of a random 64-bit tail did %.0f allocations, want %.0f as for the climbing tail",
				desc, counts[1], counts[0])
		}
	}
}

// FuzzConcatCompressed drives the concatenation property through the fuzzer:
// any kind, any sizes, any two split points must reassemble to the
// monolithic compression.
func FuzzConcatCompressed(f *testing.F) {
	f.Add(int64(1), uint8(2), uint16(1200), uint16(300), uint16(700))
	f.Add(int64(2), uint8(3), uint16(5*BlockLen), uint16(BlockLen), uint16(2*BlockLen))
	f.Add(int64(3), uint8(4), uint16(513), uint16(0), uint16(512))
	f.Add(int64(4), uint8(5), uint16(2000), uint16(2000), uint16(2000))
	f.Add(int64(5), uint8(1), uint16(64), uint16(1), uint16(63))
	f.Fuzz(func(t *testing.T, seed int64, kind uint8, n, c1, c2 uint16) {
		descs := AllDescs()
		desc := descs[int(kind)%len(descs)]
		nn := int(n) % (8 * BlockLen)
		vals := concatTestValues(nn, seed)
		cuts := []int{0, int(c1) % (nn + 1), int(c2) % (nn + 1), nn}
		if cuts[1] > cuts[2] {
			cuts[1], cuts[2] = cuts[2], cuts[1]
		}
		whole, err := Compress(vals, desc)
		if err != nil {
			t.Fatal(err)
		}
		parts := make([]*columns.Column, 0, 3)
		for i := 1; i < len(cuts); i++ {
			p, err := Compress(vals[cuts[i-1]:cuts[i]], desc)
			if err != nil {
				t.Fatal(err)
			}
			parts = append(parts, p)
		}
		got, err := ConcatCompressed(desc, parts)
		if err != nil {
			t.Fatal(err)
		}
		assertColsEqual(t, desc.String(), whole, got)

		main, err := Compress(vals[:cuts[1]], desc)
		if err != nil {
			t.Fatal(err)
		}
		got, err = AppendTail(main, vals[cuts[1]:])
		if err != nil {
			t.Fatal(err)
		}
		assertColsEqual(t, desc.String()+"/append", whole, got)
	})
}
