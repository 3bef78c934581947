package stats

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

func TestCollectBasics(t *testing.T) {
	p := Collect([]uint64{5, 5, 7, 7, 7, 3})
	if p.N != 6 {
		t.Errorf("N = %d", p.N)
	}
	if p.Min != 3 || p.Max != 7 {
		t.Errorf("min/max = %d/%d", p.Min, p.Max)
	}
	if p.MaxBits != 3 {
		t.Errorf("MaxBits = %d", p.MaxBits)
	}
	if p.Sorted {
		t.Error("not sorted")
	}
	if p.Runs != 3 {
		t.Errorf("Runs = %d, want 3", p.Runs)
	}
	if got := p.AvgRunLength(); got != 2 {
		t.Errorf("AvgRunLength = %f", got)
	}
}

func TestCollectEmpty(t *testing.T) {
	p := Collect(nil)
	if p.N != 0 || p.Runs != 0 || !p.Sorted {
		t.Errorf("empty profile: %+v", p)
	}
	if p.AvgRunLength() != 0 {
		t.Error("empty avg run length")
	}
}

func TestCollectSorted(t *testing.T) {
	p := Collect([]uint64{1, 2, 2, 3, 10})
	if !p.Sorted {
		t.Error("sorted input not detected")
	}
	// Deltas: 1,0,1,7 -> widths 1,0,1,3
	if p.DeltaBitHist[1] != 2 || p.DeltaBitHist[0] != 1 || p.DeltaBitHist[3] != 1 {
		t.Errorf("delta hist: %v", p.DeltaBitHist[:5])
	}
}

func TestBitHist(t *testing.T) {
	p := Collect([]uint64{0, 1, 2, 3, 255})
	if p.BitHist[0] != 1 || p.BitHist[1] != 1 || p.BitHist[2] != 2 || p.BitHist[8] != 1 {
		t.Errorf("bit hist: %v", p.BitHist[:10])
	}
}

func TestExpectedBlockMaxBits(t *testing.T) {
	// Constant-width data: expectation equals that width exactly.
	var h [65]int
	h[6] = 1000
	if got := ExpectedBlockMaxBits(&h, 1000, 512); math.Abs(got-6) > 1e-9 {
		t.Errorf("constant width: %f", got)
	}
	// Rare outliers: expected block max must sit between the two widths and
	// approach the outlier width as block length grows.
	var h2 [65]int
	h2[6] = 9990
	h2[63] = 10
	small := ExpectedBlockMaxBits(&h2, 10000, 8)
	big := ExpectedBlockMaxBits(&h2, 10000, 4096)
	if small < 6 || small > 10 {
		t.Errorf("small block expectation = %f", small)
	}
	if big < 55 {
		t.Errorf("big block expectation = %f, want near 63", big)
	}
	if ExpectedBlockMaxBits(&h2, 0, 512) != 0 {
		t.Error("zero n must yield 0")
	}
}

func TestCollectMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	vals := make([]uint64, 5000)
	for i := range vals {
		vals[i] = uint64(rng.Intn(1 << 20))
	}
	p := Collect(vals)
	// Brute force runs.
	runs := 1
	for i := 1; i < len(vals); i++ {
		if vals[i] != vals[i-1] {
			runs++
		}
	}
	if p.Runs != runs {
		t.Errorf("Runs = %d, want %d", p.Runs, runs)
	}
	total := 0
	for _, c := range p.BitHist {
		total += c
	}
	if total != len(vals) {
		t.Errorf("bit hist total = %d", total)
	}
	totalD := 0
	for _, c := range p.DeltaBitHist {
		totalD += c
	}
	if totalD != len(vals)-1 {
		t.Errorf("delta hist total = %d", totalD)
	}
}

// referenceCollect is the straightforward single-pass profile that Collect
// must reproduce field for field: one histogram copy each, branches for
// Sorted and Runs, every counter updated behind the profile pointer.
func referenceCollect(vals []uint64) *Profile {
	p := &Profile{N: len(vals), Sorted: true}
	if len(vals) == 0 {
		return p
	}
	p.Min, p.Max = vals[0], vals[0]
	p.Runs = 1
	prev := vals[0]
	p.BitHist[bits.Len64(vals[0])]++
	for _, v := range vals[1:] {
		p.BitHist[bits.Len64(v)]++
		d := v - prev // wrap-around delta
		p.DeltaBitHist[bits.Len64(d)]++
		if v < prev {
			p.Sorted = false
		}
		if v != prev {
			p.Runs++
		}
		if v < p.Min {
			p.Min = v
		}
		if v > p.Max {
			p.Max = v
		}
		prev = v
	}
	p.MaxBits, p.Last = uint(bits.Len64(p.Max)), prev
	for _, v := range vals {
		p.ForBitHist[bits.Len64(v-p.Min)]++
	}
	return p
}

func TestCollectMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	random := make([]uint64, 10002)
	for i := range random {
		random[i] = rng.Uint64() >> uint(rng.Intn(64))
	}
	sorted := make([]uint64, 3003)
	for i := range sorted {
		sorted[i] = uint64(i/3) * 7
	}
	reverse := make([]uint64, len(sorted))
	for i := range reverse {
		reverse[i] = sorted[len(sorted)-1-i]
	}
	constant := make([]uint64, 1000)
	for i := range constant {
		constant[i] = 42
	}
	wrap := make([]uint64, 1001)
	for i := range wrap {
		if i%2 == 1 {
			wrap[i] = math.MaxUint64
		}
	}
	for _, tc := range []struct {
		name string
		vals []uint64
	}{
		{"empty", nil},
		{"single", []uint64{math.MaxUint64}},
		{"constant", constant},
		{"sorted", sorted},
		{"reverse", reverse},
		{"wrap", wrap},
		{"random", random},
	} {
		if got, want := Collect(tc.vals), referenceCollect(tc.vals); *got != *want {
			t.Errorf("%s: Collect = %+v, want %+v", tc.name, *got, *want)
		}
	}
}

// TestProfileAppend checks Append against referenceCollect over the joined
// sequence at seams that exercise every field's seam rule, and that a tail
// below the profile's minimum reports ok == false.
func TestProfileAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	random := make([]uint64, 777)
	for i := range random[1:] {
		random[i+1] = rng.Uint64() >> uint(rng.Intn(64))
	}
	// random[0] == 0 is the head's minimum, so no tail goes below it.
	for _, tc := range []struct {
		name       string
		head, tail []uint64
		ok         bool
	}{
		{"both empty", nil, nil, true},
		{"empty head", nil, []uint64{9, 3, 3}, true},
		{"empty tail", []uint64{9, 3, 3}, nil, true},
		{"run across the seam", []uint64{1, 2, 5, 5}, []uint64{5, 5, 7}, true},
		{"sorted across the seam", []uint64{1, 2, 5}, []uint64{6, 9}, true},
		{"sortedness break at the seam", []uint64{1, 2, 5}, []uint64{4, 9}, true},
		{"unsorted head", []uint64{3, 1, 5}, []uint64{6, 9}, true},
		{"wrap-around delta", []uint64{0, math.MaxUint64}, []uint64{0, 1}, true},
		{"tail at the minimum", []uint64{7, 9}, []uint64{7, 7}, true},
		{"tail raises the maximum", []uint64{7, 9}, []uint64{1 << 40}, true},
		{"random", random[:400], random[400:], true},
		{"tail below the minimum", []uint64{7, 9}, []uint64{8, 6}, false},
	} {
		got, ok := Collect(tc.head).Append(tc.tail)
		if ok != tc.ok {
			t.Errorf("%s: ok = %v, want %v", tc.name, ok, tc.ok)
			continue
		}
		if !ok {
			continue
		}
		want := referenceCollect(append(append([]uint64(nil), tc.head...), tc.tail...))
		if *got != *want {
			t.Errorf("%s: Append = %+v, want %+v", tc.name, *got, *want)
		}
	}
}

// FuzzProfileAppend splits fuzzed values at a fuzzed cut: profiling the
// head and appending the tail equals profiling the whole sequence whenever
// the tail does not go below the head's minimum, and reports ok == false
// exactly when it does.
func FuzzProfileAppend(f *testing.F) {
	f.Add([]byte{1, 2, 3, 3, 3, 0, 255, 7}, uint(4))
	f.Add([]byte{9, 9, 9, 9}, uint(2))
	f.Add([]byte{}, uint(0))
	f.Fuzz(func(t *testing.T, data []byte, cut uint) {
		vals := make([]uint64, len(data)/2)
		for i := range vals {
			// Two bytes per value, spread over the full range so wide
			// offsets and wrap-around deltas occur.
			vals[i] = uint64(data[2*i])<<56 | uint64(data[2*i+1])
		}
		k := int(cut % uint(len(vals)+1))
		head, tail := vals[:k], vals[k:]
		hp := Collect(head)
		got, ok := hp.Append(tail)
		below := false
		for _, v := range tail {
			below = below || (k > 0 && v < hp.Min)
		}
		if ok == below {
			t.Fatalf("cut %d of %v: ok = %v with tail below the minimum %v", k, vals, ok, below)
		}
		if !ok {
			return
		}
		if want := referenceCollect(vals); *got != *want {
			t.Fatalf("cut %d of %v: Append = %+v, want %+v", k, vals, *got, *want)
		}
	})
}

// BenchmarkCollect profiles 1 Mi random values of mixed bit widths.
func BenchmarkCollect(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]uint64, 1<<20)
	for i := range vals {
		vals[i] = uint64(rng.Intn(1 << 24))
	}
	b.SetBytes(int64(8 * len(vals)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Collect(vals)
	}
}

// fuzzValues decodes three bytes per value into values that reach both ends
// of the word: a tag byte picks a small value x, 2^64-1-x, x<<48 or
// x<<56|x, where x is the next two bytes. Neighbours of different tags give
// wide and wrap-around deltas. A length that is a multiple of 8 gets one
// more value, so the vector path always leaves a tail to the portable loop.
func fuzzValues(data []byte, extra uint64) []uint64 {
	vals := make([]uint64, 0, len(data)/3+1)
	for i := 0; i+2 < len(data); i += 3 {
		x := uint64(data[i+1])<<8 | uint64(data[i+2])
		switch data[i] % 4 {
		case 0:
			vals = append(vals, x)
		case 1:
			vals = append(vals, math.MaxUint64-x)
		case 2:
			vals = append(vals, x<<48)
		default:
			vals = append(vals, x<<56|x)
		}
	}
	if len(vals)%8 == 0 {
		vals = append(vals, extra)
	}
	return vals
}

// FuzzCollect checks the profile kernel's two paths against each other
// through referenceCollect, which both must equal: Collect of the whole
// sequence, and Append of a tail cut at a fuzzed point to the head's profile
// wherever the tail keeps the head's minimum.
func FuzzCollect(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	// 511 and 513 values (fuzzValues extends 512) sit on the two sides of
	// bitutil's minVecProfile, 512, below which the profile kernels run
	// their Go loops on every path.
	for _, n := range []int{1, 7, 9, 17, 63, 65, 130, 511, 512} {
		data := make([]byte, 3*n)
		rng.Read(data)
		f.Add(data, uint(rng.Intn(n+1)), rng.Uint64())
	}
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 1, 0, 1, 2, 0, 1, 3, 0, 1, 0, 0, 0}, uint(3), uint64(math.MaxUint64))
	f.Add(make([]byte, 3*16), uint(8), uint64(0))
	// The last value the vector path sees is the minimum, then the maximum.
	var down, up []byte
	for x := byte(1); x <= 8; x++ {
		down, up = append(down, 0, 0, 9-x), append(up, 0, 0, x)
	}
	f.Add(append(down, 0, 0, 9), uint(0), uint64(0))
	f.Add(append(up, 0, 0, 0), uint(9), uint64(0))
	f.Fuzz(func(t *testing.T, data []byte, cut uint, extra uint64) {
		vals := fuzzValues(data, extra)
		k := int(cut % uint(len(vals)+1))
		want := referenceCollect(vals)
		eachKernelPath(func(path string) {
			if got := Collect(vals); *got != *want {
				t.Fatalf("%s: Collect(%v) = %+v, want %+v", path, vals, *got, *want)
			}
			hp := Collect(vals[:k])
			app, ok := hp.Append(vals[k:])
			if !ok {
				return
			}
			if *app != *want {
				t.Fatalf("%s: Append at %d of %v = %+v, want %+v", path, k, vals, *app, *want)
			}
		})
	})
}
