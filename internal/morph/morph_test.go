package morph

import (
	"math/rand"
	"testing"
	"testing/quick"

	"morphstore/internal/columns"
	"morphstore/internal/formats"
)

func genData(kind string, n int, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]uint64, n)
	switch kind {
	case "small":
		for i := range vals {
			vals[i] = uint64(rng.Intn(64))
		}
	case "sorted":
		acc := uint64(0)
		for i := range vals {
			acc += uint64(rng.Intn(100))
			vals[i] = acc
		}
	case "runs":
		v := uint64(3)
		for i := range vals {
			if rng.Float64() < 0.05 {
				v = uint64(rng.Intn(1000))
			}
			vals[i] = v
		}
	case "wide":
		for i := range vals {
			vals[i] = rng.Uint64()
		}
	}
	return vals
}

// TestMorphAllPairs checks every ordered pair of formats preserves content.
func TestMorphAllPairs(t *testing.T) {
	descs := formats.AllDescs()
	for _, n := range []int{0, 1, 511, 512, 1500, 4096} {
		for _, kind := range []string{"small", "sorted", "runs", "wide"} {
			vals := genData(kind, n, int64(n))
			for _, srcDesc := range descs {
				src, err := formats.Compress(vals, srcDesc)
				if err != nil {
					t.Fatal(err)
				}
				for _, dstDesc := range descs {
					got, err := Morph(src, dstDesc)
					if err != nil {
						t.Fatalf("%s n=%d %v->%v: %v", kind, n, srcDesc, dstDesc, err)
					}
					if got.Desc().Kind != dstDesc.Kind {
						t.Fatalf("%s n=%d %v->%v: result kind %v", kind, n, srcDesc, dstDesc, got.Desc())
					}
					dec, err := formats.Decompress(got)
					if err != nil {
						t.Fatalf("%s n=%d %v->%v: %v", kind, n, srcDesc, dstDesc, err)
					}
					for i := range vals {
						if dec[i] != vals[i] {
							t.Fatalf("%s n=%d %v->%v: elem %d = %d, want %d",
								kind, n, srcDesc, dstDesc, i, dec[i], vals[i])
						}
					}
				}
			}
		}
	}
}

// TestMorphIdentity verifies same-format morphs return the column unchanged.
func TestMorphIdentity(t *testing.T) {
	vals := genData("small", 1000, 9)
	for _, desc := range formats.AllDescs() {
		col, err := formats.Compress(vals, desc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Morph(col, desc)
		if err != nil {
			t.Fatal(err)
		}
		if got != col {
			t.Errorf("%v: identity morph should return the same column", desc)
		}
	}
}

// TestMorphStaticBPRewidth verifies a static BP column can be morphed to a
// different explicit width.
func TestMorphStaticBPRewidth(t *testing.T) {
	vals := genData("small", 1000, 10)
	col, err := formats.Compress(vals, columns.StaticBPDesc(0))
	if err != nil {
		t.Fatal(err)
	}
	wide, err := Morph(col, columns.StaticBPDesc(32))
	if err != nil {
		t.Fatal(err)
	}
	if wide.Desc().Bits != 32 {
		t.Fatalf("bits = %d, want 32", wide.Desc().Bits)
	}
	dec, err := formats.Decompress(wide)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if dec[i] != vals[i] {
			t.Fatalf("elem %d mismatch", i)
		}
	}
}

// TestDirectEqualsGeneric verifies the direct morph produces columns with
// identical logical content and physical size as the generic path.
func TestDirectEqualsGeneric(t *testing.T) {
	pairs := []struct {
		src, dst columns.FormatDesc
		data     string
	}{
		{columns.DynBPDesc, columns.StaticBPDesc(0), "small"},
		{columns.DynBPDesc, columns.StaticBPDesc(0), "wide"},
	}
	for _, p := range pairs {
		vals := genData(p.data, 3000, 42)
		src, err := formats.Compress(vals, p.src)
		if err != nil {
			t.Fatal(err)
		}
		viaDirect, err := Morph(src, p.dst)
		if err != nil {
			t.Fatal(err)
		}
		viaGeneric, err := Generic(src, p.dst)
		if err != nil {
			t.Fatal(err)
		}
		if viaDirect.PhysicalBytes() != viaGeneric.PhysicalBytes() {
			t.Errorf("%v->%v: direct %d B != generic %d B",
				p.src, p.dst, viaDirect.PhysicalBytes(), viaGeneric.PhysicalBytes())
		}
		a, _ := formats.Decompress(viaDirect)
		b, _ := formats.Decompress(viaGeneric)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%v->%v: direct/generic diverge at %d", p.src, p.dst, i)
			}
		}
	}
}

// Property: morphing through a random chain of formats preserves content.
func TestMorphChainProperty(t *testing.T) {
	descs := formats.AllDescs()
	f := func(raw []uint64, hops []uint8) bool {
		if len(hops) > 6 {
			hops = hops[:6]
		}
		col, err := formats.Compress(raw, columns.UncomprDesc)
		if err != nil {
			return false
		}
		for _, h := range hops {
			col, err = Morph(col, descs[int(h)%len(descs)])
			if err != nil {
				return false
			}
		}
		dec, err := formats.Decompress(col)
		if err != nil {
			return false
		}
		for i := range raw {
			if dec[i] != raw[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestMorphCorruptSource(t *testing.T) {
	vals := genData("small", 1024, 3)
	col, err := formats.Compress(vals, columns.DynBPDesc)
	if err != nil {
		t.Fatal(err)
	}
	col.Words()[0] = 9999 // destroy the first block width
	if _, err := Morph(col, columns.StaticBPDesc(0)); err == nil {
		t.Error("morphing a corrupt column should fail")
	}
	if _, err := Morph(col, columns.UncomprDesc); err == nil {
		t.Error("generic morph of a corrupt column should fail")
	}
}
