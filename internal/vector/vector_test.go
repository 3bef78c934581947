package vector

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func randVec(rng *rand.Rand) Vec {
	var v Vec
	for i := range v {
		v[i] = rng.Uint64()
	}
	return v
}

func TestLoadStore(t *testing.T) {
	s := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	v := Load(s)
	out := make([]uint64, Lanes)
	v.Store(out)
	for i := 0; i < Lanes; i++ {
		if out[i] != s[i] {
			t.Errorf("lane %d = %d, want %d", i, out[i], s[i])
		}
	}
}

func TestArithmeticAgainstScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		a, b := randVec(rng), randVec(rng)
		add, sub, mul := Add(a, b), Sub(a, b), Mul(a, b)
		for i := 0; i < Lanes; i++ {
			if add[i] != a[i]+b[i] {
				t.Fatalf("Add lane %d", i)
			}
			if sub[i] != a[i]-b[i] {
				t.Fatalf("Sub lane %d", i)
			}
			if mul[i] != a[i]*b[i] {
				t.Fatalf("Mul lane %d", i)
			}
		}
	}
}

func TestGather(t *testing.T) {
	base := make([]uint64, 64)
	for i := range base {
		base[i] = uint64(i * 10)
	}
	idx := Vec{3, 1, 4, 1, 5, 9, 2, 6}
	got := Gather(base, idx)
	for i, ix := range idx {
		if got[i] != base[ix] {
			t.Errorf("lane %d = %d, want %d", i, got[i], base[ix])
		}
	}
}

func TestHSumProperty(t *testing.T) {
	f := func(a, b, c, d, e, ff, g, h uint64) bool {
		v := Vec{a, b, c, d, e, ff, g, h}
		return v.HSum() == a+b+c+d+e+ff+g+h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStyleString(t *testing.T) {
	if Scalar.String() != "scalar" || Vec512.String() != "vec512" {
		t.Error("style names")
	}
	if Style(99).String() == "" {
		t.Error("unknown style should still format")
	}
}
