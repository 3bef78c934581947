package ops

import "testing"

func TestU64Map(t *testing.T) {
	m := newU64Map(nil, 4)
	for i := uint64(0); i < 1000; i++ {
		m.put(i*7, i)
	}
	for i := uint64(0); i < 1000; i++ {
		v, ok := m.get(i * 7)
		if !ok || v != i {
			t.Fatalf("get(%d) = %d,%v", i*7, v, ok)
		}
	}
	if _, ok := m.get(3); ok {
		t.Error("missing key found")
	}
	// Zero key works.
	m.put(0, 42)
	if v, ok := m.get(0); !ok || v != 42 {
		t.Error("zero key")
	}
	// Overwrite.
	m.put(7, 99)
	if v, _ := m.get(7); v != 99 {
		t.Error("overwrite failed")
	}
	// getOrPut.
	if v, ins := m.getOrPut(7, 1); ins || v != 99 {
		t.Error("getOrPut existing")
	}
	if v, ins := m.getOrPut(123456789, 5); !ins || v != 5 {
		t.Error("getOrPut new")
	}
}

func TestPairMap(t *testing.T) {
	m := newPairMap(nil, 4)
	n := uint64(0)
	for a := uint64(0); a < 50; a++ {
		for b := uint64(0); b < 20; b++ {
			if v, ins := m.getOrPutMixed(a*hashMul, a, b, n); !ins || v != n {
				t.Fatalf("insert (%d,%d)", a, b)
			}
			n++
		}
	}
	n = 0
	for a := uint64(0); a < 50; a++ {
		for b := uint64(0); b < 20; b++ {
			if v, ins := m.getOrPutMixed(a*hashMul, a, b, 9999); ins || v != n {
				t.Fatalf("lookup (%d,%d) = %d, want %d", a, b, v, n)
			}
			n++
		}
	}
}

// TestPairMapHighBits inserts pairs that differ only in bits above any
// table's mask. The slot comes from the hash's top bits, so they spread over
// the table: no entry sits 64 or more slots past its home slot. From the low
// bits they would all share slot 0 and one probe chain.
func TestPairMapHighBits(t *testing.T) {
	m := newPairMap(nil, 4)
	for i := uint64(0); i < 4096; i++ {
		m.getOrPutMixed(0, 0, i<<40, i)
	}
	for j := range m.k1 {
		if !isUsed(m.used, uint64(j)) {
			continue
		}
		home := m.slot(pairHash(m.k1[j], m.k2[j]))
		if d := (uint64(j) - home) & m.mask; d >= 64 {
			t.Fatalf("pair (%d, %#x) sits %d slots past its home slot %d", m.k1[j], m.k2[j], d, home)
		}
	}
}
