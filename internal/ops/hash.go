package ops

import "math/bits"

// u64Map is a minimal open-addressing hash map from uint64 keys to uint64
// values, tuned for the join/group operators: linear probing, power-of-two
// capacity, multiply-shift hashing. The zero key is handled via an explicit
// occupancy slice, avoiding sentinel restrictions on the key domain.
type u64Map struct {
	keys  []uint64
	vals  []uint64
	used  []bool
	mask  uint64
	shift uint
	size  int
}

const hashMul = 0x9E3779B97F4A7C15 // 2^64 / golden ratio

// newU64Map creates a map sized for about n entries.
func newU64Map(n int) *u64Map {
	cap := 16
	for cap < n*2 {
		cap <<= 1
	}
	return &u64Map{
		keys:  make([]uint64, cap),
		vals:  make([]uint64, cap),
		used:  make([]bool, cap),
		mask:  uint64(cap - 1),
		shift: 64 - uint(bits.TrailingZeros64(uint64(cap))),
	}
}

func (m *u64Map) slot(k uint64) uint64 {
	return (k * hashMul) >> m.shift
}

// put inserts or overwrites the value for key k.
func (m *u64Map) put(k, v uint64) {
	if m.size*2 >= len(m.keys) {
		m.grow()
	}
	i := m.slot(k)
	for m.used[i] {
		if m.keys[i] == k {
			m.vals[i] = v
			return
		}
		i = (i + 1) & m.mask
	}
	m.keys[i], m.vals[i], m.used[i] = k, v, true
	m.size++
}

// getOrPut returns the existing value for k, or inserts def and returns it
// with inserted=true.
func (m *u64Map) getOrPut(k, def uint64) (v uint64, inserted bool) {
	if m.size*2 >= len(m.keys) {
		m.grow()
	}
	i := m.slot(k)
	for m.used[i] {
		if m.keys[i] == k {
			return m.vals[i], false
		}
		i = (i + 1) & m.mask
	}
	m.keys[i], m.vals[i], m.used[i] = k, def, true
	m.size++
	return def, true
}

// get looks up k.
func (m *u64Map) get(k uint64) (uint64, bool) {
	i := m.slot(k)
	for m.used[i] {
		if m.keys[i] == k {
			return m.vals[i], true
		}
		i = (i + 1) & m.mask
	}
	return 0, false
}

func (m *u64Map) grow() {
	old := *m
	cap := len(old.keys) * 2
	m.keys = make([]uint64, cap)
	m.vals = make([]uint64, cap)
	m.used = make([]bool, cap)
	m.mask = uint64(cap - 1)
	m.shift = 64 - uint(bits.TrailingZeros64(uint64(cap)))
	m.size = 0
	for i, u := range old.used {
		if u {
			m.put(old.keys[i], old.vals[i])
		}
	}
}

// pairMap maps a pair of uint64 keys to a uint64 value; it backs the
// iterative group-by refinement (group id, next key) -> new group id.
type pairMap struct {
	k1, k2 []uint64
	vals   []uint64
	used   []bool
	mask   uint64
	size   int
}

func newPairMap(n int) *pairMap {
	cap := 16
	for cap < n*2 {
		cap <<= 1
	}
	return &pairMap{
		k1:   make([]uint64, cap),
		k2:   make([]uint64, cap),
		vals: make([]uint64, cap),
		used: make([]bool, cap),
		mask: uint64(cap - 1),
	}
}

func pairHash(a, b uint64) uint64 {
	h := a*hashMul ^ b
	h *= hashMul
	return h
}

// getOrPutMixed returns the existing value for (a, b), or inserts def and
// returns it with inserted = true. The caller passes the first key's hash
// contribution mixA = a*hashMul: the grouping loop processes runs of equal
// first keys, so hoisting the multiply out of the per-row call is a small but
// measurable win; pairHash(a, b) == (mixA ^ b) * hashMul keeps the slots
// identical to grow's.
func (m *pairMap) getOrPutMixed(mixA, a, b, def uint64) (v uint64, inserted bool) {
	if m.size*2 >= len(m.k1) {
		m.grow()
	}
	i := ((mixA ^ b) * hashMul) & m.mask
	for m.used[i] {
		if m.k1[i] == a && m.k2[i] == b {
			return m.vals[i], false
		}
		i = (i + 1) & m.mask
	}
	m.k1[i], m.k2[i], m.vals[i], m.used[i] = a, b, def, true
	m.size++
	return def, true
}

func (m *pairMap) grow() {
	old := *m
	cap := len(old.k1) * 2
	m.k1 = make([]uint64, cap)
	m.k2 = make([]uint64, cap)
	m.vals = make([]uint64, cap)
	m.used = make([]bool, cap)
	m.mask = uint64(cap - 1)
	m.size = 0
	for i, u := range old.used {
		if u {
			// re-insert
			j := pairHash(old.k1[i], old.k2[i]) & m.mask
			for m.used[j] {
				j = (j + 1) & m.mask
			}
			m.k1[j], m.k2[j], m.vals[j], m.used[j] = old.k1[i], old.k2[i], old.vals[i], true
			m.size++
		}
	}
}
