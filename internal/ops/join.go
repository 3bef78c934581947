package ops

import (
	"fmt"
	"math"
	"unsafe"

	"morphstore/internal/bufpool"
	"morphstore/internal/columns"
	"morphstore/internal/vector"
)

// Bounds of the dense-key rule (denseKeys): which build sides get a
// direct-address table instead of the hash map.
const (
	// directSpanCap admits any key span up to this many slots whatever n is:
	// a 256 KiB join table (8 KiB bitmap) stays cache-resident, and the cap
	// covers a full yyyymmdd date dimension (1992..1998 spans 61 131 slots
	// for 2 556 keys).
	directSpanCap = 1 << 16
	// directSlotsPerKey admits a wider span while the 4-byte-per-slot table
	// stays below the 34 bytes per key the hash map spends at its fullest.
	directSlotsPerKey = 8
)

// denseKeys reports whether the build keys are dense enough for a
// direct-address table, and if so their minimum lo and span = max - lo. The
// table has span+1 slots, which the rule bounds by directSpanCap or
// directSlotsPerKey·n; an empty build side, a span whose slot count overflows,
// and a build side whose indices + 1 do not fit a uint32 are not dense.
func denseKeys(build []uint64) (lo, span uint64, ok bool) {
	n := uint64(len(build))
	if n == 0 || n >= math.MaxUint32 {
		return 0, 0, false
	}
	lo, hi := build[0], build[0]
	for _, k := range build[1:] {
		lo, hi = min(lo, k), max(hi, k)
	}
	span = hi - lo
	if span == math.MaxUint64 {
		return 0, 0, false
	}
	return lo, span, span < directSpanCap || span < directSlotsPerKey*n
}

// The join and semi-join tables are built per execution from the build
// keys. Their arrays come from the runtime's lease, cleared on take, and each
// kernel maker returns, beside the kernel, the done func that gives them back
// once the probe is over.

// joinKernel picks the N:1 join kernel for the build keys.
func joinKernel(bufs *bufpool.Lease, build []uint64) (chunkKernel, func()) {
	if lo, span, ok := denseKeys(build); ok {
		return directJoinKernel(bufs, build, lo, span)
	}
	return hashJoinKernel(bufs, build)
}

// u32Table takes a cleared table of n uint32 slots from bufs, viewing the
// words of a lease buffer — which it returns for giving back — as uint32s.
func u32Table(bufs *bufpool.Lease, n uint64) ([]uint32, []uint64) {
	words := bufs.Get(int(n/2 + n%2))
	tab := unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(words))), n)
	clear(tab)
	return tab, words
}

// directJoinKernel probes a direct-address table: tab[k-lo] is the build
// index of key k plus one, 0 for an absent key. Every probe row is staged
// unconditionally and the cursor advances by the match bit, so the only
// data-dependent branch left is the range check.
func directJoinKernel(bufs *bufpool.Lease, build []uint64, lo, span uint64) (chunkKernel, func()) {
	tab, words := u32Table(bufs, span+1)
	for i, k := range build {
		tab[k-lo] = uint32(i) + 1
	}
	return func(vals []uint64, base uint64, stage [][]uint64) int {
		stageP, stageB, k := stage[0], stage[1], 0
		for i, v := range vals {
			var t uint64
			if d := v - lo; d <= span {
				t = uint64(tab[d])
			}
			stageP[k] = base + uint64(i)
			stageB[k] = t - 1
			k += int((t + math.MaxUint32) >> 32) // 1 iff t != 0
		}
		return k
	}, func() { _ = bufs.Put(words) } // issued by u32Table
}

// hashJoinKernel is the sparse-key fallback of directJoinKernel.
func hashJoinKernel(bufs *bufpool.Lease, build []uint64) (chunkKernel, func()) {
	ht := newU64Map(bufs, len(build))
	for i, k := range build {
		ht.put(k, uint64(i))
	}
	return func(vals []uint64, base uint64, stage [][]uint64) int {
		stageP, stageB, k := stage[0], stage[1], 0
		for i, v := range vals {
			if b, ok := ht.get(v); ok {
				stageP[k] = base + uint64(i)
				stageB[k] = b
				k++
			}
		}
		return k
	}, ht.release
}

// semiJoinKernel picks the semi-join kernel for the build keys.
func semiJoinKernel(bufs *bufpool.Lease, build []uint64) (chunkKernel, func()) {
	if lo, span, ok := denseKeys(build); ok {
		return directSemiJoinKernel(bufs, build, lo, span)
	}
	return hashSemiJoinKernel(bufs, build)
}

// directSemiJoinKernel probes a bitmap over [lo, lo+span]: bit k-lo is set
// iff key k occurs on the build side.
func directSemiJoinKernel(bufs *bufpool.Lease, build []uint64, lo, span uint64) (chunkKernel, func()) {
	bits := bufs.Get(int(span>>6 + 1))
	clear(bits)
	for _, k := range build {
		d := k - lo
		bits[d>>6] |= 1 << (d & 63)
	}
	return func(vals []uint64, base uint64, stage [][]uint64) int {
		out, k := stage[0], 0
		for i, v := range vals {
			var m uint64
			if d := v - lo; d <= span {
				m = bits[d>>6] >> (d & 63) & 1
			}
			out[k] = base + uint64(i)
			k += int(m)
		}
		return k
	}, func() { _ = bufs.Put(bits) } // issued above
}

// hashSemiJoinKernel is the sparse-key fallback of directSemiJoinKernel.
func hashSemiJoinKernel(bufs *bufpool.Lease, build []uint64) (chunkKernel, func()) {
	ht := newU64Map(bufs, len(build))
	for _, k := range build {
		ht.put(k, 1)
	}
	return func(vals []uint64, base uint64, stage [][]uint64) int {
		out, k := stage[0], 0
		for i, v := range vals {
			if _, ok := ht.get(v); ok {
				out[k] = base + uint64(i)
				k++
			}
		}
		return k
	}, ht.release
}

// JoinN1 performs an N:1 equi-join between a probe-side key column (e.g. a
// fact-table foreign key) and a build-side key column (e.g. a filtered
// dimension primary key). It returns two position lists of equal length: the
// matching probe positions and, aligned with them, the build position each
// probe row joined with. Build keys are expected to be unique; of duplicates
// the last occurrence wins. The probe side streams through the usual
// de/re-compression wrapper; the build side is decompressed once into a
// lookup table that all workers probe read-only — a direct-address array
// indexed by key - min when the keys are dense (denseKeys), a hash map
// otherwise. The choice depends only on the build column's element count and
// key range, and the output is the same bytes either way. The style argument
// is ignored (see package vector).
func (rt Runtime) JoinN1(probeKeys, buildKeys *columns.Column, outProbe, outBuild columns.FormatDesc, _ vector.Style) (probePos, buildPos *columns.Column, err error) {
	if err := checkCols(probeKeys, buildKeys); err != nil {
		return nil, nil, err
	}
	build, freeBuild, err := rt.readAll(buildKeys)
	if err != nil {
		return nil, nil, fmt.Errorf("ops: join build side: %w", err)
	}
	kernel, freeTable := joinKernel(rt.bufs, build)
	defer freeTable()
	n := len(build)
	freeBuild() // the table holds what the probe needs
	return rt.joinN1(probeKeys, n, outProbe, outBuild, kernel)
}

// joinN1 runs a join kernel over the probe keys through the emit driver.
func (rt Runtime) joinN1(probeKeys *columns.Column, buildN int, outProbe, outBuild columns.FormatDesc, kernel chunkKernel) (probePos, buildPos *columns.Column, err error) {
	outs := []emitOut{
		{positionDesc(outProbe, probeKeys.N()), probeKeys.N()},
		{positionDesc(outBuild, buildN), probeKeys.N()},
	}
	cols, err := rt.emit("join", probeKeys, nil, outs, scan(probeKeys, kernel))
	if err != nil {
		return nil, nil, err
	}
	return cols[0], cols[1], nil
}

// JoinN1 is the single-worker form of Runtime.JoinN1.
func JoinN1(probeKeys, buildKeys *columns.Column, outProbe, outBuild columns.FormatDesc, style vector.Style) (probePos, buildPos *columns.Column, err error) {
	return FixedRT(1).JoinN1(probeKeys, buildKeys, outProbe, outBuild, style)
}

// SemiJoin returns the probe positions whose key occurs in the build-side
// key column (used when only the existence of a dimension match matters,
// e.g. the date-filter joins of SSB Q1.x). Duplicate build keys are harmless.
// The build side becomes a bitmap over [min, max] when its keys are dense
// (denseKeys) and a hash set otherwise, chosen like JoinN1's table.
func (rt Runtime) SemiJoin(probeKeys, buildKeys *columns.Column, out columns.FormatDesc) (*columns.Column, error) {
	if err := checkCols(probeKeys, buildKeys); err != nil {
		return nil, err
	}
	build, freeBuild, err := rt.readAll(buildKeys)
	if err != nil {
		return nil, fmt.Errorf("ops: semijoin build side: %w", err)
	}
	kernel, freeTable := semiJoinKernel(rt.bufs, build)
	defer freeTable()
	freeBuild() // the table holds what the probe needs
	return rt.emitPositions("semijoin", probeKeys, out, scan(probeKeys, kernel))
}
