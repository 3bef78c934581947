package ops

import (
	"fmt"

	"morphstore/internal/columns"
	"morphstore/internal/vector"
)

// JoinN1 performs an N:1 equi-join between a probe-side key column (e.g. a
// fact-table foreign key) and a build-side key column with unique values
// (e.g. a filtered dimension primary key). It returns two position lists of
// equal length: the matching probe positions and, aligned with them, the
// build position each probe row joined with. The probe side streams through
// the usual de/re-compression wrapper; the build side is decompressed once
// into the hash table, which all workers probe read-only — matching the
// encoded hash-join of Lee et al. [39]: compressed (dictionary-key) values
// are inserted and probed directly.
func (rt Runtime) JoinN1(probeKeys, buildKeys *columns.Column, outProbe, outBuild columns.FormatDesc, _ vector.Style) (probePos, buildPos *columns.Column, err error) {
	if err := checkCols(probeKeys, buildKeys); err != nil {
		return nil, nil, err
	}
	build, err := readAll(buildKeys)
	if err != nil {
		return nil, nil, fmt.Errorf("ops: join build side: %w", err)
	}
	ht := newU64Map(len(build))
	for i, k := range build {
		ht.put(k, uint64(i))
	}
	outs := []emitOut{
		{positionDesc(outProbe, probeKeys.N()), probeKeys.N()},
		{positionDesc(outBuild, buildKeys.N()), probeKeys.N()},
	}
	cols, err := rt.emit("join", probeKeys, outs, scan(probeKeys, func(vals []uint64, base uint64, stage [][]uint64) int {
		stageP, stageB, k := stage[0], stage[1], 0
		for i, v := range vals {
			if b, ok := ht.get(v); ok {
				stageP[k] = base + uint64(i)
				stageB[k] = b
				k++
			}
		}
		return k
	}))
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
// e.g. the date-filter joins of SSB Q1.x).
func (rt Runtime) SemiJoin(probeKeys, buildKeys *columns.Column, out columns.FormatDesc, _ vector.Style) (*columns.Column, error) {
	if err := checkCols(probeKeys, buildKeys); err != nil {
		return nil, err
	}
	build, err := readAll(buildKeys)
	if err != nil {
		return nil, fmt.Errorf("ops: semijoin build side: %w", err)
	}
	ht := newU64Map(len(build))
	for _, k := range build {
		ht.put(k, 1)
	}
	return rt.emitPositions("semijoin", probeKeys, out, scan(probeKeys, func(vals []uint64, base uint64, stage [][]uint64) int {
		out, k := stage[0], 0
		for i, v := range vals {
			if _, ok := ht.get(v); ok {
				out[k] = base + uint64(i)
				k++
			}
		}
		return k
	}))
}
