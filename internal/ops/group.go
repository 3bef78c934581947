package ops

import (
	"fmt"

	"morphstore/internal/columns"
	"morphstore/internal/formats"
)

// This file implements the grouping operators. Grouping is order-dependent —
// group ids are assigned in order of first key occurrence — so it does not
// fit the emit/map/reduce drivers: it runs as one pass over the whole input
// at every parallelism, one hash table with group ids streamed straight into
// the output writer (groupWhole), recorded as a sequential fallback.

// groupBuild accumulates the grouping state: a hash table from key to group
// id plus, per id, the position of its first occurrence (the extents).
type groupBuild struct {
	ht       *u64Map
	firstPos []uint64
}

// add hashes one chunk of keys, whose first element has position base, into
// the build and writes every row's group id to gids.
func (b *groupBuild) add(vals []uint64, base uint64, gids []uint64) {
	for j, v := range vals {
		gid, inserted := b.ht.getOrPut(v, uint64(len(b.firstPos)))
		if inserted {
			b.firstPos = append(b.firstPos, base+uint64(j))
		}
		gids[j] = gid
	}
}

// pairBuild is the two-key (previous gid, key) form of groupBuild backing
// the GroupNext refinement.
type pairBuild struct {
	ht       *pairMap
	firstPos []uint64
}

// add is groupBuild.add over aligned chunks of previous gids and keys.
func (b *pairBuild) add(gs, ks []uint64, base uint64, gids []uint64) {
	// The parent gid arrives in runs (refinement keeps prior group order), so
	// its hash mix is hoisted out of the per-row probe and recomputed only
	// when the run changes; the zero initialization is consistent because
	// 0*hashMul == 0.
	var lastG, lastMix uint64
	for j, g := range gs {
		if g != lastG {
			lastG, lastMix = g, g*hashMul
		}
		gid, inserted := b.ht.getOrPutMixed(lastMix, g, ks[j], uint64(len(b.firstPos)))
		if inserted {
			b.firstPos = append(b.firstPos, base+uint64(j))
		}
		gids[j] = gid
	}
}

// GroupFirst assigns a dense group id (in order of first occurrence) to
// every element of keys. It returns two columns, MonetDB-style:
//
//   - gids: one group id per input element (length keys.N()),
//   - extents: for each group, the position of its first occurrence
//     (length = number of groups); projecting the key column with extents
//     yields the per-group key values.
func (rt Runtime) GroupFirst(keys *columns.Column, outGids, outExtents columns.FormatDesc) (gids, extents *columns.Column, err error) {
	if err := checkCols(keys); err != nil {
		return nil, nil, err
	}
	if err := rt.Err(); err != nil {
		return nil, nil, err
	}
	rt.coll.SeqFallback()
	b := groupBuild{ht: newU64Map(1024)}
	return groupWhole(keys, nil, outGids, outExtents,
		func(vals, _ []uint64, base uint64, gids []uint64) { b.add(vals, base, gids) }, &b.firstPos)
}

// GroupNext refines an existing grouping with an additional key column: rows
// fall into the same output group iff they had the same previous group id
// and the same new key (the iterative multi-column grouping of MonetDB's
// group.subgroup), in the same one pass keyed on (previous gid, key) pairs.
// Outputs follow the GroupFirst conventions.
func (rt Runtime) GroupNext(prevGids, keys *columns.Column, outGids, outExtents columns.FormatDesc) (gids, extents *columns.Column, err error) {
	if err := checkCols(prevGids, keys); err != nil {
		return nil, nil, err
	}
	if err := rt.Err(); err != nil {
		return nil, nil, err
	}
	if prevGids.N() != keys.N() {
		return nil, nil, fmt.Errorf("ops: group: gid column has %d elements, keys %d", prevGids.N(), keys.N())
	}
	rt.coll.SeqFallback()
	b := pairBuild{ht: newPairMap(1024)}
	return groupWhole(prevGids, keys, outGids, outExtents, b.add, &b.firstPos)
}

// groupWhole groups keys alone (b nil), or previous gids and keys in
// lockstep, in one pass: the group ids add assigns stream straight into the
// output writer and the first positions it records are the extents.
func groupWhole(a, b *columns.Column, outGids, outExtents columns.FormatDesc,
	add func(va, vb []uint64, base uint64, gids []uint64), firstPos *[]uint64) (gids, extents *columns.Column, err error) {
	wg, err := formats.NewWriter(outGids, a.N())
	if err != nil {
		return nil, nil, err
	}
	buf := scratch.Get().(*scratchBuf)
	defer scratch.Put(buf)
	stage := buf[:blockBuf]
	err = streamCols(a, b, whole(a), func(va, vb []uint64, base uint64) error {
		add(va, vb, base, stage)
		return wg.Write(stage[:len(va)])
	})
	if err != nil {
		return nil, nil, fmt.Errorf("ops: group: %w", err)
	}
	if gids, err = wg.Close(); err != nil {
		return nil, nil, err
	}
	extents, err = extentsColumn(*firstPos, outExtents)
	return gids, extents, err
}

// extentsColumn materializes the first-occurrence positions in their output
// format.
func extentsColumn(ext []uint64, out columns.FormatDesc) (*columns.Column, error) {
	w, err := formats.NewWriter(out, 0)
	if err != nil {
		return nil, err
	}
	if err := w.Write(ext); err != nil {
		return nil, err
	}
	return w.Close()
}
