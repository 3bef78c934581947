package ops

import (
	"fmt"

	"morphstore/internal/bitutil"
	"morphstore/internal/bufpool"
	"morphstore/internal/columns"
	"morphstore/internal/formats"
)

// This file implements the grouping operators. Grouping is order-dependent —
// group ids are assigned in order of first key occurrence — so it does not
// fit the emit/map/reduce drivers: it runs as one pass over the whole input
// at every parallelism, with group ids streamed straight into the output
// writer (groupWhole), recorded as a sequential fallback. Ids come from a
// direct-address table while the keys are narrow (denseIDs), from the hash
// table (pairMap) from the first row that outgrows it.

// denseIDs is the direct-address form of the grouping's hash table:
// tab[g<<kb | k-lo] holds one plus the id of previous gid g and key k (g is
// 0 for GroupFirst), 0 for a pair not seen yet. Keys index from the base lo,
// the smallest key seen so far, as the join's table does (keyRange). The
// table holds gb bits of gid and kb of key offset and serves while its
// 2^(gb+kb) slots stay within the join's directSpanCap; its words come from
// the lease (u32Table).
type denseIDs struct {
	bufs   *bufpool.Lease
	tab    []uint32
	words  []uint64 // the lease buffer under tab
	lo     uint64
	gb, kb uint
}

// fit lays the table out for the pairs it holds and the rows of previous
// gids gs (nil for GroupFirst) and keys ks, moving the ids handed out so
// far, and reports false when the layout would exceed directSpanCap slots or
// its last slot's key would overflow. A row with a wider gid, or a key below
// the base or past the last slot, takes a new layout.
func (d *denseIDs) fit(gs, ks []uint64) bool {
	gb := bitutil.MaxBits(gs) // 0 for GroupFirst's nil gs
	lo, hi := keyRange(ks)
	if d.tab != nil {
		gb, lo, hi = max(gb, d.gb), min(lo, d.lo), max(hi, d.lo+(1<<d.kb-1))
	}
	kb := bitutil.EffectiveBits(hi - lo)
	if gb+kb >= 64 || uint64(1)<<(gb+kb) > directSpanCap || lo+(1<<kb-1) < lo {
		return false
	}
	tab, words := u32Table(d.bufs, 1<<(gb+kb))
	d.each(func(g, k uint64, id uint32) { tab[g<<kb|(k-lo)] = id + 1 })
	d.release()
	d.tab, d.words, d.lo, d.gb, d.kb = tab, words, lo, gb, kb
	return true
}

// each calls f with every (gid, key) pair the table holds and its id.
func (d *denseIDs) each(f func(g, k uint64, id uint32)) {
	for i, id := range d.tab {
		if id != 0 {
			f(uint64(i)>>d.kb, d.lo+uint64(i)&(1<<d.kb-1), id-1)
		}
	}
}

// release gives the table back to the lease.
func (d *denseIDs) release() {
	if d.words != nil {
		_ = d.bufs.Put(d.words) // issued by u32Table
	}
	d.tab, d.words = nil, nil
}

// groupBuild accumulates the grouping state: group ids by (previous gid,
// key) — dense until a row's pair outgrows the table, then in pairs, keyed on
// (0, key) for GroupFirst — plus, per id, the position of its first
// occurrence (the extents).
type groupBuild struct {
	dense    denseIDs
	pairs    *pairMap
	firstPos []uint64
}

// spill moves the ids handed out so far from the dense table into the hash
// table, which from then on assigns them; gs is nil for GroupFirst.
func (b *groupBuild) spill(gs []uint64) {
	b.pairs = newPairMap(b.dense.bufs, max(1024, len(b.firstPos)), gs != nil)
	b.dense.each(func(g, k uint64, id uint32) { b.pairs.put(g, k, uint64(id)) })
	b.dense.release()
}

// add assigns ids to one chunk of keys, whose first element has position
// base, and writes every row's group id to gids. The dense table is laid
// out again at the first row outside it, for the rest of the chunk.
func (b *groupBuild) add(vals []uint64, base uint64, gids []uint64) {
	j := 0
	for fits := b.dense.tab != nil; b.pairs == nil && j < len(vals); fits = false {
		if !fits && !b.dense.fit(nil, vals[j:]) {
			b.spill(nil)
			break
		}
		tab, lo := b.dense.tab, b.dense.lo
		for ; j < len(vals); j++ {
			r := vals[j] - lo
			if r >= uint64(len(tab)) {
				break
			}
			id := tab[r]
			if id == 0 {
				b.firstPos = append(b.firstPos, base+uint64(j))
				id = uint32(len(b.firstPos))
				tab[r] = id
			}
			gids[j] = uint64(id - 1)
		}
	}
	b.addHashed(nil, vals[j:], base+uint64(j), gids[j:])
}

// addPairs is add over aligned chunks of previous gids and keys, the
// GroupNext refinement.
func (b *groupBuild) addPairs(gs, ks []uint64, base uint64, gids []uint64) {
	j := 0
	for fits := b.dense.tab != nil; b.pairs == nil && j < len(ks); fits = false {
		if !fits && !b.dense.fit(gs[j:], ks[j:]) {
			b.spill(gs)
			break
		}
		tab, lo, kb := b.dense.tab, b.dense.lo, b.dense.kb&63
		gEnd, rEnd := uint64(1)<<b.dense.gb, uint64(1)<<kb
		for ; j < len(ks); j++ {
			g, r := gs[j], ks[j]-lo
			if g >= gEnd || r >= rEnd {
				break
			}
			i := g<<kb | r
			id := tab[i]
			if id == 0 {
				b.firstPos = append(b.firstPos, base+uint64(j))
				id = uint32(len(b.firstPos))
				tab[i] = id
			}
			gids[j] = uint64(id - 1)
		}
	}
	b.addHashed(gs[j:], ks[j:], base+uint64(j), gids[j:])
}

// addHashed assigns the ids of the rows the dense table left through the
// hash table; gs is nil for GroupFirst, whose previous gid is 0 throughout.
// A row probes with find, which inlines, so only a new pair costs a call.
func (b *groupBuild) addHashed(gs, ks []uint64, base uint64, gids []uint64) {
	// The parent gid arrives in runs (refinement keeps prior group order), so
	// its hash mix is hoisted out of the per-row probe and recomputed only
	// when the run changes; the zero initialization is consistent because
	// 0*hashMul == 0.
	var lastG, lastMix uint64
	m, firstPos := b.pairs, b.firstPos // not reloaded through b on every row
	for j := 0; j < len(ks); j++ {
		if gs != nil {
			if g := gs[j]; g != lastG {
				lastG, lastMix = g, g*hashMul
			}
		}
		if i, found := m.find(lastMix, lastG, ks[j]); found {
			gids[j] = m.vals[i]
		} else {
			gids[j] = uint64(len(firstPos))
			m.insert(i, lastG, ks[j], gids[j])
			firstPos = append(firstPos, base+uint64(j))
		}
	}
	b.firstPos = firstPos
}

// release gives the build's tables back to the lease.
func (b *groupBuild) release() {
	b.dense.release()
	if b.pairs != nil {
		b.pairs.release()
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
	b := groupBuild{dense: denseIDs{bufs: rt.bufs}}
	defer b.release()
	return rt.groupWhole(keys, nil, outGids, outExtents,
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
	b := groupBuild{dense: denseIDs{bufs: rt.bufs}}
	defer b.release()
	return rt.groupWhole(prevGids, keys, outGids, outExtents, b.addPairs, &b.firstPos)
}

// groupWhole groups keys alone (b nil), or previous gids and keys in
// lockstep, in one pass: the group ids add assigns stream straight into the
// output writer and the first positions it records are the extents.
func (rt Runtime) groupWhole(a, b *columns.Column, outGids, outExtents columns.FormatDesc,
	add func(va, vb []uint64, base uint64, gids []uint64), firstPos *[]uint64) (gids, extents *columns.Column, err error) {
	wg, err := formats.NewWriterFrom(rt.bufs, outGids, a.N())
	if err != nil {
		return nil, nil, err
	}
	buf := rt.scratch()
	defer rt.free(buf)
	stage := buf[:blockBuf]
	err = rt.streamCols(a, b, whole(a), func(va, vb []uint64, base uint64) error {
		add(va, vb, base, stage)
		return wg.Write(stage[:len(va)])
	})
	if err != nil {
		return nil, nil, fmt.Errorf("ops: group: %w", err)
	}
	if gids, err = wg.Close(); err != nil {
		return nil, nil, err
	}
	extents, err = rt.extentsColumn(*firstPos, outExtents)
	return gids, extents, err
}

// extentsColumn materializes the first-occurrence positions in their output
// format.
func (rt Runtime) extentsColumn(ext []uint64, out columns.FormatDesc) (*columns.Column, error) {
	w, err := formats.NewWriterFrom(rt.bufs, out, 0)
	if err != nil {
		return nil, err
	}
	if err := w.Write(ext); err != nil {
		return nil, err
	}
	return w.Close()
}
