package ops

import (
	"fmt"
	"sort"

	"morphstore/internal/columns"
	"morphstore/internal/faultpoint"
	"morphstore/internal/formats"
)

// This file implements the grouping operators. Grouping is order-dependent —
// group ids are assigned in order of first key occurrence — so it does not
// fit the emit/map/reduce drivers: an input that splits into morsels runs in
// three phases:
//
//  1. Build (parallel): workers claim morsels from the atomic work queue and
//     hash every key into a per-worker group table, staging worker-local
//     group ids per morsel. Because the queue hands out morsels in ascending
//     index order, a worker meets its keys in ascending global position
//     order, so the first position it records per local group is the minimum
//     over all morsels that worker claimed.
//  2. Merge (sequential, deterministic): the per-worker tables are folded
//     into one global table keeping the minimum first-occurrence position per
//     distinct key — the minimum over the per-worker minima is the global
//     first occurrence, independent of which worker claimed which morsel.
//     Sorting the distinct keys by that position yields exactly the id
//     order and extents column of a single build over the whole input.
//  3. Remap + stitch (parallel): each morsel's staged local ids are rewritten
//     through its worker's local-to-canonical map, and the rewritten id
//     stream is finished through the parallel compressed stitch — the result
//     columns are byte-identical to the unsplit path's at every parallelism
//     level.
//
// An input that does not split skips all of that: one hash table, group ids
// streamed straight into the output writer (groupWhole).

// groupBuild accumulates one worker's grouping state: a hash table from key
// to worker-local group id plus, per local id, the key and its first global
// position seen by this worker.
type groupBuild struct {
	ht       *u64Map
	keys     []uint64
	firstPos []uint64
}

// add hashes one chunk of keys, whose first element has global position
// base, into the build and writes every row's local group id to lids.
func (b *groupBuild) add(vals []uint64, base uint64, lids []uint64) {
	for j, v := range vals {
		lid, inserted := b.ht.getOrPut(v, uint64(len(b.keys)))
		if inserted {
			b.keys = append(b.keys, v)
			b.firstPos = append(b.firstPos, base+uint64(j))
		}
		lids[j] = lid
	}
}

// pairBuild is the two-key (previous gid, key) form of groupBuild backing
// the GroupNext refinement.
type pairBuild struct {
	ht       *pairMap
	k1s, k2s []uint64
	firstPos []uint64
}

// add is groupBuild.add over aligned chunks of previous gids and keys.
func (b *pairBuild) add(gs, ks []uint64, base uint64, lids []uint64) {
	// The parent gid arrives in runs (refinement keeps prior group order), so
	// its hash mix is hoisted out of the per-row probe and recomputed only
	// when the run changes; the zero initialization is consistent because
	// 0*hashMul == 0.
	var lastG, lastMix uint64
	for j, g := range gs {
		if g != lastG {
			lastG, lastMix = g, g*hashMul
		}
		lid, inserted := b.ht.getOrPutMixed(lastMix, g, ks[j], uint64(len(b.k1s)))
		if inserted {
			b.k1s = append(b.k1s, g)
			b.k2s = append(b.k2s, ks[j])
			b.firstPos = append(b.firstPos, base+uint64(j))
		}
		lids[j] = lid
	}
}

// mergeBuilds is the shared sequential merge phase of both grouping drivers:
// it folds the per-worker first-occurrence tables into canonical global ids.
// nLocal reports worker w's local-id count (0 for a worker that claimed
// nothing); firstPos returns the first position worker w recorded for local
// id lid; probe getOrPuts worker w's local id lid into the caller's global
// hash table with the given default entry index, returning the entry index
// and whether it was new. The global first occurrence of a key is the
// minimum over the per-worker minima — independent of which worker claimed
// which morsel — and sorting the entries by that position yields exactly the
// id order of a single build over the whole input. Returns the extents
// (first-occurrence positions in canonical order) and, per worker, the
// local-id -> canonical global id remap table.
func mergeBuilds(workers int, nLocal func(w int) int, firstPos func(w, lid int) uint64, probe func(w, lid int, def uint64) (uint64, bool)) (ext []uint64, remaps [][]uint64) {
	// The merge has no error path of its own, so the fault point escalates
	// injected errors to panics; the engine's per-node recover guard reports
	// them as typed query errors.
	faultpoint.GroupMerge.MustHit()
	var pos []uint64 // minimum first-occurrence position per entry index
	remaps = make([][]uint64, workers)
	for w := 0; w < workers; w++ {
		n := nLocal(w)
		if n == 0 {
			continue
		}
		remap := make([]uint64, n)
		for lid := 0; lid < n; lid++ {
			p := firstPos(w, lid)
			ei, inserted := probe(w, lid, uint64(len(pos)))
			if inserted {
				pos = append(pos, p)
			} else if p < pos[ei] {
				pos[ei] = p
			}
			remap[lid] = ei
		}
		remaps[w] = remap
	}
	// Canonical order: ascending first-occurrence position (positions are
	// unique, so the sort is a strict total order).
	perm := make([]int, len(pos))
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(i, j int) bool { return pos[perm[i]] < pos[perm[j]] })
	ext = make([]uint64, len(perm))
	rankOf := make([]uint64, len(perm))
	for r, ei := range perm {
		ext[r] = pos[ei]
		rankOf[ei] = uint64(r)
	}
	for _, remap := range remaps {
		for lid, ei := range remap {
			remap[lid] = rankOf[ei]
		}
	}
	return ext, remaps
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
	parts := rt.split(keys, nil)
	if parts == nil {
		b := groupBuild{ht: newU64Map(1024)}
		return groupWhole(keys, nil, outGids, outExtents,
			func(vals, _ []uint64, base uint64, lids []uint64) { b.add(vals, base, lids) }, &b.firstPos)
	}

	// Phase 1: per-worker hash build over work-queue morsels.
	workers := rt.workers(len(parts))
	builds := make([]*groupBuild, workers)
	chunks := make([][]uint64, len(parts))
	morselWorker := make([]int, len(parts))
	err = rt.runParts(parts, func(w, i int, pt formats.Partition) error {
		b := builds[w]
		if b == nil {
			b = &groupBuild{ht: newU64Map(1024)}
			builds[w] = b
		}
		local := make([]uint64, pt.Count)
		rt.ChargeMem(8 * len(local))
		if err := streamCols(keys, nil, pt, func(vals, _ []uint64, base uint64) error {
			b.add(vals, base, local[int(base)-pt.Start:])
			return nil
		}); err != nil {
			return err
		}
		chunks[i] = local
		morselWorker[i] = w
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("ops: group: %w", err)
	}

	// Phase 2: deterministic merge into canonical first-occurrence order.
	gt := newU64Map(1024)
	ext, remaps := mergeBuilds(workers,
		func(w int) int {
			if builds[w] == nil {
				return 0
			}
			return len(builds[w].keys)
		},
		func(w, lid int) uint64 { return builds[w].firstPos[lid] },
		func(w, lid int, def uint64) (uint64, bool) { return gt.getOrPut(builds[w].keys[lid], def) })

	// Phase 3: rewrite the staged local ids and stitch.
	return rt.finishGroup(chunks, morselWorker, remaps, ext, keys.N(), outGids, outExtents)
}

// GroupNext refines an existing grouping with an additional key column: rows
// fall into the same output group iff they had the same previous group id
// and the same new key (the iterative multi-column grouping of MonetDB's
// group.subgroup), under the same build/merge/remap scheme keyed on
// (previous gid, key) pairs. Outputs follow the GroupFirst conventions.
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
	parts := rt.split(prevGids, keys)
	if parts == nil {
		b := pairBuild{ht: newPairMap(1024)}
		return groupWhole(prevGids, keys, outGids, outExtents, b.add, &b.firstPos)
	}

	workers := rt.workers(len(parts))
	builds := make([]*pairBuild, workers)
	chunks := make([][]uint64, len(parts))
	morselWorker := make([]int, len(parts))
	err = rt.runParts(parts, func(w, i int, pt formats.Partition) error {
		b := builds[w]
		if b == nil {
			b = &pairBuild{ht: newPairMap(1024)}
			builds[w] = b
		}
		local := make([]uint64, pt.Count)
		rt.ChargeMem(8 * len(local))
		if err := streamCols(prevGids, keys, pt, func(gs, ks []uint64, base uint64) error {
			b.add(gs, ks, base, local[int(base)-pt.Start:])
			return nil
		}); err != nil {
			return err
		}
		chunks[i] = local
		morselWorker[i] = w
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("ops: group: %w", err)
	}

	gt := newPairMap(1024)
	ext, remaps := mergeBuilds(workers,
		func(w int) int {
			if builds[w] == nil {
				return 0
			}
			return len(builds[w].k1s)
		},
		func(w, lid int) uint64 { return builds[w].firstPos[lid] },
		func(w, lid int, def uint64) (uint64, bool) {
			return gt.getOrPut(builds[w].k1s[lid], builds[w].k2s[lid], def)
		})

	return rt.finishGroup(chunks, morselWorker, remaps, ext, keys.N(), outGids, outExtents)
}

// finishGroup runs the remap pass (parallel, one task per staged morsel
// chunk) and materializes the canonical gid stream and extents in their
// output formats, matching the sequential writers byte for byte.
func (rt Runtime) finishGroup(chunks [][]uint64, morselWorker []int, remaps [][]uint64, ext []uint64, n int, outGids, outExtents columns.FormatDesc) (gids, extents *columns.Column, err error) {
	err = rt.runTasks(len(chunks), func(_, i int) error {
		remap := remaps[morselWorker[i]]
		chunk := chunks[i]
		for j, lid := range chunk {
			chunk[j] = remap[lid]
		}
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("ops: group: %w", err)
	}
	gids, err = rt.stitchCompressed(outGids, n, chunks)
	if err != nil {
		return nil, nil, err
	}
	extents, err = extentsColumn(ext, outExtents)
	return gids, extents, err
}

// groupWhole groups an input that did not split — keys alone (b nil), or
// previous gids and keys in lockstep: with a single build the local group ids
// add assigns are the canonical ones and the first positions it records are
// the extents, so the ids stream straight into the output writer.
func groupWhole(a, b *columns.Column, outGids, outExtents columns.FormatDesc,
	add func(va, vb []uint64, base uint64, lids []uint64), firstPos *[]uint64) (gids, extents *columns.Column, err error) {
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
