package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"morphstore/internal/core"
	"morphstore/internal/ingest"
	"morphstore/internal/vector"
)

// newTwin returns an empty engine with the events schema, level either a
// dictionary-encoded string column or a plain ID column. The traced run
// appends every batch to one twin of each kind — as strings, and
// pre-translated to dictionary IDs — and folds both whenever the engine under
// test folds, so the two delta stores share one history and the difference of
// the two append times is the dictionary's.
func newTwin(stringLevel bool) (*core.Engine, error) {
	db := core.NewDB()
	nums := map[string][]uint64{"ts": nil, "bytes": nil}
	if !stringLevel {
		nums["level"] = nil
	}
	if err := db.AddTable(mixTable, nums); err != nil {
		return nil, err
	}
	if stringLevel {
		if err := db.AddStringColumn(mixTable, "level", nil); err != nil {
			return nil, err
		}
	}
	return core.NewEngine(db, core.WithStyle(vector.Vec512), core.WithParallelism(1)), nil
}

// perLayer is the traced repetition of ingest_query_mix. Queries are traced
// on even cycles and run plain on odd ones (the cycle that precedes a fold is
// always odd), so the two can be compared without one warming the other's
// merged-view cache.
func (e *mixEnv) perLayer(v values) (attempted, failed int, notes []string, err error) {
	ctx := context.Background()
	sc := e.c.sc
	t0 := time.Now()
	for i, pq := range e.prepared {
		if e.prepared[i], err = e.eng.Prepare(pq.Plan(), core.WithCostBasedFormats()); err != nil {
			return 0, 0, nil, err
		}
	}
	v["core.prepare.ms"] = msOf(time.Since(t0))

	strTwin, err := newTwin(true)
	if err != nil {
		return 0, 0, nil, err
	}
	defer strTwin.Close(ctx)
	idTwin, err := newTwin(false)
	if err != nil {
		return 0, 0, nil, err
	}
	defer idTwin.Close(ctx)

	tr := newMemTracer()
	var aggs []sweepAgg
	var ingestT []time.Duration
	var parse, load, appendStr, appendIDs, remorph time.Duration
	var remorphT []time.Duration
	var plainWall, tracedWall, dirtyOverClean, deltaBytesPerRow []float64
	var rows, remorphRows int64
	for cy, doc := range e.batches {
		// ingest: the CSV source drained alone, then the whole Ingest call.
		var batch *ingest.Batch
		t0 := time.Now()
		batch, err = ingest.NewCSV(bytes.NewReader(doc)).Next(sc.batchRows)
		parse += time.Since(t0)
		if err != nil {
			return 0, 0, nil, err
		}
		t0 = time.Now()
		n, err := e.load(doc)
		d := time.Since(t0)
		ingestT = append(ingestT, d)
		load += d
		rows += int64(n)
		attempted++
		if err != nil || n != sc.batchRows {
			failed++
		}

		// dict and delta: the same rows into the twins, as strings and as IDs.
		t0 = time.Now()
		err = strTwin.AppendStrings(ctx, mixTable, batch.Nums, batch.Strs)
		appendStr += time.Since(t0)
		if err != nil {
			return 0, 0, nil, err
		}
		ids := make([]uint64, len(batch.Strs["level"]))
		snap := strTwin.DB().Dict(mixTable, "level").Snap()
		for i, s := range batch.Strs["level"] {
			ids[i], _ = snap.ID(s) // present: the strings were just added
		}
		t0 = time.Now()
		err = idTwin.Append(ctx, mixTable, map[string][]uint64{"ts": batch.Nums["ts"], "bytes": batch.Nums["bytes"], "level": ids})
		appendIDs += time.Since(t0)
		if err != nil {
			return 0, 0, nil, err
		}

		// queries against the dirty delta.
		var wall time.Duration
		if cy%2 == 0 {
			var agg sweepAgg
			for q, pq := range e.prepared {
				res, err := tracedExecute(pq, tr, &agg)
				if err != nil {
					return 0, 0, nil, err
				}
				attempted++
				if !e.verify(q, res, e.want[cy]) {
					failed++
				}
			}
			aggs = append(aggs, agg)
			tracedWall = append(tracedWall, float64(agg.wall))
		} else {
			if wall, err = e.plainQueries(cy, &attempted, &failed); err != nil {
				return 0, 0, nil, err
			}
			plainWall = append(plainWall, float64(wall))
		}
		if (cy+1)%sc.remorphEvery != 0 {
			continue
		}

		// the fold, and the same two queries right after it.
		st := e.eng.Stats()
		deltaBytesPerRow = append(deltaBytesPerRow, ratio(float64(st.DeltaBytes), float64(st.DeltaRows)))
		if cy == len(e.batches)-1 {
			if err := e.replayKept(v, aggs); err != nil {
				return 0, 0, nil, err
			}
		}
		t0 = time.Now()
		err = e.eng.Remorph(ctx, mixTable)
		d = time.Since(t0)
		attempted++
		if err != nil {
			failed++
		}
		remorph += d
		remorphT = append(remorphT, d)
		remorphRows += e.eng.Stats().RemorphRows - st.RemorphRows
		for _, twin := range []*core.Engine{strTwin, idTwin} {
			if err := twin.Remorph(ctx, mixTable); err != nil {
				return 0, 0, nil, err
			}
		}
		clean, err := e.plainQueries(cy, &attempted, &failed)
		if err != nil {
			return 0, 0, nil, err
		}
		dirtyOverClean = append(dirtyOverClean, pct(float64(wall), float64(clean)))
	}

	emitSweeps(v, aggs)
	v["core.execute.trace_overhead_pct"] = pct(median(tracedWall), median(plainWall))
	v["ingest.batch_ms_p50"] = median(sortedMS(ingestT))
	v["ingest.rows_per_s"] = ratio(float64(rows), load.Seconds())
	v["ingest.parse_ns_per_row"] = ratio(float64(parse), float64(rows))
	v["ingest.load_share"] = ratio(float64(parse), float64(load))
	v["dict.translate_ns_per_row"] = ratio(float64(appendStr-appendIDs), float64(rows))
	ds := e.eng.Snapshot().Dict(mixTable, "level")
	v["dict.bytes_per_string"] = ratio(float64(ds.Bytes()), float64(ds.Len()))
	v["delta.append_ns_per_row"] = ratio(float64(appendIDs), float64(rows))
	v["delta.bytes_per_row"] = median(deltaBytesPerRow)
	v["delta.merged_read_overhead_pct"] = median(dirtyOverClean)
	v["delta.remorph_ms_p50"] = median(sortedMS(remorphT))
	v["delta.remorph_ns_per_row"] = ratio(float64(remorph), float64(remorphRows))
	notes = append(notes, fmt.Sprintf("%d cycles, %d folds, queries traced on even cycles", len(e.batches), len(remorphT)))
	return attempted, failed, notes, nil
}

// plainQueries runs the two queries untraced, verified against cycle cy's
// expected answers, and returns their summed wall time.
func (e *mixEnv) plainQueries(cy int, attempted, failed *int) (time.Duration, error) {
	var wall time.Duration
	for q, pq := range e.prepared {
		t0 := time.Now()
		res, err := pq.Execute(context.Background())
		wall += time.Since(t0)
		if err != nil {
			return 0, err
		}
		*attempted++
		if !e.verify(q, res, e.want[cy]) {
			*failed++
		}
	}
	return wall, nil
}

// replayKept keeps both queries' columns at the last dirty state and replays
// them through the format, morph and cost-model layers. The shares are taken
// of the median traced cycle.
func (e *mixEnv) replayKept(v values, aggs []sweepAgg) error {
	la := &layerAgg{par: 1}
	for _, pq := range e.prepared {
		res, err := pq.Execute(context.Background(), core.WithKeep(true))
		if err != nil {
			return err
		}
		for _, k := range keptColumns(pq.Plan(), res) {
			la.replay(pq.Plan(), k, true)
		}
	}
	walls := make([]float64, len(aggs))
	for i := range aggs {
		walls[i] = float64(aggs[i].wall)
	}
	la.emit(v, time.Duration(median(walls)))
	return la.firstErr
}
