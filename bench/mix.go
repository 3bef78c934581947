package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"time"

	"morphstore/internal/core"
	"morphstore/internal/ingest"
	"morphstore/internal/vector"
)

// levelNames are the eight values of the events table's string column.
var levelNames = [8]string{"debug", "info", "notice", "warn", "error", "crit", "alert", "emerg"}

// levelWeights skews the level runs: mostly info/debug, errors around a tenth.
var levelWeights = [8]int{20, 40, 10, 12, 10, 4, 2, 2}

const errorLevel = 4 // index of "error" in levelNames

// events is the harness's own copy of every row it will ever send: the
// set-up rows followed by the rows of each cycle's batch, in order.
type events struct {
	ts, bytes []uint64
	level     []uint8
}

// genEvents draws n rows from seed: ts slowly increasing, level in long runs,
// bytes uniform in [64, 1463].
func genEvents(seed int64, n int) *events {
	rng := rand.New(rand.NewSource(seed))
	ev := &events{ts: make([]uint64, n), bytes: make([]uint64, n), level: make([]uint8, n)}
	ts := uint64(1700000000)
	var lvl uint8
	run := 0
	for i := 0; i < n; i++ {
		if run == 0 {
			run = 200 + rng.Intn(1800)
			w := rng.Intn(100)
			for lvl = 0; w >= levelWeights[lvl]; lvl++ {
				w -= levelWeights[lvl]
			}
		}
		run--
		ts += uint64(rng.Intn(3))
		ev.ts[i], ev.level[i], ev.bytes[i] = ts, lvl, uint64(64+rng.Intn(1400))
	}
	return ev
}

// csv renders rows [lo, hi) as a CSV document with a header row.
func (ev *events) csv(lo, hi int) []byte {
	buf := make([]byte, 0, 16+(hi-lo)*24)
	buf = append(buf, "ts,level,bytes\n"...)
	for i := lo; i < hi; i++ {
		buf = strconv.AppendUint(buf, ev.ts[i], 10)
		buf = append(buf, ',')
		buf = append(buf, levelNames[ev.level[i]]...)
		buf = append(buf, ',')
		buf = strconv.AppendUint(buf, ev.bytes[i], 10)
		buf = append(buf, '\n')
	}
	return buf
}

// answers are the plain-Go reference results over rows [0, n): the error
// byte total of query 1 and the per-level byte sums of query 2.
type answers struct {
	errBytes uint64
	recent   [8]uint64 // per level, rows with ts >= the window's lower bound
}

// refAnswers accumulates the reference answers as rows are acknowledged, so
// the expected result of every cycle is known before the phase starts.
type refAnswers struct {
	ev       *events
	windowLo uint64
	n        int
	cur      answers
}

// advance extends the reference over rows [r.n, n) and returns the answers.
func (r *refAnswers) advance(n int) answers {
	for i := r.n; i < n; i++ {
		if r.ev.level[i] == errorLevel {
			r.cur.errBytes += r.ev.bytes[i]
		}
		if r.ev.ts[i] >= r.windowLo {
			r.cur.recent[r.ev.level[i]] += r.ev.bytes[i]
		}
	}
	r.n = n
	return r.cur
}

// mixEnv is one set-up ingest_query_mix workload.
type mixEnv struct {
	c        *config
	eng      *core.Engine
	prepared []*core.Prepared // query 1, query 2
	batches  [][]byte         // pre-rendered CSV of every cycle
	want     []answers        // expected answers after each cycle's ingest
}

const mixTable = "events"

// errorBytesPlan is query 1: level = "error" -> project bytes -> sum.
func errorBytesPlan() (*core.Plan, error) {
	b := core.NewBuilder()
	pos := b.SelectStrEq("err_pos", b.Scan(mixTable, "level"), "error")
	b.Result(b.SumWhole("total", b.Project("err_bytes", b.Scan(mixTable, "bytes"), pos)))
	return b.Build()
}

// recentByLevelPlan is query 2: ts in the recent window -> project -> group
// by level -> grouped sum of bytes. The window is open-ended upwards, so it
// always covers the whole dirty delta.
func recentByLevelPlan(windowLo uint64) (*core.Plan, error) {
	b := core.NewBuilder()
	pos := b.Between("recent_pos", b.Scan(mixTable, "ts"), windowLo, 1<<62)
	lvl := b.Project("recent_level", b.Scan(mixTable, "level"), pos)
	val := b.Project("recent_bytes", b.Scan(mixTable, "bytes"), pos)
	gids, extents := b.GroupFirst("g", lvl)
	b.Result(b.Project("res_level", lvl, extents))
	b.Result(b.SumGrouped("res_sum", gids, extents, val))
	return b.Build()
}

// load ingests one CSV document into the events table.
func (e *mixEnv) load(doc []byte) (int, error) {
	return ingest.Load(context.Background(), e.eng, mixTable, ingest.NewCSV(bytes.NewReader(doc)))
}

// setupMix generates the rows, ingests the base CSV, remorphs once, prepares
// the two cost-based queries and runs each once, verified. The returned
// duration is that work; rendering the cycle batches and computing their
// expected answers afterwards is the load generator's and not timed.
func setupMix(c *config) (*mixEnv, time.Duration, error) {
	cycles := c.cycles()
	if c.trace {
		cycles = c.sc.traceCycles
	}
	base, batch := c.sc.baseRows, c.sc.batchRows
	start := time.Now()
	ev := genEvents(c.seed, base+cycles*batch)
	windowLo := ev.ts[base*9/10]
	e := &mixEnv{c: c}
	// One worker and no WithRemorph: no background goroutine, so the schedule
	// of folds is exactly the harness's. AutoMorph because the folded main is
	// in whatever format the cost model picked and projects read it randomly.
	e.eng = core.NewEngine(core.NewDB(), core.WithStyle(vector.Vec512), core.WithParallelism(1),
		core.WithSpecialized(true), core.WithAutoMorph(true))
	if n, err := e.load(ev.csv(0, base)); err != nil || n != base {
		return nil, 0, fmt.Errorf("set-up ingest acknowledged %d of %d rows: %v", n, base, err)
	}
	if err := e.eng.Remorph(context.Background(), mixTable); err != nil {
		return nil, 0, err
	}
	p1, err := errorBytesPlan()
	if err != nil {
		return nil, 0, err
	}
	p2, err := recentByLevelPlan(windowLo)
	if err != nil {
		return nil, 0, err
	}
	for _, p := range []*core.Plan{p1, p2} {
		pq, err := e.eng.Prepare(p, core.WithCostBasedFormats())
		if err != nil {
			return nil, 0, err
		}
		e.prepared = append(e.prepared, pq)
	}
	ref := &refAnswers{ev: ev, windowLo: windowLo}
	want := ref.advance(base)
	for q, pq := range e.prepared {
		res, err := pq.Execute(context.Background())
		if err != nil {
			return nil, 0, fmt.Errorf("set-up execution of query %d: %w", q+1, err)
		}
		if !e.verify(q, res, want) {
			return nil, 0, fmt.Errorf("set-up execution of query %d differs from the reference", q+1)
		}
	}
	elapsed := time.Since(start)

	for cy := 0; cy < cycles; cy++ {
		lo := base + cy*batch
		e.batches = append(e.batches, ev.csv(lo, lo+batch))
		e.want = append(e.want, ref.advance(lo+batch))
	}
	return e, elapsed, nil
}

// verify checks one result of query q (0 or 1) against the reference.
func (e *mixEnv) verify(q int, res *core.Result, want answers) bool {
	if q == 0 {
		total, ok := res.Cols["total"].Values()
		return ok && len(total) == 1 && total[0] == want.errBytes
	}
	ids, ok1 := res.Cols["res_level"].Values()
	sums, ok2 := res.Cols["res_sum"].Values()
	if !ok1 || !ok2 || len(ids) != len(sums) {
		return false
	}
	ds := e.eng.Snapshot().Dict(mixTable, "level")
	var got [8]uint64
	for i, id := range ids {
		s, ok := ds.String(id)
		lvl := -1
		for k, name := range levelNames {
			if ok && name == s {
				lvl = k
			}
		}
		if lvl < 0 || got[lvl] != 0 {
			return false
		}
		got[lvl] = sums[i]
	}
	return got == want.recent
}

func (e *mixEnv) close() { _ = e.eng.Close(context.Background()) } // nothing in flight: Close cannot fail

// runMix runs ingest_query_mix: the end-to-end phase, or the traced
// repetition when c.trace is set.
func runMix(c *config, v values) (attempted, failed int, notes []string, err error) {
	env, setupS, err := repeatSetup(c.setups(),
		func() (*mixEnv, time.Duration, error) { return setupMix(c) }, (*mixEnv).close)
	if err != nil {
		return 0, 0, nil, err
	}
	defer env.close()
	if c.trace {
		return env.perLayer(v)
	}
	v["setup_s"] = setupS

	ctx := context.Background()
	cycles := len(env.batches)
	lat := make([]time.Duration, 0, 2*cycles)
	var busy time.Duration
	var phys, logical int64
	var before, after, fp0, fp1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for cy := 0; cy < cycles; cy++ {
		t0 := time.Now()
		n, err := env.load(env.batches[cy])
		busy += time.Since(t0)
		attempted++
		if err != nil || n != c.sc.batchRows {
			failed++
		}
		for q, pq := range env.prepared {
			t0 = time.Now()
			res, err := pq.Execute(ctx)
			d := time.Since(t0)
			lat = append(lat, d)
			busy += d
			attempted++
			if err == nil && c.tamper != nil {
				c.tamper(res)
			}
			if err != nil || !env.verify(q, res, env.want[cy]) {
				failed++
			}
		}
		if (cy+1)%c.sc.remorphEvery != 0 {
			continue
		}
		if cy == cycles-1 {
			// The last dirty state before the final fold: base columns incl.
			// delta plus every intermediate, outside the timed calls.
			runtime.ReadMemStats(&fp0)
			if phys, logical, err = footprint(env.prepared); err != nil {
				return 0, 0, nil, err
			}
			runtime.ReadMemStats(&fp1)
		}
		t0 = time.Now()
		err = env.eng.Remorph(ctx, mixTable)
		busy += time.Since(t0)
		attempted++
		if err != nil {
			failed++
		}
	}
	runtime.ReadMemStats(&after)

	// Executions over the time inside every engine call of the phase — ingest
	// and remorph included — so write-side cost lowers this closed-loop rate.
	v["queries_per_s"] = float64(len(lat)) / busy.Seconds()
	notes = latencyMetrics(v, lat, fmt.Sprintf("%d cycles of 2 queries, %d folds", cycles, cycles/c.sc.remorphEvery))
	alloc := (after.TotalAlloc - before.TotalAlloc) - (fp1.TotalAlloc - fp0.TotalAlloc)
	v["alloc_mib_per_query"] = mib(int64(alloc)) / float64(len(lat))
	v["footprint_mib"] = mib(phys)
	v["footprint_ratio"] = float64(phys) / float64(logical)
	return attempted, failed, notes, nil
}
