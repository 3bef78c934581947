package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"morphstore/internal/bitutil"
	"morphstore/internal/columns"
	"morphstore/internal/costmodel"
	"morphstore/internal/delta"
	"morphstore/internal/faultpoint"
	"morphstore/internal/formats"
	"morphstore/internal/metrics"
	"morphstore/internal/stats"
)

// foldTracer keeps the End stats of every remorph span.
type foldTracer struct {
	mu   sync.Mutex
	ends []metrics.NodeStats
}

func (f *foldTracer) Begin(metrics.Span, time.Time)                {}
func (f *foldTracer) Event(metrics.Span, time.Time, metrics.Event) {}
func (f *foldTracer) End(s metrics.Span, _ time.Time, ns metrics.NodeStats) {
	if s.Op == "remorph" {
		f.mu.Lock()
		f.ends = append(f.ends, ns)
		f.mu.Unlock()
	}
}

func (f *foldTracer) last() metrics.NodeStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ends[len(f.ends)-1]
}

// rebuildRef is what a full rebuild makes of one column's live values: the
// cost model's pick over the paper's formats from a fresh profile, then one
// Compress.
func rebuildRef(t *testing.T, vals []uint64) (*columns.Column, *stats.Profile) {
	t.Helper()
	prof := stats.Collect(vals)
	desc := columns.UncomprDesc
	if len(vals) > 0 {
		d, err := costmodel.ChooseBySize(prof, formats.PaperDescs())
		if err != nil {
			t.Fatal(err)
		}
		desc = d
	}
	col, err := formats.Compress(slices.Clone(vals), desc)
	if err != nil {
		t.Fatal(err)
	}
	return col, prof
}

// stateValues decodes the merged view of column cn at state st: its live
// values in row order.
func stateValues(t *testing.T, st *delta.State, cn string) []uint64 {
	t.Helper()
	col, err := st.Column(cn)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := formats.Decompress(col)
	if err != nil {
		t.Fatal(err)
	}
	return vals
}

// foldAndCheck folds table tab, pinned at its current state, and checks every
// column's new main against a full rebuild of the state's live values:
// equal Desc, N and words, and a stored profile equal to the one Collect
// takes of those values. The new main must be the pinned state's merged
// column exactly when the pick keeps the main's kind. The columns named in
// extended must take their profile from the main's, extended by the tail;
// every other column's profile is collected from the live rows. The remorph
// span must report the values the fold read (the tail when the profile is
// extended, the live rows otherwise) and the rows of the new mains. With
// read set, a snapshot reads every merged column before the fold, as a query
// would.
func foldAndCheck(t *testing.T, e *Engine, tr *foldTracer, tab string, read bool, extended ...string) {
	t.Helper()
	wt := e.wtabs[tab]
	s0 := wt.dt.State()
	if read {
		snap := e.Snapshot()
		for _, cn := range wt.dt.Columns() {
			if _, err := snap.columnOr(nil, tab, cn); err != nil {
				t.Fatal(err)
			}
		}
	}
	live := make(map[string][]uint64)
	for _, cn := range wt.dt.Columns() {
		live[cn] = stateValues(t, s0, cn)
	}
	if err := e.Remorph(context.Background(), tab); err != nil {
		t.Fatal(err)
	}
	s1 := wt.dt.State()
	var wantIn, wantOut int64
	for _, cn := range wt.dt.Columns() {
		want, wantProf := rebuildRef(t, live[cn])
		got := s1.Main(cn)
		if got.Desc() != want.Desc() || got.N() != want.N() || !slices.Equal(got.Words(), want.Words()) {
			t.Fatalf("%s.%s: new main %v (%d rows, %d words), full rebuild %v (%d rows, %d words)",
				tab, cn, got.Desc(), got.N(), len(got.Words()), want.Desc(), want.N(), len(want.Words()))
		}
		if prof := got.Profile(); prof == nil || *prof != *wantProf {
			t.Fatalf("%s.%s: the new main does not carry Collect's profile", tab, cn)
		}
		merged, err := s0.Column(cn)
		if err != nil {
			t.Fatal(err)
		}
		if kept := want.Desc().Kind == s0.Main(cn).Desc().Kind; kept != (got == merged) {
			t.Fatalf("%s.%s (%v): new main is the pinned merged column: %v, want %v",
				tab, cn, got.Desc(), got == merged, kept)
		}
		if slices.Contains(extended, cn) {
			wantIn += int64(s0.TailRows())
		} else {
			wantIn += int64(s0.Rows())
		}
		wantOut += int64(got.N())
	}
	if ns := tr.last(); ns.InValues != wantIn || ns.OutValues != wantOut || !ns.Done {
		t.Fatalf("%s: remorph span in=%d out=%d done=%v, want in=%d out=%d done=true",
			tab, ns.InValues, ns.OutValues, ns.Done, wantIn, wantOut)
	}
}

// foldEngine returns an engine with a tracer over one table "t" whose
// column "v" holds base, and makes the table writable by a first fold of a
// one-row delta: that fold has no profile to extend and collects one, so
// the main the later folds extend is the pick over base.
func foldEngine(t *testing.T, base []uint64) (*Engine, *foldTracer) {
	t.Helper()
	db := NewDB()
	if err := db.AddTable("t", map[string][]uint64{"v": base[:len(base)-1]}); err != nil {
		t.Fatal(err)
	}
	tr := &foldTracer{}
	e := NewEngine(db, WithTracer(tr))
	t.Cleanup(func() { e.Close(context.Background()) })
	if err := e.Append(context.Background(), "t", map[string][]uint64{"v": base[len(base)-1:]}); err != nil {
		t.Fatal(err)
	}
	foldAndCheck(t, e, tr, "t", false)
	return e, tr
}

// preparedEngine returns an engine with a tracer over one table "t" whose
// registered column "v" is base compressed as a full rebuild would compress
// it, after a cost-based Prepare of a plan scanning it: the pick stores the
// column's profile on it, so the first fold has a profile to extend.
func preparedEngine(t *testing.T, base []uint64) (*Engine, *foldTracer) {
	t.Helper()
	col, _ := rebuildRef(t, base)
	db := NewDB()
	db.Tables["t"] = &Table{Name: "t", Cols: map[string]*columns.Column{"v": col}}
	tr := &foldTracer{}
	e := NewEngine(db, WithTracer(tr))
	t.Cleanup(func() { e.Close(context.Background()) })
	b := NewBuilder()
	b.Result(b.SumWhole("sum", b.Scan("t", "v")))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Prepare(p, WithCostBasedFormats()); err != nil {
		t.Fatal(err)
	}
	if col.Profile() == nil {
		t.Fatal("the cost-based Prepare stored no profile on t.v")
	}
	return e, tr
}

func appendV(t *testing.T, e *Engine, vals []uint64) {
	t.Helper()
	if err := e.Append(context.Background(), "t", map[string][]uint64{"v": vals}); err != nil {
		t.Fatal(err)
	}
}

// TestFoldAppendEquivalence folds delete-free deltas into mains the pick
// keeps as uncompressed, static BP, DynBP, DeltaBP and ForBP, at main and
// tail lengths aligned and misaligned to 64 and to formats.BlockLen, and
// checks every fold against a full rebuild: the appended main is the same
// column, byte for byte, with the same profile. A table whose registered
// column a cost-based Prepare profiled appends from its first fold on.
func TestFoldAppendEquivalence(t *testing.T) {
	const bl = formats.BlockLen
	type gen func(rng *rand.Rand, prev uint64) uint64
	for _, tc := range []struct {
		kind columns.Kind
		next gen
	}{
		{columns.Uncompressed, func(rng *rand.Rand, prev uint64) uint64 {
			if prev>>63 == 0 { // alternate 0 with full-width values: no format saves a bit
				return rng.Uint64() | 1<<63
			}
			return 0
		}},
		{columns.StaticBP, func(rng *rand.Rand, _ uint64) uint64 { return uint64(rng.Intn(1 << 13)) }},
		{columns.DynBP, func(rng *rand.Rand, _ uint64) uint64 {
			if rng.Intn(2*bl) == 0 {
				return 1 << 40 // a rare outlier widens one block, not the column
			}
			return uint64(rng.Intn(16))
		}},
		{columns.DeltaBP, func(rng *rand.Rand, prev uint64) uint64 { return prev + uint64(rng.Intn(8)) }},
		{columns.ForBP, func(rng *rand.Rand, _ uint64) uint64 { return 1<<40 + uint64(rng.Intn(256)) }},
	} {
		for _, mainN := range []int{8 * bl, 8*bl + 37} {
			for _, setup := range []struct {
				name   string
				engine func(*testing.T, []uint64) (*Engine, *foldTracer)
			}{{"", foldEngine}, {"/prepared", preparedEngine}} {
				t.Run(fmt.Sprintf("%v/main=%d%s", tc.kind, mainN, setup.name), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(38 + mainN)))
					prev := uint64(1 << 20)
					vals := func(n int) []uint64 {
						out := make([]uint64, n)
						for i := range out {
							prev = tc.next(rng, prev)
							out[i] = prev
						}
						return out
					}
					e, tr := setup.engine(t, vals(mainN))
					for i, tailN := range []int{64, bl, 100, bl + 5, 1} {
						appendV(t, e, vals(tailN))
						if k := e.wtabs["t"].dt.State().Main("v").Desc().Kind; i == 0 && k != tc.kind {
							t.Fatalf("the pick made the main %v, want %v", k, tc.kind)
						}
						foldAndCheck(t, e, tr, "t", i%2 == 0, "v")
					}
				})
			}
		}
	}
}

// TestFoldFallbackEquivalence covers the folds that collect their profile
// from the live rows or morph the merged column: each must still produce a
// full rebuild's main.
func TestFoldFallbackEquivalence(t *testing.T) {
	ctx := context.Background()
	seqFrom := func(lo uint64, n int, width int) []uint64 {
		rng := rand.New(rand.NewSource(int64(n)))
		out := make([]uint64, n)
		for i := range out {
			out[i] = lo + uint64(rng.Intn(1<<width))
		}
		return out
	}
	t.Run("static BP tail widens the main", func(t *testing.T) {
		// The merged column repacks the main at the tail's width: still the
		// one-pass static BP column, so the fold appends.
		e, tr := foldEngine(t, seqFrom(0, 5000, 13))
		appendV(t, e, seqFrom(0, 300, 17))
		foldAndCheck(t, e, tr, "t", true, "v")
	})
	t.Run("tail below the main's minimum", func(t *testing.T) {
		// The format stays ForBP, so only the minimum stops the append.
		e, tr := foldEngine(t, seqFrom(1<<40, 5000, 8))
		appendV(t, e, append(seqFrom(1<<40, 200, 8), 1<<40-1))
		foldAndCheck(t, e, tr, "t", true)
		if k := e.wtabs["t"].dt.State().Main("v").Desc().Kind; k != columns.ForBP {
			t.Fatalf("the fold made the main %v, want %v", k, columns.ForBP)
		}
	})
	t.Run("pick changes format", func(t *testing.T) {
		// 0 alternating with full-width values keeps a small main
		// uncompressed; a long narrow tail makes the wide values rare enough
		// for DynBP to be the smaller format of the whole column.
		wide := make([]uint64, 1000)
		for i := 1; i < len(wide); i += 2 {
			wide[i] = math.MaxUint64
		}
		e, tr := foldEngine(t, wide)
		mainKind := func() columns.Kind { return e.wtabs["t"].dt.State().Main("v").Desc().Kind }
		if k := mainKind(); k != columns.Uncompressed {
			t.Fatalf("the main is %v, want %v", k, columns.Uncompressed)
		}
		// The fold extends the main's profile by the tail and morphs the
		// merged column.
		appendV(t, e, seqFrom(0, 1<<18, 4))
		foldAndCheck(t, e, tr, "t", true, "v")
		if k := mainKind(); k != columns.DynBP {
			t.Fatalf("the fold made the main %v, want %v", k, columns.DynBP)
		}
	})
	t.Run("state with deletions", func(t *testing.T) {
		e, tr := foldEngine(t, seqFrom(0, 5000, 13))
		appendV(t, e, seqFrom(0, 300, 13))
		if err := e.Delete(ctx, "t", []uint64{7, 5100}); err != nil {
			t.Fatal(err)
		}
		foldAndCheck(t, e, tr, "t", true)
		// The next delete-free fold extends the profile the first one collected.
		appendV(t, e, seqFrom(0, 300, 13))
		foldAndCheck(t, e, tr, "t", false, "v")
	})
	t.Run("unsorted string column appends", func(t *testing.T) {
		db := NewDB()
		if err := db.AddTable("t", map[string][]uint64{"n": seqFrom(0, 3000, 10)}); err != nil {
			t.Fatal(err)
		}
		names := make([]string, 3000)
		for i := range names {
			names[i] = fmt.Sprintf("s%04d", i%97)
		}
		if err := db.AddStringColumn("t", "s", names); err != nil {
			t.Fatal(err)
		}
		tr := &foldTracer{}
		e := NewEngine(db, WithTracer(tr))
		defer e.Close(ctx)
		add := func(rows int, str string) {
			t.Helper()
			strs := make([]string, rows)
			for i := range strs {
				strs[i] = str
			}
			if err := e.AppendStrings(ctx, "t", map[string][]uint64{"n": seqFrom(0, rows, 10)},
				map[string][]string{"s": strs}); err != nil {
				t.Fatal(err)
			}
		}
		add(10, "s0000")
		foldAndCheck(t, e, tr, "t", false) // first fold: no profile yet
		// A string that sorts before every other keeps its first-occurrence
		// ID: the fold renumbers nothing, and both columns append.
		add(200, "a-new-first-string")
		foldAndCheck(t, e, tr, "t", true, "n", "s")
		add(200, "s0001")
		foldAndCheck(t, e, tr, "t", false, "n", "s")
	})
	t.Run("delta-merge fault fails the fold", func(t *testing.T) {
		defer faultpoint.DisarmAll()
		e, _ := foldEngine(t, seqFrom(0, 5000, 13))
		appendV(t, e, seqFrom(0, 300, 13))
		s0 := e.wtabs["t"].dt.State()
		injected := errors.New("injected merge fault")
		faultpoint.DeltaMerge.Arm(func() error { return injected })
		if err := e.Remorph(ctx, "t"); !errors.Is(err, injected) {
			t.Fatalf("remorph with a failing merge: err = %v, want the injected fault", err)
		}
		if s := e.wtabs["t"].dt.State(); s != s0 {
			t.Fatalf("a failed fold replaced the state: epoch %d -> %d", s0.Epoch(), s.Epoch())
		}
	})
}

// TestFoldAllocation pins what a delete-free fold allocates once a query has
// read the table: a 1 Mi-row static BP + DeltaBP table with a 4,096-row tail
// folds in at most 0.05× the live rows' bytes, because the new mains are the
// merged columns the query built. Decoding the live rows alone is 1×.
func TestFoldAllocation(t *testing.T) {
	const n, tailRows = 1 << 20, 4096
	rng := rand.New(rand.NewSource(38))
	vals := func(n int, ts uint64) (sbp, dbp []uint64) {
		sbp, dbp = make([]uint64, n), make([]uint64, n)
		for i := range sbp {
			sbp[i] = uint64(rng.Intn(1 << 13))
			ts += uint64(rng.Intn(8))
			dbp[i] = ts
		}
		return sbp, dbp
	}
	sbp, dbp := vals(n, 0)
	db := NewDB()
	if err := db.AddTable("t", map[string][]uint64{"v": sbp, "ts": dbp}); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(db)
	defer e.Close(context.Background())
	ctx := context.Background()
	appendBoth := func(ts uint64) {
		t.Helper()
		s, d := vals(tailRows, ts)
		if err := e.Append(ctx, "t", map[string][]uint64{"v": s, "ts": d}); err != nil {
			t.Fatal(err)
		}
	}
	// The first fold collects the profiles the next one extends.
	appendBoth(dbp[n-1])
	if err := e.Remorph(ctx, "t"); err != nil {
		t.Fatal(err)
	}
	st := e.wtabs["t"].dt.State()
	for cn, want := range map[string]columns.Kind{"v": columns.StaticBP, "ts": columns.DeltaBP} {
		if k := st.Main(cn).Desc().Kind; k != want {
			t.Fatalf("main %q is %v, want %v", cn, k, want)
		}
	}
	last, err := formats.Decompress(st.Main("ts"))
	if err != nil {
		t.Fatal(err)
	}
	appendBoth(last[len(last)-1])

	b := NewBuilder()
	v, ts := b.Scan("t", "v"), b.Scan("t", "ts")
	pos := b.Select("pos", v, bitutil.CmpLt, 1<<12)
	b.Result(b.SumWhole("sum", b.Project("p", ts, pos)))
	plan, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pr, err := e.Prepare(plan)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pr.Execute(ctx); err != nil {
		t.Fatal(err)
	}

	live := uint64(8 * e.wtabs["t"].dt.State().Rows())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = e.Remorph(ctx, "t")
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("the fold allocated %d B for %d B of live values per column (%.4f×)", got, live, float64(got)/float64(live))
	if float64(got) > 0.05*float64(live) {
		t.Fatalf("the fold allocated %d B, more than 0.05× the %d B of live values", got, live)
	}
}
