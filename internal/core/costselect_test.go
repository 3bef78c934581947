package core

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"morphstore/internal/bitutil"
	"morphstore/internal/columns"
	"morphstore/internal/stats"
)

// profileDB holds table r with a sorted column x of wide values (small
// gaps: DELTA+BP territory) and a random payload y.
func profileDB(t *testing.T, n int) *DB {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	x, y := make([]uint64, n), make([]uint64, n)
	for i := range x {
		x[i] = uint64(i) * 37
		y[i] = uint64(rng.Intn(1000))
	}
	db := NewDB()
	if err := db.AddTable("r", map[string][]uint64{"x": x, "y": y}); err != nil {
		t.Fatal(err)
	}
	return db
}

// profilePlan sums y over the rows with x below lim.
func profilePlan(t *testing.T, lim uint64) *Plan {
	t.Helper()
	b := NewBuilder()
	xp := b.Select("x_sel", b.Scan("r", "x"), bitutil.CmpLt, lim)
	b.Result(b.SumWhole("total", b.Project("y_proj", b.Scan("r", "y"), xp)))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestBaseProfileReplacedColumn: replacing a column in Table.Cols with an
// unsorted permutation of the same values profiles the new column, which
// gets its own profile, and changes the pick.
func TestBaseProfileReplacedColumn(t *testing.T) {
	db := profileDB(t, 20000)
	p := profilePlan(t, 1<<62)
	a, err := CostBasedAssignment(p, db)
	if err != nil {
		t.Fatal(err)
	}
	if d := a.Base["r.x"]; d.Kind != columns.DeltaBP {
		t.Fatalf("sorted r.x picked %v, want delta_bp", d)
	}
	tab := db.Tables["r"]
	sorted := tab.Cols["x"].Profile()
	if sorted == nil {
		t.Fatal("the pick stored no profile on r.x")
	}
	vals, _ := tab.Cols["x"].Values()
	shuffled := append([]uint64(nil), vals...)
	rand.New(rand.NewSource(5)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	tab.Cols["x"] = columns.FromValues(shuffled)
	if a, err = CostBasedAssignment(p, db); err != nil {
		t.Fatal(err)
	}
	if d := a.Base["r.x"]; d.Kind != columns.StaticBP {
		t.Fatalf("shuffled r.x picked %v, want static_bp", d)
	}
	if prof := tab.Cols["x"].Profile(); prof == nil || prof == sorted || prof.Sorted {
		t.Fatalf("the new column does not carry its own profile: %+v", prof)
	}
	for cn, col := range tab.Cols {
		if col.Profile() == nil {
			t.Fatalf("r.%s carries no profile", cn)
		}
	}
}

// TestBaseProfileEncodedColumn: a column DB.Encode compressed starts without
// a profile and profiles equal, field for field, to its uncompressed
// original.
func TestBaseProfileEncodedColumn(t *testing.T) {
	db := profileDB(t, 5000)
	p := profilePlan(t, 1<<62)
	if _, err := CostBasedAssignment(p, db); err != nil {
		t.Fatal(err)
	}
	enc, err := db.Encode(map[string]columns.FormatDesc{"r.x": columns.DeltaBPDesc, "r.y": columns.DynBPDesc})
	if err != nil {
		t.Fatal(err)
	}
	for _, cn := range []string{"x", "y"} {
		col := enc.Tables["r"].Cols[cn]
		if _, ok := col.Values(); ok {
			t.Fatalf("r.%s is not compressed", cn)
		}
		if col.Profile() != nil {
			t.Fatalf("encoded r.%s starts with a profile", cn)
		}
		want, err := profileOf(db.Tables["r"].Cols[cn])
		if err != nil {
			t.Fatal(err)
		}
		got, err := profileOf(col)
		if err != nil {
			t.Fatal(err)
		}
		if *got != *want {
			t.Errorf("r.%s: compressed profile %+v, want %+v", cn, *got, *want)
		}
	}
}

// TestBaseProfileConcurrent: eight goroutines run the cost-based pick on one
// cold database, half through CostBasedAssignment and half through a
// cost-based Prepare on one engine; every assignment equals a sequential one,
// and every scanned column ends up carrying the profile a sequential
// profileOf takes. Eight concurrent first profileOf calls on one fresh
// column all return the one stored profile.
func TestBaseProfileConcurrent(t *testing.T) {
	p := profilePlan(t, 20000*37/2)
	want, err := CostBasedAssignment(p, profileDB(t, 20000))
	if err != nil {
		t.Fatal(err)
	}
	db := profileDB(t, 20000)
	e := NewEngine(db)
	defer e.Close(context.Background())
	var wg sync.WaitGroup
	errs := make([]error, 8)
	got := make([]map[string]columns.FormatDesc, 8)
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				a, err := CostBasedAssignment(p, db)
				if err == nil && !reflect.DeepEqual(a, want) {
					t.Errorf("goroutine %d: assignment %+v, want %+v", g, a, want)
				}
				errs[g] = err
				return
			}
			pr, err := e.Prepare(p, WithCostBasedFormats())
			if err == nil {
				got[g] = pr.Formats()
			}
			errs[g] = err
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
		if got[g] != nil && !reflect.DeepEqual(got[g], want.Inter) {
			t.Errorf("goroutine %d: prepared formats %v, want %v", g, got[g], want.Inter)
		}
	}
	fresh := profileDB(t, 20000).Tables["r"].Cols
	for cn, col := range db.Tables["r"].Cols {
		wantProf, err := profileOf(fresh[cn])
		if err != nil {
			t.Fatal(err)
		}
		if prof := col.Profile(); prof == nil || *prof != *wantProf {
			t.Errorf("r.%s carries profile %+v, want %+v", cn, prof, wantProf)
		}
	}
	col := profileDB(t, 20000).Tables["r"].Cols["x"]
	profs := make([]*stats.Profile, 8)
	for g := range profs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			profs[g], errs[g] = profileOf(col)
		}(g)
	}
	wg.Wait()
	for g, prof := range profs {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if prof == nil || prof != col.Profile() {
			t.Errorf("goroutine %d: profileOf returned %p, the column stores %p", g, prof, col.Profile())
		}
	}
}

// TestBaseProfileAfterRemorph: Engine.Remorph swaps the table's main inside
// the engine's delta store and leaves Table.Cols and its profiles alone.
// After the swap, Prepare picks what a cold memo picks, and its execution
// reads the new main (the appended rows count in the sum).
func TestBaseProfileAfterRemorph(t *testing.T) {
	const n = 8000
	db := profileDB(t, n)
	p := profilePlan(t, 1<<62)
	e := NewEngine(db)
	defer e.Close(context.Background())
	before, err := e.Prepare(p, WithCostBasedFormats())
	if err != nil {
		t.Fatal(err)
	}
	tab := db.Tables["r"]
	col, prof := tab.Cols["x"], tab.Cols["x"].Profile()
	if prof == nil {
		t.Fatal("the cost-based Prepare stored no profile on r.x")
	}
	ctx := context.Background()
	if err := e.Append(ctx, "r", map[string][]uint64{"x": {5, 1 << 40, 3}, "y": {10, 20, 30}}); err != nil {
		t.Fatal(err)
	}
	if err := e.Remorph(ctx, "r"); err != nil {
		t.Fatal(err)
	}
	after, err := e.Prepare(p, WithCostBasedFormats())
	if err != nil {
		t.Fatal(err)
	}
	if tab.Cols["x"] != col || col.Profile() != prof {
		t.Fatal("remorph replaced the DB column or its profile")
	}
	cold, err := CostBasedAssignment(p, profileDB(t, n))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after.Formats(), cold.Inter) || !reflect.DeepEqual(after.Formats(), before.Formats()) {
		t.Fatalf("post-remorph formats %v, cold pick %v, before %v", after.Formats(), cold.Inter, before.Formats())
	}
	res, err := after.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	yv, _ := tab.Cols["y"].Values()
	want := uint64(10 + 20 + 30)
	for _, v := range yv {
		want += v
	}
	if got, _ := res.Cols["total"].Values(); len(got) != 1 || got[0] != want {
		t.Fatalf("post-remorph sum %v, want [%d]", got, want)
	}
}

// TestCostBasedPickReadsSnapshot: a cost-based Prepare profiles a writable
// table as an execution would read it, not as it was registered. The table
// is created empty and filled through Append, remorphed and appended to
// again; Prepare binds the formats CostBasedAssignment picks over a
// read-only database holding the same live rows. Right after the remorph the
// pick reuses the profiles remorph stored on the new mains instead of
// profiling them again.
func TestCostBasedPickReadsSnapshot(t *testing.T) {
	const n = 12000
	live := profileDB(t, n+3000)
	lx, _ := live.Tables["r"].Cols["x"].Values()
	ly, _ := live.Tables["r"].Cols["y"].Values()
	db := NewDB()
	if err := db.AddTable("r", map[string][]uint64{"x": {}, "y": {}}); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(db)
	defer e.Close(context.Background())
	ctx := context.Background()
	appendRows := func(lo, hi int) {
		t.Helper()
		if err := e.Append(ctx, "r", map[string][]uint64{"x": lx[lo:hi], "y": ly[lo:hi]}); err != nil {
			t.Fatal(err)
		}
	}
	for lo := 0; lo < n; lo += 4000 {
		appendRows(lo, lo+4000)
	}
	if err := e.Remorph(ctx, "r"); err != nil {
		t.Fatal(err)
	}
	view, err := e.pickDB()
	if err != nil {
		t.Fatal(err)
	}
	for _, cn := range []string{"x", "y"} {
		want := e.wtabs["r"].dt.State().Main(cn).Profile()
		if want == nil {
			t.Fatalf("r.%s: remorph stored no profile on the new main", cn)
		}
		prof, err := profileOf(view.Tables["r"].Cols[cn])
		if err != nil {
			t.Fatal(err)
		}
		if prof != want {
			t.Errorf("r.%s: the pick profiled the remorphed main again instead of reusing remorph's profile", cn)
		}
	}
	appendRows(n, n+3000)
	p := profilePlan(t, uint64(n)*37/2)
	pr, err := e.Prepare(p, WithCostBasedFormats())
	if err != nil {
		t.Fatal(err)
	}
	want, err := CostBasedAssignment(p, live)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pr.Formats(), want.Inter) {
		t.Fatalf("prepared formats %v, want %v (the pick over the live rows)", pr.Formats(), want.Inter)
	}
	if d := pr.Formats()["x_sel"]; d.Kind == columns.Uncompressed {
		t.Fatalf("x_sel picked %v: the pick profiled no rows", d)
	}
}
