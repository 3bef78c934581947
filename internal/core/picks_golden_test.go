package core_test

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"morphstore/internal/columns"
	"morphstore/internal/core"
	"morphstore/internal/ssb"
	"morphstore/internal/stats"
)

var updatePicks = flag.Bool("update-picks", false, "rewrite testdata/costbased_picks.golden")

// TestCostBasedPicksGolden pins every format the cost-based assignment picks
// for the 13 SSB plans at SF 0.01, seeds 1 and 2 — base columns and
// intermediates — against a checked-in table, on both kernel paths of the
// profile. A change to how profiles are gathered (or cached) must not move a
// single pick.
func TestCostBasedPicksGolden(t *testing.T) {
	eachKernelPath(func(path string) {
		t.Run(path, func(t *testing.T) { checkPicksGolden(t) })
	})
}

// checkPicksGolden picks the formats of the 13 SSB plans over freshly
// generated data, whose base columns carry no profile yet, and compares them
// with the golden table (or rewrites it under -update-picks).
func checkPicksGolden(t *testing.T) {
	var b strings.Builder
	for _, seed := range []int64{1, 2} {
		data, err := ssb.Generate(0.01, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range ssb.Queries {
			p, err := ssb.BuildPlan(q, data.Dicts)
			if err != nil {
				t.Fatalf("Q%s: %v", q, err)
			}
			a, err := core.CostBasedAssignment(p, data.DB)
			if err != nil {
				t.Fatalf("Q%s: %v", q, err)
			}
			write := func(kind string, m map[string]columns.FormatDesc) {
				names := make([]string, 0, len(m))
				for n := range m {
					names = append(names, n)
				}
				sort.Strings(names)
				for _, n := range names {
					fmt.Fprintf(&b, "seed=%d Q%s %s %s %v/%d\n", seed, q, kind, n, m[n].Kind, m[n].Bits)
				}
			}
			write("base", a.Base)
			write("inter", a.Inter)
		}
	}
	path := filepath.Join("testdata", "costbased_picks.golden")
	if *updatePicks {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wl, gl := strings.Split(string(want), "\n"), strings.Split(b.String(), "\n")
	if len(wl) != len(gl) {
		t.Errorf("%d pick lines, golden has %d", len(gl), len(wl))
	}
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			t.Fatalf("first differing pick (line %d):\n got  %s\n want %s", i+1, gl[i], wl[i])
		}
	}
}

// TestProfilingRunMatchesCollect checks the profiling run behind
// CostBasedAssignment against the keep run it replaced: for the 13 SSB plans
// at SF 0.01, seeds 1 and 2, the profile of every column, taken as its
// operator produced it, equals stats.Collect over the column a WithKeep(true)
// execution keeps. The test binary poisons released buffers,
// so a profile taken after its column's release would differ.
func TestProfilingRunMatchesCollect(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		data, err := ssb.Generate(0.01, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range ssb.Queries {
			p, err := ssb.BuildPlan(q, data.Dicts)
			if err != nil {
				t.Fatalf("Q%s: %v", q, err)
			}
			profs, err := core.ProfiledColumns(p, data.DB)
			if err != nil {
				t.Fatalf("seed %d Q%s: %v", seed, q, err)
			}
			pr, err := core.NewEngine(data.DB).Prepare(p, core.WithKeep(true))
			if err != nil {
				t.Fatalf("seed %d Q%s: %v", seed, q, err)
			}
			kept, err := pr.Execute(context.Background())
			if err != nil {
				t.Fatalf("seed %d Q%s: %v", seed, q, err)
			}
			if len(profs) != len(kept.Inter) {
				t.Errorf("seed %d Q%s: %d profiles for %d columns", seed, q, len(profs), len(kept.Inter))
			}
			for name, col := range kept.Inter {
				vals, ok := col.Values()
				if !ok {
					t.Fatalf("seed %d Q%s: kept column %q is compressed", seed, q, name)
				}
				if got, want := profs[name], stats.Collect(vals); got == nil || *got != *want {
					t.Errorf("seed %d Q%s %s: profiling run %+v, Collect %+v", seed, q, name, *got, *want)
				}
			}
		}
	}
}
