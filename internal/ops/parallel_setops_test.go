package ops

import (
	"math/rand"
	"testing"

	"morphstore/internal/columns"
	"morphstore/internal/formats"
)

// sortedTestLists builds two sorted position-list-like inputs with partial
// overlap: a touches every 2nd position, b every 3rd, with a random jitter
// region so runs of misses alternate with dense matches.
func sortedTestLists(n int, seed int64) (a, b []uint64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		if i%2 == 0 || rng.Intn(17) == 0 {
			a = append(a, uint64(i))
		}
		if i%3 == 0 || rng.Intn(13) == 0 {
			b = append(b, uint64(i))
		}
	}
	return a, b
}

// TestParallelSetOpsEquivalence is the cross-product equivalence check for
// the sorted-set operators: every input format pair x output format x
// parallelism degree must reproduce the sequential intersection/union byte
// for byte.
func TestParallelSetOpsEquivalence(t *testing.T) {
	aVals, bVals := sortedTestLists(3*parTestN, 31)
	for _, aDesc := range formats.AllDescs() {
		ac, err := formats.Compress(aVals, aDesc)
		if err != nil {
			t.Fatal(err)
		}
		for _, bDesc := range []columns.FormatDesc{columns.UncomprDesc, columns.DeltaBPDesc, columns.RLEDesc} {
			bc, err := formats.Compress(bVals, bDesc)
			if err != nil {
				t.Fatal(err)
			}
			for _, outDesc := range formats.AllDescs() {
				ctx := aDesc.String() + "x" + bDesc.String() + "->" + outDesc.String()
				wantI, err := FixedRT(1).Intersect(ac, bc, outDesc)
				if err != nil {
					t.Fatalf("intersect %s: %v", ctx, err)
				}
				wantM, err := FixedRT(1).Merge(ac, bc, outDesc)
				if err != nil {
					t.Fatalf("merge %s: %v", ctx, err)
				}
				for _, par := range parLevels {
					gotI, err := FixedRT(par).Intersect(ac, bc, outDesc)
					if err != nil {
						t.Fatalf("par intersect %s p=%d: %v", ctx, par, err)
					}
					assertSameColumn(t, "intersect "+ctx, wantI, gotI)
					gotM, err := FixedRT(par).Merge(ac, bc, outDesc)
					if err != nil {
						t.Fatalf("par merge %s p=%d: %v", ctx, par, err)
					}
					assertSameColumn(t, "merge "+ctx, wantM, gotM)
				}
			}
		}
	}
}

// TestParallelSetOpsEdgeShapes pins every degree on the degenerate input
// shapes: empty sides, disjoint ranges (all of a below all of b), full
// overlap (a == b), duplicate-heavy runs crossing block windows, and inputs
// of very different lengths.
func TestParallelSetOpsEdgeShapes(t *testing.T) {
	n := 3 * parTestN
	asc := make([]uint64, n)
	for i := range asc {
		asc[i] = uint64(i)
	}
	shifted := make([]uint64, n)
	for i := range shifted {
		shifted[i] = uint64(i + n) // strictly above asc
	}
	dupes := make([]uint64, n)
	for i := range dupes {
		dupes[i] = uint64(i / 97) // runs of 97 equal values
	}
	dupesB := make([]uint64, n/2)
	for i := range dupesB {
		dupesB[i] = uint64(i / 13)
	}
	long := make([]uint64, 4*n)
	for i := range long {
		long[i] = uint64(i)
	}
	cases := []struct {
		name string
		a, b []uint64
	}{
		{"empty_b", asc, nil},
		{"empty_a", nil, asc},
		{"disjoint_below", asc, shifted},
		{"disjoint_above", shifted, asc},
		{"full_overlap", asc, asc},
		{"duplicate_runs", dupes, dupesB},
		{"dup_vs_self", dupes, dupes},
		{"short_a_long_b", asc[:2*formats.MinMorsel+5], long},
		{"long_a_short_b", long, asc[:3]},
	}
	for _, tc := range cases {
		ac := columns.FromValues(tc.a)
		bc := columns.FromValues(tc.b)
		for _, outDesc := range []columns.FormatDesc{columns.UncomprDesc, columns.DeltaBPDesc, columns.RLEDesc} {
			wantI, err := FixedRT(1).Intersect(ac, bc, outDesc)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			wantM, err := FixedRT(1).Merge(ac, bc, outDesc)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			for _, par := range parLevels {
				gotI, err := FixedRT(par).Intersect(ac, bc, outDesc)
				if err != nil {
					t.Fatalf("%s p=%d: %v", tc.name, par, err)
				}
				assertSameColumn(t, tc.name+" intersect", wantI, gotI)
				gotM, err := FixedRT(par).Merge(ac, bc, outDesc)
				if err != nil {
					t.Fatalf("%s p=%d: %v", tc.name, par, err)
				}
				assertSameColumn(t, tc.name+" merge", wantM, gotM)
			}
		}
	}
}

// TestParallelSetOpsNilInput checks the nil-column guard at width > 1.
func TestParallelSetOpsNilInput(t *testing.T) {
	if _, err := FixedRT(4).Intersect(nil, nil, columns.UncomprDesc); err == nil {
		t.Error("nil inputs must fail")
	}
	if _, err := FixedRT(4).Merge(nil, nil, columns.UncomprDesc); err == nil {
		t.Error("nil inputs must fail")
	}
}
