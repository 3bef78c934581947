package ops

import (
	"math/rand"
	"testing"

	"morphstore/internal/columns"
	"morphstore/internal/formats"
)

// groupTestKeys builds a key column with heavy repetition (realistic group
// cardinality), long runs (dictionary-coded dimension values arrive in runs)
// and a few late first occurrences, so first-occurrence id order is
// exercised.
func groupTestKeys(n, card int, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]uint64, n)
	i := 0
	for i < n {
		run := 1 + rng.Intn(7)
		v := uint64(rng.Intn(card))
		if rng.Intn(503) == 0 {
			v = uint64(card + rng.Intn(1<<20)) // rare late-first-occurrence key
		}
		for j := 0; j < run && i < n; j++ {
			keys[i] = v
			i++
		}
	}
	return keys
}

// TestParallelGroupFirstEquivalence is the cross-product equivalence check
// for the grouping: every key format x gid output format x parallelism
// degree must reproduce both sequential output columns byte for
// byte (canonical first-occurrence id order included).
func TestParallelGroupFirstEquivalence(t *testing.T) {
	keyVals := groupTestKeys(parTestN, 300, 11)
	for _, keyDesc := range formats.AllDescs() {
		keys, err := formats.Compress(keyVals, keyDesc)
		if err != nil {
			t.Fatal(err)
		}
		for _, outDesc := range formats.AllDescs() {
			ctx := keyDesc.String() + "->" + outDesc.String()
			wantG, wantE, err := FixedRT(1).GroupFirst(keys, outDesc, columns.UncomprDesc)
			if err != nil {
				t.Fatalf("group %s: %v", ctx, err)
			}
			for _, par := range parLevels {
				gotG, gotE, err := FixedRT(par).GroupFirst(keys, outDesc, columns.UncomprDesc)
				if err != nil {
					t.Fatalf("par group %s p=%d: %v", ctx, par, err)
				}
				assertSameColumn(t, "group gids "+ctx, wantG, gotG)
				assertSameColumn(t, "group extents "+ctx, wantE, gotE)
			}
		}
	}
}

// TestParallelGroupNextEquivalence checks the grouping refinement: for every
// previous-gid format x key format x output format x degree, the pair-keyed
// refinement must match the sequential one byte for byte.
func TestParallelGroupNextEquivalence(t *testing.T) {
	keyVals1 := groupTestKeys(parTestN, 40, 21)
	keyVals2 := groupTestKeys(parTestN, 25, 22)
	keys1 := columns.FromValues(keyVals1)
	for _, keyDesc := range formats.AllDescs() {
		keys2, err := formats.Compress(keyVals2, keyDesc)
		if err != nil {
			t.Fatal(err)
		}
		for _, prevDesc := range formats.AllDescs() {
			// The previous gids come from a real first grouping so the
			// refinement sees the dense id distribution it gets in plans.
			gids1Ref, _, err := FixedRT(1).GroupFirst(keys1, prevDesc, columns.UncomprDesc)
			if err != nil {
				t.Fatal(err)
			}
			for _, outDesc := range []columns.FormatDesc{columns.UncomprDesc, columns.StaticBPDesc(0), columns.DynBPDesc, columns.RLEDesc} {
				ctx := prevDesc.String() + "+" + keyDesc.String() + "->" + outDesc.String()
				wantG, wantE, err := FixedRT(1).GroupNext(gids1Ref, keys2, outDesc, columns.DeltaBPDesc)
				if err != nil {
					t.Fatalf("group next %s: %v", ctx, err)
				}
				for _, par := range parLevels {
					gotG, gotE, err := FixedRT(par).GroupNext(gids1Ref, keys2, outDesc, columns.DeltaBPDesc)
					if err != nil {
						t.Fatalf("par group next %s p=%d: %v", ctx, par, err)
					}
					assertSameColumn(t, "group next gids "+ctx, wantG, gotG)
					assertSameColumn(t, "group next extents "+ctx, wantE, gotE)
				}
			}
		}
	}
}

// TestParallelGroupFirstSkewed pins the id order at every degree under
// extreme key skew: a single giant group, all-distinct keys, and a column
// whose quarters each introduce only new keys.
func TestParallelGroupFirstSkewed(t *testing.T) {
	cases := map[string][]uint64{}
	constant := make([]uint64, parTestN)
	distinct := make([]uint64, parTestN)
	split := make([]uint64, parTestN)
	for i := range distinct {
		distinct[i] = uint64(parTestN - i) // distinct, descending first occurrences
		split[i] = uint64(i / (parTestN / 4))
	}
	cases["one_group"] = constant
	cases["all_distinct"] = distinct
	cases["quartile_blocks"] = split
	for name, vals := range cases {
		in := columns.FromValues(vals)
		wantG, wantE, err := FixedRT(1).GroupFirst(in, columns.DynBPDesc, columns.DeltaBPDesc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, par := range parLevels {
			gotG, gotE, err := FixedRT(par).GroupFirst(in, columns.DynBPDesc, columns.DeltaBPDesc)
			if err != nil {
				t.Fatalf("%s p=%d: %v", name, par, err)
			}
			assertSameColumn(t, name+" gids", wantG, gotG)
			assertSameColumn(t, name+" extents", wantE, gotE)
		}
	}
}

// TestParallelGroupNextLengthMismatch checks that the refinement rejects
// diverging inputs at every degree.
func TestParallelGroupNextLengthMismatch(t *testing.T) {
	a := columns.FromValues(make([]uint64, parTestN))
	b := columns.FromValues(make([]uint64, parTestN-1))
	for _, par := range parLevels {
		if _, _, err := FixedRT(par).GroupNext(a, b, columns.UncomprDesc, columns.UncomprDesc); err == nil {
			t.Fatalf("p=%d: diverging inputs must fail", par)
		}
	}
}
