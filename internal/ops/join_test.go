package ops

import (
	"math"
	"math/rand"
	"testing"

	"morphstore/internal/columns"
	"morphstore/internal/formats"
)

// joinProbe draws n probe keys for a build side: about two thirds are build
// keys, the rest near misses (a build key ± 1) and arbitrary values.
func joinProbe(build []uint64, n int, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	probe := make([]uint64, n)
	for i := range probe {
		switch r := rng.Intn(6); {
		case len(build) == 0 || r == 5:
			probe[i] = rng.Uint64()
		case r == 4:
			probe[i] = build[rng.Intn(len(build))] + uint64(rng.Intn(2)*2) - 1
		default:
			probe[i] = build[rng.Intn(len(build))]
		}
	}
	return probe
}

// TestJoinBuildPaths runs both joins over every build-key shape the dense
// rule distinguishes: the rule picks the expected path, the picked path
// matches a map-based reference, and wherever the direct-address kernel
// applies it and the hash kernel emit byte-identical columns — across probe
// formats, parallelism degrees, output formats and both kernel paths of the
// dense probe. SemiJoin runs the join's kernels with one sink, so its
// positions must be the join's probe positions.
func TestJoinBuildPaths(t *testing.T) {
	seq := func(n int, key func(i int) uint64) []uint64 {
		build := make([]uint64, n)
		for i := range build {
			build[i] = key(i)
		}
		return build
	}
	shapes := []struct {
		name   string
		build  []uint64
		direct bool
	}{
		{"dense from 0", seq(300, func(i int) uint64 { return uint64(i) }), true},
		{"dense with offset", seq(300, func(i int) uint64 { return 1<<40 + uint64(299-i) }), true},
		// yyyymmdd keys: 12 months x 28 days over 7 years, span/n = 26.
		{"date-like", seq(7*12*28, func(i int) uint64 {
			return uint64(1992+i/336)*10000 + uint64(1+i/28%12)*100 + uint64(1+i%28)
		}), true},
		{"wide but 8 slots per key", seq(20000, func(i int) uint64 { return uint64(7 * i) }), true},
		{"sparse", seq(300, func(i int) uint64 { return uint64(i+1) << 40 }), false},
		{"too wide for its count", seq(300, func(i int) uint64 { return uint64(i) * directSpanCap }), false},
		{"0 and MaxUint64", []uint64{0, 17, math.MaxUint64}, false},
		{"duplicates", []uint64{5, 5, 7, 9, 7}, true},
		{"single key", []uint64{1 << 50}, true},
		{"empty build", nil, false},
	}
	outDescs := [][2]columns.FormatDesc{
		{columns.UncomprDesc, columns.UncomprDesc},
		{columns.StaticBPDesc(0), columns.DeltaBPDesc},
	}
	for _, sh := range shapes {
		lo, span, direct := denseKeys(sh.build)
		if direct != sh.direct {
			t.Fatalf("%s: direct path = %v, want %v", sh.name, direct, sh.direct)
		}
		last := make(map[uint64]uint64, len(sh.build))
		for i, k := range sh.build {
			last[k] = uint64(i)
		}
		buildCol := mkCol(t, sh.build, columns.UncomprDesc)
		for _, probeN := range []int{parTestN, 0} {
			probe := joinProbe(sh.build, probeN, int64(len(sh.build)))
			var wantP, wantB []uint64
			for i, v := range probe {
				if b, ok := last[v]; ok {
					wantP, wantB = append(wantP, uint64(i)), append(wantB, b)
				}
			}
			eachKernelPath(func(path string) {
				for _, probeDesc := range formats.PaperDescs() {
					probeCol := mkCol(t, probe, probeDesc)
					for _, out := range outDescs {
						for _, par := range []int{1, 2, 3} {
							rt := FixedRT(par)
							ctx := path + ": " + sh.name + "/" + probeDesc.String() + "->" + out[0].String()
							gotP, gotB, err := rt.JoinN1(probeCol, buildCol, out[0], out[1], 0)
							if err != nil {
								t.Fatalf("join %s p=%d: %v", ctx, par, err)
							}
							if !equalU64(decode(t, gotP), wantP) || !equalU64(decode(t, gotB), wantB) {
								t.Fatalf("join %s p=%d: differs from the reference", ctx, par)
							}
							gotS, err := rt.SemiJoin(probeCol, buildCol, out[0])
							if err != nil {
								t.Fatalf("semijoin %s p=%d: %v", ctx, par, err)
							}
							assertSameColumn(t, "semijoin vs join probe positions "+ctx, gotP, gotS)

							hashP, hashB, err := rt.joinN1(probeCol, len(sh.build), out[0], out[1], kernelOnly(hashJoinKernel(nil, sh.build)))
							if err != nil {
								t.Fatalf("hash join %s p=%d: %v", ctx, par, err)
							}
							assertSameColumn(t, "hash join probe pos "+ctx, gotP, hashP)
							assertSameColumn(t, "hash join build pos "+ctx, gotB, hashB)
							hashS, err := rt.emitPositions("semijoin", probeCol, out[0], scan(probeCol, kernelOnly(hashJoinKernel(nil, sh.build))))
							if err != nil {
								t.Fatalf("hash semijoin %s p=%d: %v", ctx, par, err)
							}
							assertSameColumn(t, "hash semijoin "+ctx, gotS, hashS)
							if !direct {
								continue
							}
							dirP, dirB, err := rt.joinN1(probeCol, len(sh.build), out[0], out[1], kernelOnly(directJoinKernel(nil, sh.build, lo, span)))
							if err != nil {
								t.Fatalf("direct join %s p=%d: %v", ctx, par, err)
							}
							assertSameColumn(t, "direct join probe pos "+ctx, hashP, dirP)
							assertSameColumn(t, "direct join build pos "+ctx, hashB, dirB)
							dirS, err := rt.emitPositions("semijoin", probeCol, out[0], scan(probeCol, kernelOnly(directJoinKernel(nil, sh.build, lo, span))))
							if err != nil {
								t.Fatalf("direct semijoin %s p=%d: %v", ctx, par, err)
							}
							assertSameColumn(t, "direct semijoin "+ctx, hashS, dirS)
						}
					}
				}
			})
		}
	}

	// Last wins, pinned: of the two build rows with key 5, index 1 joins.
	pp, bp, err := JoinN1(columns.FromValues([]uint64{7, 5, 6}), columns.FromValues([]uint64{5, 5, 7}),
		columns.UncomprDesc, columns.UncomprDesc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !equalU64(decode(t, pp), []uint64{0, 1}) || !equalU64(decode(t, bp), []uint64{2, 1}) {
		t.Fatalf("duplicate build keys: probe %v build %v, want [0 1] [2 1]", decode(t, pp), decode(t, bp))
	}
}

// kernelOnly drops a kernel maker's done func: built without a lease, its
// table is ordinary memory.
func kernelOnly(k chunkKernel, _ func()) chunkKernel { return k }
