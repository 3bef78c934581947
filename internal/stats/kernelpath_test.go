package stats

import (
	"sync/atomic"
	_ "unsafe" // for go:linkname
)

// forcePortable is the kernel-path test hook of morphstore/internal/bitutil:
// while it is set, every kernel runs its portable Go loop instead of the
// AVX-512 path.
//
//go:linkname forcePortable morphstore/internal/bitutil.forcePortable
var forcePortable atomic.Bool

// eachKernelPath runs f once on the CPU's kernel path and once on the
// portable path, naming the path it runs on; the equivalence suites compare
// every case across the two.
func eachKernelPath(f func(path string)) {
	defer forcePortable.Store(false)
	for _, path := range []string{"cpu", "portable"} {
		forcePortable.Store(path == "portable")
		f(path)
	}
}
