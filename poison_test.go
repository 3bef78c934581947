package morphstore_test

import (
	"os"
	"testing"
	_ "unsafe" // for go:linkname
)

// poisonReleased is the buffer pool's test hook (morphstore/internal/bufpool):
// every buffer given back is filled with a sentinel, so a column read after
// its release corrupts a result instead of passing by luck. The equivalence
// suites of this package (TestWritableSSBEquivalence,
// TestDictIngestEquivalence) run with it on.
//
//go:linkname poisonReleased morphstore/internal/bufpool.poisonReleased
var poisonReleased bool

// TestMain runs every test of the package with released buffers poisoned.
func TestMain(m *testing.M) {
	poisonReleased = true
	os.Exit(m.Run())
}
