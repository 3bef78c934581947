// Package faultpoint provides named fault-injection sites for the chaos and
// robustness tests: fixed points on the engine's execution paths where a test
// can inject panics, errors, or delays without touching production logic.
//
// A disarmed point costs one atomic pointer load and a predictable branch —
// cheap enough to sit on the morsel hot path (cmd/msbench prints the measured
// cost as its informational faultpoint line). Arming installs a
// handler that runs at every hit; the handler may return an error (taken by
// paths with error plumbing), panic (exercising the panic-isolation layer),
// or sleep (widening race windows). Sites without an error path convert an
// injected error into a panic, which the runtime guards convert back into a
// typed *qerr.QueryError — so every injection surfaces as a typed failure.
//
// The package is intentionally dependency-free so any layer (formats, ops,
// core) can host a point without import cycles.
package faultpoint

import "sync/atomic"

// Point is one named injection site. Points are created at package init and
// live for the process lifetime; arming and hitting are safe for concurrent
// use.
type Point struct {
	name string
	fn   atomic.Pointer[func() error]
}

// The engine's injection sites, one per seam the fault-tolerance layer
// guards.
var (
	// MorselClaim fires when a worker claims a morsel/task from the
	// work-queue cursor, before the kernel runs.
	MorselClaim = newPoint("morsel-claim")
	// KernelBody fires inside the per-morsel kernel invocation.
	KernelBody = newPoint("kernel-body")
	// ConcatFixup fires at the head of ConcatCompressed and AppendTail,
	// before the format's writer takes the first column whole.
	ConcatFixup = newPoint("concat-fixup")
	// AdmissionEnqueue fires when a query is about to park in the engine's
	// bounded admission queue (after the fast-path grant was unavailable,
	// before the waiter is enqueued).
	AdmissionEnqueue = newPoint("admission-enqueue")
	// CloseDrain fires at the head of Engine.Close, after admission stops
	// accepting new work and before the drain wait begins.
	CloseDrain = newPoint("close-drain")
	// AppendLog fires in a writable table's mutation path (Append/Delete),
	// after validation and before the new delta state is written — a failing
	// hit leaves the table unchanged.
	AppendLog = newPoint("append-log")
	// DeltaMerge fires when a snapshot materializes the merged main+delta
	// view of one column (the first read of that column at that epoch).
	DeltaMerge = newPoint("delta-merge")
	// RemorphSwap fires after a background remorph rebuilt a table's columns
	// and before the new main is atomically published — a failing hit aborts
	// the swap and leaves the old state in place.
	RemorphSwap = newPoint("remorph-swap")
	// DictPersist fires in Dict.Add after translation and before the fresh
	// strings are journaled and the new snapshot is published — a failing hit
	// leaves the dictionary unchanged.
	DictPersist = newPoint("dict-persist")
	// DictLookupMiss fires on the slow path of Dict.Add: the first occurrence
	// of a string not yet in the dictionary, before an ID is assigned.
	DictLookupMiss = newPoint("dict-lookup-miss")
	// IngestBatch fires in ingest.Load once per decoded source batch, before
	// the batch is appended to the engine.
	IngestBatch = newPoint("ingest-batch")
)

var points = []*Point{MorselClaim, KernelBody, ConcatFixup, AdmissionEnqueue, CloseDrain, AppendLog, DeltaMerge, RemorphSwap, DictPersist, DictLookupMiss, IngestBatch}

func newPoint(name string) *Point { return &Point{name: name} }

// Name returns the point's name.
func (p *Point) Name() string { return p.name }

// Hit runs the point's armed handler and returns its error; a disarmed point
// returns nil after a single atomic load.
func (p *Point) Hit() error {
	if fn := p.fn.Load(); fn != nil {
		return (*fn)()
	}
	return nil
}

// MustHit is Hit for call sites without an error path: an injected error is
// escalated to a panic (the runtime guards recover it into a typed error).
func (p *Point) MustHit() {
	if fn := p.fn.Load(); fn != nil {
		if err := (*fn)(); err != nil {
			panic(err)
		}
	}
}

// Armed reports whether a handler is installed.
func (p *Point) Armed() bool { return p.fn.Load() != nil }

// Arm installs fn to run at every hit of the point until Disarm. fn may be
// called from many goroutines at once and must be safe for concurrent use.
func (p *Point) Arm(fn func() error) { p.fn.Store(&fn) }

// Disarm removes the point's handler, restoring the zero-cost path.
func (p *Point) Disarm() { p.fn.Store(nil) }

// Points returns every injection site (for harnesses that arm all of them).
func Points() []*Point { return points }

// DisarmAll disarms every point; tests call it in cleanup so one harness
// cannot leak injections into the next.
func DisarmAll() {
	for _, p := range points {
		p.Disarm()
	}
}
