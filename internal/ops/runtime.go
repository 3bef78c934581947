package ops

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"morphstore/internal/bufpool"
	"morphstore/internal/faultpoint"
	"morphstore/internal/formats"
	"morphstore/internal/metrics"
	"morphstore/internal/qerr"
)

// This file implements the execution runtime threaded through the morsel
// drivers: a cancellation context checked between morsels, the engine's
// worker Budget, which bounds how many morsel workers run at once across
// every operator of every query, and the lease on the engine's buffer pool
// that the writers, the drivers' staging and scratch, and the join and
// grouping tables draw their words from.

// Budget is an engine-wide count of worker tokens. Each worker goroutine that
// runParts spawns takes one token before its first claim and keeps it until
// it leaves its claim loop; nothing else takes one — scans, unsplit kernels
// and width-1 runs execute on the caller's goroutine without a token. No
// holder ever waits for a second token, because no morsel runs a morsel loop
// of its own, so every holder finishes and at most Total workers claim
// morsels at any moment.
//
// The budget does not divide itself among operators. The one behaviour that
// gives up: under concurrent queries, a morsel loop that starts while every
// token is held waits until a holder leaves its claim loop, where a
// re-dividing budget would hand it a share within one morsel. It is safe for
// concurrent use.
type Budget struct{ tokens chan struct{} }

// NewBudget returns a budget of total worker tokens; total <= 0 means
// GOMAXPROCS.
func NewBudget(total int) *Budget {
	if total <= 0 {
		total = runtime.GOMAXPROCS(0)
	}
	return &Budget{tokens: make(chan struct{}, total)}
}

// Total returns the budget's worker allowance.
func (b *Budget) Total() int { return cap(b.tokens) }

// InUse returns the tokens currently held. An idle budget — no morsel loop
// running — reports zero; the leak tests assert this after every failure
// mode.
func (b *Budget) InUse() int { return len(b.tokens) }

// acquire takes one token, waiting for a holder to release one; it gives up
// and returns false when ctx is cancelled or stop closes first. A nil budget
// (a runtime outside an engine) grants at once.
func (b *Budget) acquire(ctx context.Context, stop <-chan struct{}) bool {
	if b == nil {
		return true
	}
	select {
	case b.tokens <- struct{}{}:
		return true
	default:
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	select {
	case b.tokens <- struct{}{}:
		return true
	case <-done:
	case <-stop:
	}
	return false
}

// release returns a token taken by acquire.
func (b *Budget) release() {
	if b != nil {
		<-b.tokens
	}
}

// MemReservation counts the bytes of intermediate columns one query
// materializes, and of the parallel drivers' staging buffers on the way. A
// column's bytes are charged when it is produced and released when the
// query no longer needs it (its last consumer finished; staging once the
// stitch has copied it), so the high-water mark of charged minus released
// bytes is the query's actual peak footprint, reported as QueryStats.MemPeak
// beside the estimate the engine's admission gate reserved for it. Charges
// never block: a query is admitted on its estimate, and enforcing the budget
// inside the morsel loops could deadlock siblings. All methods are
// nil-receiver-safe.
type MemReservation struct {
	charged atomic.Int64 // every byte ever charged
	live    atomic.Int64 // charged minus released
	peak    atomic.Int64 // high-water mark of live
}

// Charge books bytes of intermediate-buffer allocation.
func (r *MemReservation) Charge(bytes int) {
	if r == nil || bytes <= 0 {
		return
	}
	r.charged.Add(int64(bytes))
	live := r.live.Add(int64(bytes))
	for p := r.peak.Load(); live > p && !r.peak.CompareAndSwap(p, live); p = r.peak.Load() {
	}
}

// Release returns charged bytes the query no longer holds.
func (r *MemReservation) Release(bytes int) {
	if r == nil || bytes <= 0 {
		return
	}
	r.live.Add(-int64(bytes))
}

// Charged returns the bytes charged so far, released ones included.
func (r *MemReservation) Charged() int64 {
	if r == nil {
		return 0
	}
	return r.charged.Load()
}

// Peak returns the most bytes held at once: the high-water mark of charged
// minus released bytes.
func (r *MemReservation) Peak() int64 {
	if r == nil {
		return 0
	}
	return r.peak.Load()
}

// Runtime carries the execution environment of one operator invocation:
// the cancellation context, the engine's worker budget (nil outside an
// engine), the lease on the engine's buffer pool (nil outside an engine:
// buffers are plain allocations), the morsel-parallelism cap, the
// operator's stats collector (nil when detached), the query's memory charge
// counter (nil outside a prepared execution), and the rows each output of
// the operator produced the last time its plan ran (nil without such a
// run). The zero value is single-worker execution: every operator runs as
// one morsel on the calling goroutine.
//
// An operator returns every buffer it took from the lease except its output
// columns' words, which pass to the caller: in an engine, the scheduler puts
// them back once the column's last consumer has finished.
type Runtime struct {
	ctx    context.Context
	budget *Budget
	bufs   *bufpool.Lease
	par    int
	coll   *metrics.NodeCollector
	mres   *MemReservation
	obs    []int
}

// FixedRT returns a runtime with a fixed worker count and no budget sharing,
// buffer pool or cancellation: the way to call an operator outside an engine
// (benchmarks, tests); FixedRT(1) is the sequential operator.
func FixedRT(par int) Runtime { return Runtime{par: par} }

// RT returns a runtime for one operator run: ctx is checked between morsels,
// b (which may be nil) bounds the morsel workers running engine-wide, and
// bufs (which may be nil) supplies the operator's buffers.
func RT(ctx context.Context, b *Budget, bufs *bufpool.Lease, par int) Runtime {
	return Runtime{ctx: ctx, budget: b, bufs: bufs, par: par}
}

// WithCollector returns a copy of the runtime reporting morsel counts,
// kernel timings, and fallback events to nc. A nil nc (or never calling
// WithCollector) is the detached mode: the morsel loop pays one nil check
// per claim and zero allocations.
func (rt Runtime) WithCollector(nc *metrics.NodeCollector) Runtime {
	rt.coll = nc
	return rt
}

// WithMemReservation returns a copy of the runtime charging intermediate
// allocations to r (the query's charge counter). A nil r (or never calling
// WithMemReservation) is the untracked mode: ChargeMem is one nil check.
func (rt Runtime) WithMemReservation(r *MemReservation) Runtime {
	rt.mres = r
	return rt
}

// ChargeMem books bytes of intermediate-buffer allocation to the query's
// charge counter; a no-op without one. Charge sites are
// per-section/per-column, never per-element, so the accounting stays off the
// kernel hot path.
func (rt Runtime) ChargeMem(bytes int) { rt.mres.Charge(bytes) }

// releaseMem returns staged bytes charged by ChargeMem.
func (rt Runtime) releaseMem(bytes int) { rt.mres.Release(bytes) }

// scratch takes one cache-resident scratch buffer of the drivers from the
// lease — a decode buffer, a lockstep pair of them, a one- or two-output
// emit stage, or a sorted-set kernel's output; free gives it back.
func (rt Runtime) scratch() []uint64 { return rt.bufs.Get(2 * blockBuf) }

// free gives back a buffer the operator took from the lease and no column
// references.
func (rt Runtime) free(buf []uint64) { _ = rt.bufs.Put(buf) } // issued by rt.bufs: cannot fail

// WithObserved returns a copy of the runtime that sizes the operator's output
// buffers from rows, the element count each output produced the last time
// the same plan node ran. A nil rows (or never calling WithObserved) sizes
// them from the inputs' upper bounds. Only capacity depends on it: the output
// bytes are the same either way.
func (rt Runtime) WithObserved(rows []int) Runtime {
	rt.obs = rows
	return rt
}

// reserve returns the capacity to reserve for output o of the operator,
// which holds at most upper elements: the observed rows plus 1/16 and 64 of
// slack, or upper without an observation. A buffer that outgrows it grows by
// append, so an underestimate costs a copy, never a wrong result.
func (rt Runtime) reserve(o, upper int) int {
	if o >= len(rt.obs) {
		return upper
	}
	r := rt.obs[o]
	return min(upper, r+r/16+64)
}

// reservePart returns the starting capacity of one part's buffer for output
// o: its pro-rata share, part of whole (> 0) input elements, of
// reserve(o, upper), or guess without an observation.
func (rt Runtime) reservePart(o, upper, part, whole, guess int) int {
	if o >= len(rt.obs) {
		return guess
	}
	return rt.reserve(o, upper) * part / whole
}

// Par returns the runtime's morsel-parallelism cap (at least 1).
func (rt Runtime) Par() int {
	if rt.par < 1 {
		return 1
	}
	return rt.par
}

// Err returns the runtime's cancellation status.
func (rt Runtime) Err() error {
	if rt.ctx == nil {
		return nil
	}
	return rt.ctx.Err()
}

// workers bounds the worker-goroutine count for a task list.
func (rt Runtime) workers(tasks int) int { return max(1, min(rt.Par(), tasks)) }

// guarded runs fn for morsel i and converts a panic — in the kernel, in a
// stitch seam, or injected through a fault point — into a typed
// *qerr.QueryError carrying the panic value, the morsel index and the stack.
// The recover boundary sits per morsel rather than per worker so the worker
// loop keeps running its bookkeeping (completion count, token release) on the
// normal path and sibling morsels on the same worker are unaffected.
func guarded(i int, fn func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = qerr.Recovered(v, i)
		}
	}()
	if err := faultpoint.KernelBody.Hit(); err != nil {
		return err
	}
	return fn()
}

// runParts executes fn for every partition, claimed in index order from an
// atomic work-queue cursor by at most rt.Par() worker goroutines. fn receives
// the claiming worker's index (for reusing per-worker scratch: one worker
// index is never active on two goroutines) and the partition's index (for
// depositing results in deterministic partition order). Each worker takes a
// budget token before its first claim and returns it when it leaves the
// loop; a worker still waiting for a token gives up once every partition is
// claimed or a morsel failed. Workers check the runtime's context before
// every claim, so cancellation takes effect within one morsel.
//
// Each morsel runs under a recover guard: a panicking kernel is reported as a
// *qerr.QueryError instead of crashing the process, and the remaining workers
// stop claiming morsels as soon as any morsel fails. The first error in
// partition order is returned after all claimed work finishes; a cancelled
// run returns the context's error.
func (rt Runtime) runParts(parts []formats.Partition, fn func(worker, i int, pt formats.Partition) error) error {
	workers := rt.workers(len(parts))
	// shards is nil when no collector is attached — the detached morsel loop
	// pays exactly one nil check per claim, no clock reads, no allocations.
	shards := rt.coll.Shards(workers)
	errs := make([]error, len(parts))
	var next, completed atomic.Int64
	var failed atomic.Bool
	stop := make(chan struct{}) // closed once no waiting worker is needed
	var stopOnce sync.Once
	halt := func() { stopOnce.Do(func() { close(stop) }) }
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if !rt.budget.acquire(rt.ctx, stop) {
				return
			}
			defer rt.budget.release()
			for {
				if rt.Err() != nil || failed.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= len(parts) {
					halt()
					return
				}
				if err := faultpoint.MorselClaim.Hit(); err != nil {
					errs[i] = err
				} else if shards == nil {
					errs[i] = guarded(i, func() error { return fn(w, i, parts[i]) })
				} else {
					t0 := time.Now()
					errs[i] = guarded(i, func() error { return fn(w, i, parts[i]) })
					shards[w].Record(time.Since(t0))
				}
				if errs[i] != nil {
					failed.Store(true)
					halt()
				}
				completed.Add(1)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if int(completed.Load()) < len(parts) {
		// Only cancellation leaves tasks unclaimed without an error.
		return rt.Err()
	}
	return nil
}

// runTasks is the task-index form of runParts for work lists that are not
// column partitions (the stitch's bit-width chunks): tasks 0..n-1 are claimed
// in index order from the atomic work-queue cursor under the same budget and
// cancellation rules. It wraps runParts over placeholder partitions: task
// lists are small, a few entries per worker.
func (rt Runtime) runTasks(n int, fn func(worker, i int) error) error {
	return rt.runParts(make([]formats.Partition, n), func(w, i int, _ formats.Partition) error {
		return fn(w, i)
	})
}
