package ops

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"morphstore/internal/faultpoint"
	"morphstore/internal/formats"
	"morphstore/internal/metrics"
	"morphstore/internal/qerr"
)

// This file implements the execution runtime threaded through the morsel
// drivers: a cancellation context checked between morsels
// and a shared worker Budget that divides one engine-wide goroutine
// allowance among every operator running at any moment — across concurrent
// operators of one plan and across concurrently executing queries alike.
//
// The budget replaces the old static division (an operator received
// par/inflight workers when it started and kept that share until it
// finished, so finishing siblings stranded their workers). Each running
// operator holds a Lease; the Budget re-divides the allowance deterministically
// whenever a lease opens or closes, and workers blocked on a shrunken lease
// pick up the freed slots the moment a sibling operator completes.

// Budget is a dynamic worker-goroutine allowance shared by every operator
// of one engine. It is safe for concurrent use.
type Budget struct {
	mu     sync.Mutex
	cond   *sync.Cond
	total  int
	nextID uint64
	leases []*Lease
	telem  atomic.Pointer[func(BudgetEvent)]
}

// BudgetEventKind classifies a BudgetEvent.
type BudgetEventKind uint8

// The budget telemetry event kinds.
const (
	// BudgetGrant is a new lease registration.
	BudgetGrant BudgetEventKind = iota
	// BudgetShrink is a lease lowering its own cap (sequential fallback).
	BudgetShrink
	// BudgetRelease is a lease closing.
	BudgetRelease
)

// String names the event kind.
func (k BudgetEventKind) String() string {
	switch k {
	case BudgetGrant:
		return "grant"
	case BudgetShrink:
		return "shrink"
	case BudgetRelease:
		return "release"
	}
	return "unknown"
}

// BudgetEvent is one entry of the budget telemetry stream: a lease was
// granted, shrunk, or released, and the allowance re-divided.
type BudgetEvent struct {
	// Kind is the event class.
	Kind BudgetEventKind
	// Lease is the affected lease's budget-unique id.
	Lease uint64
	// Cap is the lease's worker cap after the event (0 for a release).
	Cap int
	// Limit is the lease's re-divided worker limit after the event (0 for
	// a release).
	Limit int
	// Leases is the open-lease count after the event.
	Leases int
}

// SetTelemetry installs fn as the budget's telemetry sink, called on every
// lease grant, shrink, and release; nil detaches it. The sink runs with the
// budget mutex held, so it must be fast and must not call back into the
// budget — the engine attaches an atomic-counter sink. Detached cost is one
// atomic pointer load per event, and events are per operator, not per
// morsel.
func (b *Budget) SetTelemetry(fn func(BudgetEvent)) {
	if fn == nil {
		b.telem.Store(nil)
		return
	}
	b.telem.Store(&fn)
}

// emit forwards one telemetry event; called with b.mu held.
func (b *Budget) emit(ev BudgetEvent) {
	if fn := b.telem.Load(); fn != nil {
		(*fn)(ev)
	}
}

// NewBudget returns a budget of total worker slots; total <= 0 means
// GOMAXPROCS.
func NewBudget(total int) *Budget {
	if total <= 0 {
		total = runtime.GOMAXPROCS(0)
	}
	b := &Budget{total: total}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Total returns the budget's worker allowance.
func (b *Budget) Total() int { return b.total }

// Lease is one operator's registration with a Budget: it holds the
// operator's current worker limit, re-divided as sibling leases come and go.
type Lease struct {
	b     *Budget
	id    uint64
	cap   int // most workers this operator can ever use
	limit int // current allowance, set by redivide
	inUse int
	obs   func(limit int) // per-lease limit observer, may be nil
}

// Lease registers an operator that can use at most cap concurrent workers
// and returns its lease. Every open lease is guaranteed a limit of at least
// one worker (progress), so the combined limit can exceed the total only
// when more operators run than the budget has slots.
func (b *Budget) Lease(cap int) *Lease { return b.LeaseObserved(cap, nil) }

// LeaseObserved is Lease with a per-lease observer: obs is called with the
// lease's new worker limit whenever a re-division changes it, including the
// initial grant. Like the telemetry sink, obs runs with the budget mutex
// held and must not call back into the budget; the engine attaches the
// node's stats collector here. obs may be nil.
func (b *Budget) LeaseObserved(cap int, obs func(limit int)) *Lease {
	if cap < 1 {
		cap = 1
	}
	// The fault point fires before the lease is registered so that an
	// injected panic cannot leave behind a lease the caller never saw and
	// can never Close.
	faultpoint.BudgetRedivide.MustHit()
	b.mu.Lock()
	defer b.mu.Unlock()
	l := &Lease{b: b, id: b.nextID, cap: cap, obs: obs}
	b.nextID++
	b.leases = append(b.leases, l)
	b.redivide()
	b.emit(BudgetEvent{Kind: BudgetGrant, Lease: l.id, Cap: l.cap, Limit: l.limit, Leases: len(b.leases)})
	return l
}

// redivide deterministically splits the total allowance among the open
// leases: capped leases (e.g. inherently sequential operators, cap 1) are
// served first so their unusable share flows to the others, ties broken by
// registration order, and every lease keeps a floor of one worker. Called
// with b.mu held; wakes workers whose lease limit grew.
func (b *Budget) redivide() {
	k := len(b.leases)
	if k == 0 {
		return
	}
	order := make([]*Lease, k)
	copy(order, b.leases)
	sort.Slice(order, func(i, j int) bool {
		if order[i].cap != order[j].cap {
			return order[i].cap < order[j].cap
		}
		return order[i].id < order[j].id
	})
	remaining := b.total
	for left := k; left > 0; left-- {
		l := order[k-left]
		share := (remaining + left - 1) / left // ceil: earlier leases absorb the remainder
		lim := min(share, l.cap)
		if lim < 1 {
			lim = 1
		}
		if lim != l.limit {
			l.limit = lim
			if l.obs != nil {
				l.obs(lim)
			}
		}
		remaining -= lim
		if remaining < 0 {
			remaining = 0
		}
	}
	b.cond.Broadcast()
}

// Close unregisters the lease and re-divides the freed allowance among the
// surviving leases, waking their blocked workers.
func (l *Lease) Close() {
	b := l.b
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, x := range b.leases {
		if x == l {
			b.leases = append(b.leases[:i], b.leases[i+1:]...)
			break
		}
	}
	b.redivide()
	b.emit(BudgetEvent{Kind: BudgetRelease, Lease: l.id, Leases: len(b.leases)})
}

// Shrink lowers the lease's worker cap (never below one, never raising it)
// and re-divides the budget, so an operator that turns out to run
// sequentially — an input that cannot be split — hands its unusable share
// to concurrently running siblings immediately instead of stranding it for
// the operator's whole runtime.
func (l *Lease) Shrink(cap int) {
	if cap < 1 {
		cap = 1
	}
	b := l.b
	b.mu.Lock()
	defer b.mu.Unlock()
	if cap >= l.cap {
		return
	}
	l.cap = cap
	b.redivide()
	b.emit(BudgetEvent{Kind: BudgetShrink, Lease: l.id, Cap: l.cap, Limit: l.limit, Leases: len(b.leases)})
}

// acquire blocks until the lease has a free worker slot; it returns false
// when ctx is cancelled. A waiter re-checks ctx on every slot release and on
// every re-division, so cancellation is noticed within one morsel.
func (l *Lease) acquire(ctx context.Context) bool {
	b := l.b
	b.mu.Lock()
	defer b.mu.Unlock()
	for l.inUse >= l.limit {
		if ctx != nil && ctx.Err() != nil {
			return false
		}
		b.cond.Wait()
	}
	if ctx != nil && ctx.Err() != nil {
		return false
	}
	l.inUse++
	return true
}

// release returns a worker slot and wakes waiters (of this lease or, after a
// re-division, of a sibling whose limit grew).
func (l *Lease) release() {
	b := l.b
	b.mu.Lock()
	defer b.mu.Unlock()
	l.inUse--
	b.cond.Broadcast()
}

// Limit returns the lease's current worker allowance (for tests and
// introspection; the value may change concurrently).
func (l *Lease) Limit() int {
	l.b.mu.Lock()
	defer l.b.mu.Unlock()
	return l.limit
}

// Leases returns the number of open leases. An idle budget — no operator
// running — reports zero; the leak tests of the fault-tolerance suite assert
// this after every failure mode.
func (b *Budget) Leases() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.leases)
}

// InUse returns the worker slots currently acquired across all open leases.
// An idle budget reports zero.
func (b *Budget) InUse() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, l := range b.leases {
		n += l.inUse
	}
	return n
}

// Runtime carries the execution environment of one operator invocation:
// the cancellation context, the operator's budget lease (nil outside an
// engine), the morsel-parallelism cap, the operator's stats collector (nil
// when detached), and the query's memory reservation (nil without a memory
// budget). The zero value is single-worker execution: every operator runs
// as one morsel on the calling goroutine.
type Runtime struct {
	ctx   context.Context
	lease *Lease
	par   int
	coll  *metrics.NodeCollector
	mres  *MemReservation
}

// FixedRT returns a runtime with a fixed worker count and no budget sharing
// or cancellation: the way to call an operator outside an engine (benchmarks,
// tests); FixedRT(1) is the sequential operator.
func FixedRT(par int) Runtime { return Runtime{par: par} }

// RT returns a runtime for one operator run: ctx is checked between morsels,
// and lease (which may be nil) gates the concurrently running workers.
func RT(ctx context.Context, lease *Lease, par int) Runtime {
	return Runtime{ctx: ctx, lease: lease, par: par}
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
// allocations against r (the query's memory-governor reservation). A nil r
// (or never calling WithMemReservation) is the untracked mode: ChargeMem is
// one nil check.
func (rt Runtime) WithMemReservation(r *MemReservation) Runtime {
	rt.mres = r
	return rt
}

// ChargeMem books bytes of intermediate-buffer allocation against the
// query's memory reservation; a no-op without one. Charge sites are
// per-section/per-column, never per-element, so the accounting stays off the
// kernel hot path.
func (rt Runtime) ChargeMem(bytes int) { rt.mres.Charge(bytes) }

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

// seqFallback records that the operator runs as one morsel from here on
// (unsplittable input): the budget lease, if any, shrinks to one worker so
// the surplus flows to sibling operators. The drivers call it wherever an
// input does not split.
func (rt Runtime) seqFallback() {
	if rt.lease != nil {
		rt.lease.Shrink(1)
	}
	rt.coll.SeqFallback()
}

// guarded runs fn for morsel i and converts a panic — in the kernel, in a
// stitch seam, or injected through a fault point — into a typed
// *qerr.QueryError carrying the panic value, the morsel index and the stack.
// The recover boundary sits per morsel rather than per worker so the worker
// loop keeps running its bookkeeping (completion count, lease release) on the
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
// depositing results in deterministic partition order). Workers check the
// runtime's context and acquire a budget slot before every claim, so both
// cancellation and budget re-division take effect within one morsel.
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
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				if rt.Err() != nil || failed.Load() {
					return
				}
				if rt.lease != nil && !rt.lease.acquire(rt.ctx) {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= len(parts) {
					if rt.lease != nil {
						rt.lease.release()
					}
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
				}
				completed.Add(1)
				if rt.lease != nil {
					rt.lease.release()
				}
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
// column partitions (sorted-set range pairs, remap passes): tasks 0..n-1 are
// claimed in index order from the atomic work-queue cursor under the same
// budget and cancellation rules. Because claims are monotonically increasing,
// one worker always processes its tasks in ascending index order — the
// parallel grouping relies on this to record per-worker first occurrences.
// It wraps runParts over placeholder partitions: task lists are small, a few
// entries per worker.
func (rt Runtime) runTasks(n int, fn func(worker, i int) error) error {
	return rt.runParts(make([]formats.Partition, n), func(w, i int, _ formats.Partition) error {
		return fn(w, i)
	})
}
