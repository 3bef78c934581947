package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"morphstore/internal/faultpoint"
	"morphstore/internal/qerr"
)

// This file implements the engine's admission gate: the one place anything
// waits before it starts. A query needs a concurrency slot
// (WithMaxConcurrentQueries) and its plan's byte estimate
// (WithMemoryBudget); an append needs only its batch's bytes. A request that
// fits is granted at once; otherwise it parks in one bounded, deadline-aware
// FIFO, and every release walks the queue in order granting each waiter that
// now fits — so slot-only waiters are admitted strictly in arrival order,
// while a waiter that needs more bytes can be passed by smaller ones. A
// waiter holds nothing while it parks, and what admitted requests hold is
// returned by queries finishing and by remorph folds, which never park, so
// the gate cannot deadlock. Under overload the queue sheds: overflow beyond
// the configured depth and waiters whose deadline fires are rejected with a
// typed qerr.ErrAdmissionRejected instead of piling up without bound. The
// same structure tracks every in-flight query and one-off operator call so
// Engine.Close can stop admission, drain the engine, and fail later calls
// fast with qerr.ErrEngineClosed.
//
// Classification contract: a context that expires while a request is parked
// in the admission queue — cancelled or timed out, in either order relative
// to the park — always surfaces as ErrAdmissionRejected and never as
// ErrQueryCanceled/ErrQueryTimeout. The query did no work; rejection is
// retryable, mid-flight cancellation is not. The underlying context sentinel
// stays in the wrap chain for callers that care which flavour of expiry it
// was.

// admWaiter is one parked request: the bytes it needs, whether it is a query
// (and so needs a slot), and the channel the granter sends nil on (buffered,
// so grants never block under the admission mutex); sheds send the typed
// rejection.
type admWaiter struct {
	bytes int64
	query bool
	ready chan error
}

// admission is the engine's admission state: the concurrency slots, the byte
// budget, the bounded FIFO of parked requests, the in-flight tracking Close
// drains, and the overload counters behind Engine.Stats. All fields are
// guarded by mu; cond signals in-flight departures to the drain wait.
type admission struct {
	mu       sync.Mutex
	cond     *sync.Cond
	slots    int           // max concurrently admitted queries; 0 = unlimited
	budget   int64         // byte budget (WithMemoryBudget); 0 = none
	depth    int           // max parked requests; 0 = unbounded queue
	maxWait  time.Duration // park deadline; 0 = bounded only by the caller's ctx
	running  int           // queries currently admitted
	inflight int           // admitted queries + one-off operator calls
	reserved int64         // bytes currently granted against budget
	queue    []*admWaiter  // parked requests, FIFO
	closed   bool
	// lifetime counters (snapshot via counters)
	peakReserved int64
	waits        int64
	waitNS       int64
	shedOverflow int64
	shedExpired  int64
	shedClosed   int64
}

// newAdmission returns the admission state for an engine: slots concurrent
// queries (0 = unlimited), a byte budget (0 = none), a parked-request bound
// of depth (0 = unbounded), and a park deadline of maxWait (0 = none).
func newAdmission(slots int, budget int64, depth int, maxWait time.Duration) *admission {
	a := &admission{slots: slots, budget: max(budget, 0), depth: depth, maxWait: maxWait}
	a.cond = sync.NewCond(&a.mu)
	return a
}

// errClosed returns the typed failure of a call against a closed engine.
func errClosed(what string) error {
	return qerr.Tag(fmt.Errorf("core: %s: engine closed", what), qerr.ErrEngineClosed)
}

// enter registers a one-off operator call for the Close drain (no slot
// accounting — only Prepared.Execute competes for admission slots). It fails
// fast on a closed engine; the returned exit must be deferred.
func (a *admission) enter() (exit func(), err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return nil, errClosed("operator call")
	}
	a.inflight++
	return a.leave, nil
}

// leave retires one in-flight registration and wakes the drain wait.
func (a *admission) leave() {
	a.mu.Lock()
	a.inflight--
	a.cond.Broadcast()
	a.mu.Unlock()
}

// admit gates one request: a query execution (query true — it needs a slot
// and is tracked in flight) or an append's bytes (query false — the caller is
// already registered through enter). bytes is ignored without a budget. On
// success the caller owes exactly one release(bytes, query). It returns the
// time spent parked (0 on the fast path) and the typed admission error:
// ErrEngineClosed on a closed engine, ErrMemoryLimit when bytes exceed the
// whole budget (never grantable), ErrAdmissionRejected when the queue
// overflowed or the park expired (the caller's ctx fired or maxWait elapsed)
// — never ErrQueryCanceled/ErrQueryTimeout, per the classification contract
// above.
func (a *admission) admit(ctx context.Context, bytes int64, query bool) (wait time.Duration, err error) {
	if a.budget == 0 {
		bytes = 0
	}
	a.mu.Lock()
	if a.closed {
		a.shedClosed++
		a.mu.Unlock()
		if query {
			return 0, errClosed("execute")
		}
		return 0, errClosed("append")
	}
	if (!query || a.slots <= 0) && bytes <= 0 {
		// Nothing to wait for: admission only tracks the query for the Close
		// drain.
		a.grant(0, query)
		a.mu.Unlock()
		return 0, nil
	}
	// A context that expired before admission is a deterministic rejection,
	// whether or not the request would fit.
	if ctx.Err() != nil {
		a.shedExpired++
		a.mu.Unlock()
		return 0, qerr.Tag(
			fmt.Errorf("core: admission: context expired before admission: %w", ctx.Err()),
			qerr.ErrAdmissionRejected)
	}
	if bytes > a.budget {
		a.mu.Unlock()
		return 0, qerr.Tag(
			fmt.Errorf("core: admission: %d bytes exceed the %d-byte engine budget", bytes, a.budget),
			qerr.ErrMemoryLimit)
	}
	// Every parked waiter failed to fit at the last release, so an arrival
	// that fits now overtakes none that could have gone first.
	if a.fits(bytes, query) {
		a.grant(bytes, query)
		a.mu.Unlock()
		return 0, nil
	}
	if a.depth > 0 && len(a.queue) >= a.depth {
		a.shedOverflow++
		a.mu.Unlock()
		return 0, qerr.Tag(
			fmt.Errorf("core: admission: queue full (%d waiting)", a.depth),
			qerr.ErrAdmissionRejected)
	}
	// The fault point sits just before the park so the chaos suite can fail
	// the enqueue path; its guard converts an injected panic into a typed
	// error (the site runs outside every morsel recover boundary).
	if err := hitGuarded(faultpoint.AdmissionEnqueue); err != nil {
		a.mu.Unlock()
		return 0, qerr.Tag(err, qerr.ErrAdmissionRejected)
	}
	w := &admWaiter{bytes: bytes, query: query, ready: make(chan error, 1)}
	a.queue = append(a.queue, w)
	a.waits++
	a.mu.Unlock()

	start := time.Now()
	var timeout <-chan time.Time
	if a.maxWait > 0 {
		timer := time.NewTimer(a.maxWait)
		defer timer.Stop()
		timeout = timer.C
	}
	var cause error
	select {
	case shed := <-w.ready:
		wait = time.Since(start)
		a.recordWait(wait)
		return wait, shed
	case <-ctx.Done():
		cause = ctx.Err()
	case <-timeout:
		cause = fmt.Errorf("admission queue wait limit %v exceeded", a.maxWait)
	}
	wait = time.Since(start)
	a.recordWait(wait)
	if !a.abandon(w) {
		// The grant raced the expiry and won: give the grant back before
		// rejecting so it flows to the next waiter.
		if shed := <-w.ready; shed == nil {
			a.release(bytes, query)
		}
	}
	return wait, qerr.Tag(
		fmt.Errorf("core: admission: wait expired after %v: %w", wait.Round(time.Microsecond), cause),
		qerr.ErrAdmissionRejected)
}

// fits reports whether a request can be granted now. Caller holds mu.
func (a *admission) fits(bytes int64, query bool) bool {
	return (!query || a.slots <= 0 || a.running < a.slots) && (a.budget == 0 || a.reserved+bytes <= a.budget)
}

// grant books an admitted request. Caller holds mu.
func (a *admission) grant(bytes int64, query bool) {
	if query {
		a.running++
		a.inflight++
	}
	a.reserved += bytes
	a.peakReserved = max(a.peakReserved, a.reserved)
}

// hitGuarded runs a fault point's handler under a recover guard: the
// admission and close paths sit outside every morsel recover boundary, so an
// injected panic is converted into a typed *qerr.QueryError here instead of
// escaping through Execute or Close.
func hitGuarded(p *faultpoint.Point) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = qerr.Recovered(v, -1)
		}
	}()
	return p.Hit()
}

// recordWait books one finished queue wait into the counters.
func (a *admission) recordWait(d time.Duration) {
	a.mu.Lock()
	a.waitNS += d.Nanoseconds()
	a.mu.Unlock()
}

// abandon removes w from the queue if it is still parked, counting the shed;
// it reports false when w was already granted (or shed by close).
func (a *admission) abandon(w *admWaiter) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	for i, x := range a.queue {
		if x == w {
			a.queue = append(a.queue[:i], a.queue[i+1:]...)
			a.shedExpired++
			return true
		}
	}
	return false
}

// release returns what one admit granted — the bytes and, for a query, its
// slot and in-flight registration — then grants, in queue order, every
// waiter that now fits, and wakes the drain wait.
func (a *admission) release(bytes int64, query bool) {
	if a.budget == 0 {
		bytes = 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.reserved -= bytes
	if query {
		a.running--
		a.inflight--
	}
	parked := a.queue[:0]
	for _, w := range a.queue {
		if a.fits(w.bytes, w.query) {
			a.grant(w.bytes, w.query)
			w.ready <- nil
		} else {
			parked = append(parked, w)
		}
	}
	clear(a.queue[len(parked):])
	a.queue = parked
	a.cond.Broadcast()
}

// close stops admission: later enter/admit calls fail fast, and every parked
// request is shed with ErrEngineClosed. In-flight work is untouched — Close
// drains it separately.
func (a *admission) close() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return
	}
	a.closed = true
	for _, w := range a.queue {
		a.shedClosed++
		w.ready <- errClosed("queued request")
	}
	a.queue = nil
	a.cond.Broadcast()
}

// drain blocks until no query or operator call is in flight; it reports
// false when ctx fired first. Callers stop admission beforehand, so the
// in-flight count is monotonically non-increasing.
func (a *admission) drain(ctx context.Context) bool {
	var stop func() bool
	if ctx != nil {
		stop = context.AfterFunc(ctx, func() {
			a.mu.Lock()
			a.cond.Broadcast()
			a.mu.Unlock()
		})
		defer stop()
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for a.inflight > 0 {
		if ctx != nil && ctx.Err() != nil {
			return false
		}
		a.cond.Wait()
	}
	return true
}

// admCounters is a snapshot of the admission gate's state and lifetime
// counters, folded into Engine.Stats.
type admCounters struct {
	queued       int   // requests currently parked
	running      int   // queries currently admitted
	inflight     int   // queries + one-off calls currently in flight
	reserved     int64 // bytes currently granted
	peakReserved int64
	waits        int64
	waitNS       int64
	shedOverflow int64
	shedExpired  int64
	shedClosed   int64
	closed       bool
}

// counters snapshots the admission state.
func (a *admission) counters() admCounters {
	a.mu.Lock()
	defer a.mu.Unlock()
	return admCounters{
		queued:       len(a.queue),
		running:      a.running,
		inflight:     a.inflight,
		reserved:     a.reserved,
		peakReserved: a.peakReserved,
		waits:        a.waits,
		waitNS:       a.waitNS,
		shedOverflow: a.shedOverflow,
		shedExpired:  a.shedExpired,
		shedClosed:   a.shedClosed,
		closed:       a.closed,
	}
}
