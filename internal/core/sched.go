package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"
)

// This file implements the plan execution, the one executor for every
// parallelism: a dependency-counting DAG scheduler that runs ready plan
// operators on a small pool of workers. Independent branches — e.g. the
// dimension-table selects of the SSB Q4.x plans — proceed concurrently, while
// every node still sees fully materialized inputs (operator-at-a-time
// semantics are preserved, so the produced columns are byte-identical at
// every width).
//
// A worker always takes the ready node with the lowest id. Node ids are a
// topological order (the builder only references already-built nodes), so a
// single worker — WithParallelism(1) — finds node k ready
// the moment nodes 0..k-1 are done: the sequential operator-at-a-time
// execution is this scheduler at width 1, nodes in plan order, one at a time.
//
// Worker-budget sharing is not the scheduler's job: the scheduler's own
// goroutines hold nothing, and each morsel worker an operator spawns holds
// one token of the engine-wide ops.Budget while it claims morsels, so the
// budget bounds the morsel workers of this query and of every concurrently
// executing query alike.
//
// Synchronization model: a node's outputs (execState.outs) are written by
// the worker that ran it and published under the scheduler mutex when its
// dependents' counters are decremented; a dependent is only popped from the
// ready queue under the same mutex, which establishes the happens-before
// edge for the outputs it reads. Result accounting happens under the mutex
// too, keeping the Measure maps race-free.
//
// Column lifetimes: a plan is a DAG of functions over columns, so each
// column's last reader is known before the plan runs. Prepare counts, per
// node, the nodes that read its outputs in an execution that does not keep
// every column (lifetimes). Such an execution decrements the count of each
// node a finished node read, under the mutex; at zero the node's columns are
// dead, and their words go back to the engine's buffer pool and their bytes
// leave the query's memory counter — so a worker's next operator can reuse
// them, and MemPeak is the peak of live intermediates. Never released: a
// scan's output (a stored column, or a snapshot's merged main+delta view),
// a result column, and every column of a WithKeep(true) execution. A failed
// execution releases everything it produced once its workers have stopped.
//
// Cancellation: a watcher goroutine flips the scheduler to done when the
// context fires, so idle workers return immediately; workers running an
// operator notice the cancellation inside the morsel loops (within one
// morsel) and surface ctx.Err() through the node result.

// lifetimes is the release schedule of a prepared plan, derived at Prepare
// over the inputs an execution that does not keep every column reads: a
// fused node's rewritten inputs, none for an elided node.
type lifetimes struct {
	reads   [][]int // per node, the nodes whose outputs it reads, each once
	readers []int   // per node, how many nodes read its outputs
}

// newLifetimes derives the release schedule of the bound plan.
func newLifetimes(bound []boundNode) lifetimes {
	lt := lifetimes{reads: make([][]int, len(bound)), readers: make([]int, len(bound))}
	for d, bn := range bound {
		inputs := bn.n.inputs
		if bn.alt != nil {
			inputs = bn.alt.inputs
		}
		for _, in := range inputs {
			if p := in.node.id; !slices.Contains(lt.reads[d], p) {
				lt.reads[d] = append(lt.reads[d], p)
				lt.readers[p]++
			}
		}
	}
	return lt
}

// sched is the mutable scheduler state, guarded by mu. cancel is set once
// before the workers start and never mutated, so workers read it unlocked.
type sched struct {
	mu         sync.Mutex
	cond       *sync.Cond
	queue      []int   // node ids ready to run
	deps       []int   // open dependency count per node
	dependents [][]int // node ids waiting on each node
	left       []int   // readers still to finish per node; nil when nothing is released
	completed  int
	total      int
	err        error
	done       bool
	cancel     context.CancelFunc // cancels the plan-internal context
}

// runPlan executes the plan DAG on min(par, nodes) workers, the calling
// goroutine being one of them. The plan runs under its own cancellable
// context derived from ctx: the first failing node cancels it, so the morsel
// loops of concurrently running sibling operators stop within one morsel
// instead of completing work whose result the failed execution can never use.
func (pr *Prepared) runPlan(ctx context.Context, es *execState, res *Result, par int) error {
	ctx, cancelPlan := context.WithCancel(ctx)
	defer cancelPlan()
	total := len(pr.p.nodes)
	s := &sched{
		deps:       make([]int, total),
		dependents: make([][]int, total),
		total:      total,
		cancel:     cancelPlan,
	}
	if !es.keep {
		s.left = slices.Clone(pr.life.readers)
	}
	s.cond = sync.NewCond(&s.mu)
	for _, n := range pr.p.nodes {
		seen := make(map[int]bool, len(n.inputs))
		for _, in := range n.inputs {
			id := in.node.id
			if !seen[id] {
				seen[id] = true
				s.deps[n.id]++
				s.dependents[id] = append(s.dependents[id], n.id)
			}
		}
	}
	for id := 0; id < total; id++ {
		if s.deps[id] == 0 {
			s.queue = append(s.queue, id)
		}
	}

	// The watcher turns a context cancellation into a scheduler wake-up so
	// workers parked on the condition variable return promptly.
	watchDone := make(chan struct{})
	stop := context.AfterFunc(ctx, func() {
		defer close(watchDone)
		s.mu.Lock()
		if s.err == nil && !s.done {
			s.err = ctx.Err()
			s.done = true
			s.cond.Broadcast()
		}
		s.mu.Unlock()
	})
	defer func() {
		if !stop() {
			<-watchDone // the watcher ran; wait so it cannot outlive Execute
		}
	}()

	var wg sync.WaitGroup
	for w := 1; w < min(par, total); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pr.schedWorker(ctx, s, es, res, par)
		}()
	}
	pr.schedWorker(ctx, s, es, res, par)
	wg.Wait()
	return s.err
}

// popLowest removes and returns the lowest ready node id (mu held, queue
// non-empty). The queue holds at most the plan's widest antichain — tens of
// ids — so a scan beats keeping it ordered.
func (s *sched) popLowest() int {
	m := 0
	for i, id := range s.queue {
		if id < s.queue[m] {
			m = i
		}
	}
	id, last := s.queue[m], len(s.queue)-1
	s.queue[m] = s.queue[last]
	s.queue = s.queue[:last]
	return id
}

// schedWorker pulls ready nodes until the plan completes or fails.
func (pr *Prepared) schedWorker(ctx context.Context, s *sched, es *execState, res *Result, par int) {
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.done {
			s.cond.Wait()
		}
		if s.done || len(s.queue) == 0 {
			s.mu.Unlock()
			return
		}
		id := s.popLowest()
		s.mu.Unlock()

		bn := &pr.bound[id]
		start := time.Now()
		produced, err := pr.runNode(ctx, es, bn, par)
		elapsed := time.Since(start)

		s.mu.Lock()
		if err != nil {
			if s.err == nil {
				s.err = err
			}
			s.done = true
			// Recorded under the mutex first, cancelled after: the watcher
			// checks done before overwriting err, so the node's error — not
			// the derived context's — is what Execute reports.
			s.cancel()
		} else {
			// Published even after a failure elsewhere: the failed
			// execution's final release then returns these columns too.
			es.outs[id] = produced
			if s.err == nil {
				es.seen[id] = observedOf(produced)
				pr.account(res, bn.n, produced, elapsed, es.keep)
				for _, d := range s.dependents[id] {
					s.deps[d]--
					if s.deps[d] == 0 {
						s.queue = append(s.queue, d)
					}
				}
				if err := pr.retire(es, s.left, id); err != nil {
					s.err, s.done = err, true
					s.cancel()
				}
			}
		}
		s.completed++
		if s.completed == s.total {
			s.done = true
		}
		s.cond.Broadcast()
		s.mu.Unlock()
	}
}

// retire counts node id, just published, off the readers of every node it
// read and releases the columns of each node left without one — id's own
// when nothing reads them. left is nil in an execution that keeps every
// column. mu is held.
func (pr *Prepared) retire(es *execState, left []int, id int) error {
	if left == nil {
		return nil
	}
	var err error
	if left[id] == 0 {
		err = pr.release(es, id, false)
	}
	for _, p := range pr.life.reads[id] {
		if left[p]--; left[p] == 0 {
			err = errors.Join(err, pr.release(es, p, false))
		}
	}
	return err
}

// release returns the columns of node id to the engine's buffer pool and
// their bytes to the query's memory counter, and forgets them. A scan's
// columns are never released, nor are result columns unless failed: a failed
// execution hands nothing to its caller. A column the execution's lease did
// not issue, or issued and took back already, is a bug; it is reported and
// not recycled.
func (pr *Prepared) release(es *execState, id int, failed bool) error {
	n := pr.bound[id].n
	if n.op == OpScan {
		return nil
	}
	var err error
	for i, col := range es.outs[id] {
		name := n.outNames[i]
		if pr.sinks[name] && !failed {
			continue
		}
		es.mres.Release(col.PhysicalBytes())
		if perr := es.bufs.Put(col.Words()); perr != nil {
			err = errors.Join(err, fmt.Errorf("core: release %q: %w", name, perr))
		}
	}
	es.outs[id] = nil
	return err
}

// releaseAll is the release of a failed execution, once its workers have
// stopped: every column it produced that is still held.
func (pr *Prepared) releaseAll(es *execState) {
	for id := range es.outs {
		_ = pr.release(es, id, true) // the execution has failed already
	}
}
