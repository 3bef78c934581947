package core

import (
	"context"
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
// Cancellation: a watcher goroutine flips the scheduler to done when the
// context fires, so idle workers return immediately; workers running an
// operator notice the cancellation inside the morsel loops (within one
// morsel) and surface ctx.Err() through the node result.

// sched is the mutable scheduler state, guarded by mu. cancel is set once
// before the workers start and never mutated, so workers read it unlocked.
type sched struct {
	mu         sync.Mutex
	cond       *sync.Cond
	queue      []int   // node ids ready to run
	deps       []int   // open dependency count per node
	dependents [][]int // node ids waiting on each node
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
		} else if s.err == nil {
			es.outs[id] = produced
			pr.account(res, bn.n, produced, elapsed, es.keep)
			for _, d := range s.dependents[id] {
				s.deps[d]--
				if s.deps[d] == 0 {
					s.queue = append(s.queue, d)
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
