package engine

import (
	"sync"
	"sync/atomic"

	"chronicledb/internal/chronicle"
	"chronicledb/internal/view"
)

// maintTask is one view's share of a maintenance batch: precomputed
// expression delta rows waiting to be folded into the view. first is the
// fold's answer: the view had nothing unpublished before it, so the call
// now owes it a Publish.
type maintTask struct {
	v     *view.View
	rows  []chronicle.Row
	first bool
}

func (t *maintTask) fold() { t.first = t.v.ApplyRows(t.rows) }

// maintPool folds one batch's maintenance tasks across a fixed set of
// helper goroutines. Each task targets a distinct view (the engine dedups
// targets per batch), and ApplyRows on distinct views is independent —
// each view locks only itself — so tasks can run in any order and in
// parallel without changing the materialized result. Ordering that DOES
// matter (batch-vs-batch LSN order per view, feed capture order) is
// preserved structurally: the engine captures feed deltas before hand-off
// and run() blocks until every task of the batch has retired, so batch N+1
// cannot start while any view still folds batch N.
//
// The pool is engineered for the append hot path: workers are persistent
// (spawned once), work distribution is an atomic cursor over a caller-owned
// slice, and wake-up is a token on a pre-allocated channel — a run performs
// zero heap allocations.
type maintPool struct {
	workers int // helper goroutines (total parallelism = workers + caller)
	wake    chan struct{}
	quit    chan struct{}
	wg      sync.WaitGroup // worker lifetimes, for stop()

	// Per-run state. tasks is published to workers by the wake send and
	// reclaimed after active.Wait(), so workers never observe a stale or
	// reused slice. cursor hands out task indexes.
	tasks  []maintTask
	cursor atomic.Int64
	active sync.WaitGroup // woken workers that have not yet retired

	stopOnce sync.Once
}

// newMaintPool starts workers helper goroutines (at least 1).
func newMaintPool(workers int) *maintPool {
	p := &maintPool{
		workers: workers,
		wake:    make(chan struct{}, workers),
		quit:    make(chan struct{}),
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *maintPool) worker() {
	defer p.wg.Done()
	for {
		select {
		case <-p.quit:
			return
		case <-p.wake:
			p.drain()
			// Retire only after drain has finished reading p.tasks: run()
			// waits on active before reclaiming the slice.
			p.active.Done()
		}
	}
}

// drain executes tasks until the shared cursor runs off the end.
func (p *maintPool) drain() {
	n := int64(len(p.tasks))
	for {
		i := p.cursor.Add(1) - 1
		if i >= n {
			return
		}
		p.tasks[i].fold()
	}
}

// run folds every task and returns when all are done. The caller owns
// tasks again after return. Not safe for concurrent use (the engine calls
// it under its mutation lock).
func (p *maintPool) run(tasks []maintTask) {
	p.tasks = tasks
	p.cursor.Store(0)
	// Wake at most len(tasks)-1 helpers: the caller participates, so a
	// two-task batch needs exactly one helper.
	k := p.workers
	if m := len(tasks) - 1; k > m {
		k = m
	}
	p.active.Add(k)
	for i := 0; i < k; i++ {
		p.wake <- struct{}{}
	}
	p.drain()
	p.active.Wait()
	p.tasks = nil
}

// stop terminates the workers. Idempotent; must not race a run in flight.
func (p *maintPool) stop() {
	p.stopOnce.Do(func() {
		close(p.quit)
		p.wg.Wait()
	})
}
