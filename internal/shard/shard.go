// Package shard implements the execution kernel: a Router hashes every
// chronicle group — and, via the dispatch dependency registry, the views
// defined over it — onto one of N single-writer shards, each owning a
// private engine instance, a combining append queue, its own
// maintenance-latency histogram, and (wired up by the public facade) its
// own WAL stream.
//
// The design exploits the structure of the chronicle data model directly:
// groups share a sequence-number domain but are mutually independent, and
// chronicles are insert-only, so per-group streams parallelize without
// coordination. The one cross-cutting mutation — a proactive relation
// update (§2.3) — is applied under an epoch barrier: the router stamps a
// global LSN, quiesces every shard's in-flight passes, applies the update
// to the shared relation state every shard's views read, and
// resumes. Because all shards draw LSNs from one shared allocator, the
// paper's semantics hold globally: a relation update is ordered before
// exactly the appends that started after it, on every shard.
package shard

import (
	"errors"
	"sync"

	"chronicledb/internal/engine"
	"chronicledb/internal/feed"
	"chronicledb/internal/wal"
)

// maxCoalesce bounds how many appends one pass applies under a single
// epoch-gate acquisition and a single commit.
const maxCoalesce = 128

var errClosed = errors.New("shard: router closed")

// appendReq is one append call on its way through a shard's combining queue.
// Requests are pooled: a caller fills one, submits it, reads the result and
// puts it back, so the steady-state append path allocates nothing here.
type appendReq struct {
	rec wal.Record // the call, applied by engine.Engine.Append

	first, last int64
	deduped     bool
	err         error

	// wake carries the one message a queued request gets: false once a
	// leader's pass has answered it, true when it is handed the lead with
	// its own request still to apply. Capacity 1, so the sender never blocks.
	wake chan bool
}

var reqPool = sync.Pool{New: func() any { return &appendReq{wake: make(chan bool, 1)} }}

func getReq() *appendReq { return reqPool.Get().(*appendReq) }

// putReq returns q to the pool, dropping its references to caller memory.
func putReq(q *appendReq) {
	*q = appendReq{wake: q.wake}
	reqPool.Put(q)
}

func (q *appendReq) apply(eng *engine.Engine) {
	q.first, q.last, q.deduped, q.err = eng.Append(q.rec)
}

// shardState is one single-writer shard: an engine plus the combining queue
// that keeps one applier on it at a time without a dedicated goroutine. The
// caller that finds the shard idle takes the lead and runs a pass on its
// own goroutine; callers arriving meanwhile queue and sleep. A leader
// leaving a non-empty queue hands the lead to its head, so the queue drains
// in arrival order and an uncontended append never changes goroutine.
type shardState struct {
	id  int
	eng *engine.Engine
	// commit, when set, makes a pass durable (the shard WAL stream's
	// group-commit door). One fsync acknowledges every request of the pass.
	commit func() error
	// feeds is set once a changefeed hub is installed in eng (before
	// traffic): only then does a pass have frames to detach.
	feeds bool

	mu     sync.Mutex
	busy   bool         // a caller holds the lead
	closed bool         // no new requests; queued ones still drain
	queue  []*appendReq // waiting requests, arrival order
	batch  []*appendReq // the current leader's pass (scratch, reused)
	idle   sync.Cond    // signalled when busy clears on a closed shard
}

// do runs req through the shard and returns once it has been applied and —
// when a commit hook is installed — made durable, with its result fields
// set: req.err is the apply error, the commit error, or errClosed.
func (s *shardState) do(gate *sync.RWMutex, req *appendReq) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		req.err = errClosed
		return
	}
	if s.busy {
		s.queue = append(s.queue, req)
		s.mu.Unlock()
		if promoted := <-req.wake; !promoted {
			return
		}
		s.mu.Lock()
	}
	// This caller leads: its own request plus whatever queued behind it.
	s.busy = true
	n := min(len(s.queue), maxCoalesce-1)
	batch := append(append(s.batch[:0], req), s.queue[:n]...)
	s.batch = batch
	rest := copy(s.queue, s.queue[n:])
	clear(s.queue[rest:])
	s.queue = s.queue[:rest]
	s.mu.Unlock()

	// The pass holds the router's epoch gate (read side) so relation updates
	// can quiesce every shard by taking the write side.
	gate.RLock()
	for _, q := range batch {
		q.apply(s.eng)
	}
	// View deltas captured by the pass stay pending in the engine until
	// detached here, so the single commit below decides the fate of all of
	// its frames.
	var fb *feed.Batch
	if s.feeds {
		fb = s.eng.TakeFeed()
	}
	// Group commit: one fsync covers the whole pass. No request is answered
	// until it is durable; a commit failure un-acks every request the fsync
	// would have covered.
	var cerr error
	if s.commit != nil {
		if cerr = s.commit(); cerr != nil {
			for _, q := range batch {
				if q.err == nil {
					q.err = cerr
				}
			}
		}
	}
	// Publish-after-commit: frames reach subscribers only once durable, and
	// before the requests are answered, so an acked append's delta is
	// already in flight to every watcher.
	if cerr != nil {
		fb.Abandon()
	} else {
		fb.Publish()
	}
	gate.RUnlock()

	// A woken follower may recycle its request at once: nothing below reads
	// a request after its wake send.
	for _, q := range batch[1:] {
		q.wake <- false
	}
	s.mu.Lock()
	if len(s.queue) > 0 {
		next := s.queue[0]
		rest := copy(s.queue, s.queue[1:])
		s.queue[rest] = nil
		s.queue = s.queue[:rest]
		s.mu.Unlock()
		next.wake <- true
		return
	}
	s.busy = false
	if s.closed {
		s.idle.Broadcast()
	}
	s.mu.Unlock()
}

// close rejects new requests and returns once the lead is released, which
// happens only after everything already queued has been answered.
func (s *shardState) close() {
	s.mu.Lock()
	s.closed = true
	for s.busy {
		s.idle.Wait()
	}
	s.mu.Unlock()
}
