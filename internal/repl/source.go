package repl

import (
	"container/heap"
	"sync"
	"sync/atomic"
	"time"
)

// Frame is one replication stream item ready for fan-out: an encoded
// payload (wal record bytes for FrameRecord, ddl body for FrameDDL) plus
// its LSN coordinates. Span is 0 for DDL annotations.
type Frame struct {
	Type    byte
	Payload []byte
	LSN     uint64
	Span    uint64
}

// Sub is one follower stream's subscription. StartLSN is the source's
// released cursor at subscribe time: every record frame delivered on C has
// LSN > StartLSN, so the subscriber owes itself a disk catch-up over
// (from, StartLSN] and nothing else. C is closed (after removal from the
// fan-out) if the subscriber falls behind the buffer — the reader then
// re-subscribes and catches up from its last delivered LSN.
type Sub struct {
	C        chan Frame
	StartLSN uint64
}

// staged is a tapped record waiting for its durability notification.
type staged struct {
	seq uint64
	f   Frame
}

// logStage buffers one log's tapped records between append and fsync.
// Appends arrive seq-ascending under the log's own mutex; durability
// notifications release a prefix.
type logStage struct {
	mu   sync.Mutex
	fifo []staged
}

// frameHeap orders durable frames by LSN, records before same-LSN DDL
// annotations (a DDL staged at LSN L follows the record that allocated L).
type frameHeap []Frame

func (h frameHeap) Len() int { return len(h) }
func (h frameHeap) Less(i, j int) bool {
	if h[i].LSN != h[j].LSN {
		return h[i].LSN < h[j].LSN
	}
	return h[i].Span > h[j].Span
}
func (h frameHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *frameHeap) Push(x any)   { *h = append(*h, x.(Frame)) }
func (h *frameHeap) Pop() any {
	old := *h
	n := len(old)
	f := old[n-1]
	old[n-1] = Frame{}
	*h = old[:n-1]
	return f
}

// FollowerAck is one attached follower's acknowledged LSN.
type FollowerAck struct {
	ID       string `json:"id"`
	AckedLSN uint64 `json:"acked_lsn"`
}

// Source is the primary side of replication. It taps every WAL log for
// encoded record payloads, holds them until their fsync completes, releases
// them in global LSN order, and fans identical frames out to subscribed
// follower streams. It also tracks per-follower acknowledgements for the
// sync ack mode.
//
// Release invariant: next is the lowest LSN not yet released; a record
// frame releases only when its LSN == next (then next += span), and a DDL
// annotation at LSN L releases once next > L — i.e. after every record up
// to and including L. A record's LSNs are one span drawn in one step, and
// replay applies a record at the LSNs it carries, so a follower applying
// the stream in arrival order reproduces the primary's exact LSN
// assignment.
type Source struct {
	stages []*logStage

	mu   sync.Mutex
	next uint64 // lowest unreleased LSN
	heap frameHeap
	subs map[*Sub]struct{}

	released  atomic.Uint64 // next-1: the durable released cursor
	staged    atomic.Int64  // frames staged, lifetime
	emitted   atomic.Int64  // frames released to fan-out, lifetime
	overflows atomic.Int64  // subscriber buffers overflowed, lifetime

	ackMu    sync.Mutex
	acks     map[string]uint64
	attached map[string]int
	maxAcked uint64
	ackWake  chan struct{} // closed and replaced whenever maxAcked advances
}

// NewSource builds a source for nLogs tapped logs with lastLSN the highest
// LSN already durable at open (recovery's frontier): streaming starts at
// lastLSN+1, and anything older is served from the segment set on disk.
func NewSource(nLogs int, lastLSN uint64) *Source {
	s := &Source{
		stages:   make([]*logStage, nLogs),
		next:     lastLSN + 1,
		subs:     make(map[*Sub]struct{}),
		acks:     make(map[string]uint64),
		attached: make(map[string]int),
		ackWake:  make(chan struct{}),
	}
	for i := range s.stages {
		s.stages[i] = &logStage{}
	}
	s.released.Store(lastLSN)
	return s
}

// Tap returns the (onAppend, onDurable) pair to install on log i via
// wal.Log.SetTap. onAppend copies the encoded payload (the log's scratch
// buffer is reused) and stages it; onDurable moves the durable prefix into
// the LSN heap and releases whatever became contiguous.
func (s *Source) Tap(i int) (onAppend func(payload []byte, lsn, span, seq uint64), onDurable func(seq uint64)) {
	st := s.stages[i]
	onAppend = func(payload []byte, lsn, span, seq uint64) {
		f := Frame{
			Type:    FrameRecord,
			Payload: append([]byte(nil), payload...),
			LSN:     lsn,
			Span:    span,
		}
		st.mu.Lock()
		st.fifo = append(st.fifo, staged{seq: seq, f: f})
		st.mu.Unlock()
		s.staged.Add(1)
	}
	onDurable = func(seq uint64) {
		st.mu.Lock()
		n := 0
		for n < len(st.fifo) && st.fifo[n].seq <= seq {
			n++
		}
		if n == 0 {
			st.mu.Unlock()
			return
		}
		durable := make([]Frame, n)
		for j := 0; j < n; j++ {
			durable[j] = st.fifo[j].f
		}
		st.fifo = append(st.fifo[:0], st.fifo[n:]...)
		st.mu.Unlock()

		s.mu.Lock()
		for _, f := range durable {
			heap.Push(&s.heap, f)
		}
		s.releaseLocked()
		s.mu.Unlock()
	}
	return onAppend, onDurable
}

// StageDDL stages a catalog statement for fan-out: idx is its 0-based
// position in the primary's catalog, lsn the engine LSN frontier at DDL
// time (the record order it must follow). The catalog fsync already made
// it durable, so it goes straight to the heap.
func (s *Source) StageDDL(idx, lsn uint64, stmt string) {
	f := Frame{
		Type:    FrameDDL,
		Payload: AppendDDLFrame(nil, idx, lsn, stmt)[9:], // body without envelope+type
		LSN:     lsn,
		Span:    0,
	}
	s.staged.Add(1)
	s.mu.Lock()
	heap.Push(&s.heap, f)
	s.releaseLocked()
	s.mu.Unlock()
}

// releaseLocked pops the heap while its top is releasable and emits to
// every subscriber. Duplicate record LSNs (impossible in a healthy engine)
// are dropped rather than wedging the stream.
func (s *Source) releaseLocked() {
	for s.heap.Len() > 0 {
		top := s.heap[0]
		if top.Span == 0 {
			if top.LSN >= s.next {
				break // DDL waits for the record that allocated its LSN
			}
		} else if top.LSN != s.next {
			if top.LSN > s.next {
				break // gap: an earlier LSN is still in some log's fifo
			}
			heap.Pop(&s.heap) // stale duplicate; drop
			continue
		}
		f := heap.Pop(&s.heap).(Frame)
		if f.Span > 0 {
			s.next = f.LSN + f.Span
			s.released.Store(s.next - 1)
		}
		s.emitted.Add(1)
		for sub := range s.subs {
			select {
			case sub.C <- f:
			default:
				// Slow subscriber: shed it. The stream handler sees the
				// close and re-catches-up from its last delivered LSN.
				delete(s.subs, sub)
				close(sub.C)
				s.overflows.Add(1)
			}
		}
	}
}

// FollowerBuffer is the live fan-out buffer, in frames, the server gives each
// follower stream; a follower that falls further behind is shed to disk
// catch-up.
const FollowerBuffer = 1024

// Subscribe registers a fan-out stream with the given channel buffer.
func (s *Source) Subscribe(buffer int) *Sub {
	s.mu.Lock()
	sub := &Sub{C: make(chan Frame, buffer), StartLSN: s.next - 1}
	s.subs[sub] = struct{}{}
	s.mu.Unlock()
	return sub
}

// Unsubscribe removes sub; safe to call after an overflow shed.
func (s *Source) Unsubscribe(sub *Sub) {
	s.mu.Lock()
	if _, ok := s.subs[sub]; ok {
		delete(s.subs, sub)
		close(sub.C)
	}
	s.mu.Unlock()
}

// Cursor returns the durable released LSN frontier (heartbeat payload).
func (s *Source) Cursor() uint64 { return s.released.Load() }

// Attach registers a follower connection for ack accounting; Detach
// unregisters it. Attach/Detach are reference-counted per follower id so a
// reconnect racing its predecessor's teardown doesn't lose the follower.
func (s *Source) Attach(id string) {
	s.ackMu.Lock()
	s.attached[id]++
	s.ackMu.Unlock()
}

// Detach removes one reference to follower id. Dropping the last follower
// wakes every WaitAcked waiter so sync-mode writes degrade immediately
// instead of sleeping out their timeout against nobody.
func (s *Source) Detach(id string) {
	s.ackMu.Lock()
	if s.attached[id]--; s.attached[id] <= 0 {
		delete(s.attached, id)
	}
	if len(s.attached) == 0 {
		close(s.ackWake)
		s.ackWake = make(chan struct{})
	}
	s.ackMu.Unlock()
}

// Ack records follower id as having applied everything through lsn.
func (s *Source) Ack(id string, lsn uint64) {
	s.ackMu.Lock()
	if lsn > s.acks[id] {
		s.acks[id] = lsn
	}
	if lsn > s.maxAcked {
		s.maxAcked = lsn
		close(s.ackWake)
		s.ackWake = make(chan struct{})
	}
	s.ackMu.Unlock()
}

// WaitAcked blocks until at least one follower has acknowledged lsn
// (semi-synchronous ack: the write survives the loss of the primary) or
// the timeout elapses. It returns false — degrade, don't block the write
// path forever — on timeout or when no follower is attached at all.
func (s *Source) WaitAcked(lsn uint64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	s.ackMu.Lock()
	for s.maxAcked < lsn {
		if len(s.attached) == 0 {
			s.ackMu.Unlock()
			return false
		}
		wake := s.ackWake
		s.ackMu.Unlock()
		wait := time.Until(deadline)
		if wait <= 0 {
			return false
		}
		t := time.NewTimer(wait)
		select {
		case <-wake:
			t.Stop()
		case <-t.C:
			s.ackMu.Lock()
			ok := s.maxAcked >= lsn
			s.ackMu.Unlock()
			return ok
		}
		s.ackMu.Lock()
	}
	s.ackMu.Unlock()
	return true
}

// Followers snapshots the ack table for stats.
func (s *Source) Followers() []FollowerAck {
	s.ackMu.Lock()
	out := make([]FollowerAck, 0, len(s.attached))
	for id := range s.attached {
		out = append(out, FollowerAck{ID: id, AckedLSN: s.acks[id]})
	}
	s.ackMu.Unlock()
	return out
}

// SourceStats is a counters snapshot for /stats.
type SourceStats struct {
	Cursor    uint64
	Staged    int64
	Emitted   int64
	Overflows int64
	Followers int
}

// Stats snapshots the source counters.
func (s *Source) Stats() SourceStats {
	s.ackMu.Lock()
	nf := len(s.attached)
	s.ackMu.Unlock()
	return SourceStats{
		Cursor:    s.released.Load(),
		Staged:    s.staged.Load(),
		Emitted:   s.emitted.Load(),
		Overflows: s.overflows.Load(),
		Followers: nf,
	}
}
