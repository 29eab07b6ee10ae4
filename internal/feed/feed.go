// Package feed implements changefeeds: per-view delta publication to live
// subscribers with LSN cursors.
//
// The paper's central claim is that view deltas are cheap to compute
// incrementally; until now the engine computed every delta, folded it into
// the materialization, and threw it away. The feed hub makes the delta
// stream itself a product: the engine captures each persistent view's
// expression delta at maintenance time, each row stamped with its
// mutation's LSN, and — strictly after the WAL commit that covers it —
// publishes it to every subscriber of that view.
//
// Correctness invariants:
//
//   - Publish-after-commit. A captured batch is published only after the
//     group-commit fsync covering its mutations succeeds. A crash can never
//     un-happen a delivered delta; on commit failure the batch is abandoned
//     (and the database latches read-only anyway).
//
//   - Per-view LSN order. Door tickets are drawn under the engine mutex in
//     the same order LSNs are allocated, and Publish retires tickets in
//     order, so a view's frames are published in strictly increasing LSN
//     order even when concurrent commits return out of order.
//
//   - Atomic resume. Subscribe registers the subscription and preloads the
//     tail backlog under the per-view mutex in one critical section, so a
//     frame published concurrently with Subscribe lands in exactly one of
//     backlog or live ring — never both, never neither.
//
// Memory model: a frame is one view's delta from one maintenance round —
// one append call, one delta per LSN — packed into one byte slab. Frames
// are pooled and reference-counted. The tail holds one reference; each
// subscriber enqueue adds one. The slab keeps its capacity in the pool, so
// the steady-state capture and publish path allocates nothing per delta
// per subscriber. The tail and the subscriber rings hold whole frames but
// are bounded in deltas, the unit a cursor counts.
package feed

import (
	"encoding/binary"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"chronicledb/internal/chronicle"
	"chronicledb/internal/value"
)

// Config sizes the hub's bounded buffers.
type Config struct {
	// TailFrames is the per-view in-memory resume window, in deltas
	// (LSNs): a reconnecting subscriber whose cursor is within the view's
	// last TailFrames deltas catches up from the tail; older cursors fall
	// back to a snapshot read. The tail holds whole frames, so it may keep
	// one frame more than that. Zero means DefaultTailFrames.
	TailFrames int
	// Ring is the per-subscriber live buffer, in deltas. A subscriber a
	// frame would take past Ring pending deltas is shed (ReasonSlow) rather
	// than allowed to apply backpressure to the append path. Zero means
	// DefaultRing. A ring starts at ringStart frame slots and doubles as
	// frames wait in it, up to Ring.
	Ring int
}

// Defaults for Config's zero values.
const (
	DefaultTailFrames = 1024
	DefaultRing       = 256
)

// ringStart is a new subscription's ring, in frame slots: a subscriber that keeps
// up never needs more, and one that falls behind grows it.
const ringStart = 16

// Stats is a point-in-time snapshot of the hub counters.
type Stats struct {
	Subscribers      int64  // currently registered subscriptions
	SubscribedTotal  uint64 // subscriptions ever registered
	Published        uint64 // deltas (LSNs) published
	RowsPublished    uint64 // delta rows across all published frames
	DroppedSlow      uint64 // subscriptions shed for ring overflow
	CatchupsTail     uint64 // resumes served from the in-memory tail
	CatchupsSnapshot uint64 // resumes that needed a snapshot read
	Evicted          uint64 // deltas evicted from the tail (horizon advances)
}

// ResumeKind reports how a subscription's catch-up is served.
type ResumeKind uint8

const (
	// ResumeTail means the cursor is inside the in-memory tail window: the
	// missed frames were preloaded into the subscription's backlog and the
	// stream is gapless from fromLSN without any snapshot read.
	ResumeTail ResumeKind = iota
	// ResumeSnapshot means the cursor predates the tail horizon (or there
	// is no cursor): the caller must load a view snapshot, deliver it, and
	// then filter live frames with LSN ≤ the snapshot's applied LSN.
	ResumeSnapshot
)

// String names the resume kind for wire protocols.
func (k ResumeKind) String() string {
	if k == ResumeTail {
		return "tail"
	}
	return "snapshot"
}

// CloseReason says why a subscription stopped.
type CloseReason uint8

const (
	ReasonNone    CloseReason = iota
	ReasonSlow                // ring overflow: subscriber too slow for the feed
	ReasonDropped             // the view was dropped
	ReasonClosed              // subscriber-initiated close
)

// String names the close reason for wire protocols.
func (r CloseReason) String() string {
	switch r {
	case ReasonSlow:
		return "slow"
	case ReasonDropped:
		return "dropped"
	case ReasonClosed:
		return "closed"
	}
	return "none"
}

// Frame is one view's delta from one maintenance round: the expression
// delta rows that maintenance folded into the view, each stamped with its
// mutation's LSN, packed into one pooled byte slab. A round folds a whole
// append call, so a frame carries one delta per LSN of the call; its LSN is the highest of them. Frames are immutable after capture,
// pooled, and reference-counted; every consumer that receives a frame from
// Drain must Release it.
type Frame struct {
	View string
	LSN  uint64

	refs   atomic.Int32
	deltas int    // distinct LSNs among the rows
	rows   int    // rows packed in slab
	cells  int    // tuple cells across the rows: Decode sizes its arena once
	slab   []byte // per row: SN, chronon step change and LSN as varints (see newFrame), then value.AppendTuple
}

var framePool = sync.Pool{New: func() any { return new(Frame) }}

// newFrame packs rows, which ascend in LSN, into pooled storage. A row's SN
// and LSN are stored less the previous row's, its chronon as the change in
// that step (the first row's in full, the second's less the first's): a
// call reads the clock once a tuple, so its chronons step evenly and a row
// takes one byte for it. The slab keeps its capacity in the pool; one that
// has to grow is cut to the size the rows take, so a tail of frames holds no
// growth slack.
func newFrame(view string, lsn uint64, rows []chronicle.Row) *Frame {
	f := framePool.Get().(*Frame)
	f.View, f.LSN = view, lsn
	f.refs.Store(1)
	f.deltas, f.rows, f.cells = 0, len(rows), 0
	slab, room := f.slab[:0], cap(f.slab)
	var prev chronicle.Row
	var step int64 // the chronon step into the previous row, 0 into the first
	for i, r := range rows {
		if f.deltas == 0 || r.LSN != prev.LSN {
			f.deltas++
		}
		d := r.Chronon - prev.Chronon
		slab = binary.AppendVarint(slab, r.SN-prev.SN)
		slab = binary.AppendVarint(slab, d-step)
		slab = binary.AppendUvarint(slab, r.LSN-prev.LSN)
		if i > 0 {
			step = d
		}
		slab = value.AppendTuple(slab, r.Vals)
		f.cells += len(r.Vals)
		prev = r
	}
	if cap(slab) != room {
		slab = append(make([]byte, 0, len(slab)), slab...)
	}
	f.slab = slab
	return f
}

// Decode appends the frame's rows, in LSN order, to dst, their tuples cut
// from arena, and returns both. The string cells share one copy of the
// slab made here, never the slab itself, so decoded rows stay valid after
// the frame is released and its slab is reused by a later capture.
func (f *Frame) Decode(dst []chronicle.Row, arena value.Tuple) ([]chronicle.Row, value.Tuple) {
	// The arena gets its room before any tuple is cut from it: growing it
	// mid-fill would leave earlier rows on the old array.
	arena = slices.Grow(arena[:0], f.cells)
	s := string(f.slab)
	var r chronicle.Row
	var step int64 // as newFrame keeps it
	for i, off := 0, 0; off < len(s); i++ {
		sn, n := binary.Varint(f.slab[off:])
		off += n
		change, n := binary.Varint(f.slab[off:])
		off += n
		lsn, n := binary.Uvarint(f.slab[off:])
		off += n
		d := step + change
		if i > 0 {
			step = d
		}
		r.SN, r.Chronon, r.LSN = r.SN+sn, r.Chronon+d, r.LSN+lsn
		start := len(arena)
		arena, n, _ = value.DecodeTupleString(arena, s[off:])
		off += n
		r.Vals = arena[start:len(arena):len(arena)]
		dst = append(dst, r)
	}
	return dst, arena
}

func (f *Frame) retain() { f.refs.Add(1) }

// Release returns the caller's reference; the last release recycles the
// frame (its slab keeps its capacity for the pool).
func (f *Frame) Release() {
	if f.refs.Add(-1) != 0 {
		return
	}
	f.View, f.LSN = "", 0
	framePool.Put(f)
}

// frameQueue is a circular queue of frames that grows by doubling, and
// counts the deltas its frames carry: the tail and the subscriber rings
// hold whole frames but are bounded in deltas.
type frameQueue struct {
	buf     []*Frame
	head, n int
	deltas  int
}

// push appends f, doubling a full buffer up to most slots; the caller
// keeps the queue under most frames.
func (q *frameQueue) push(f *Frame, most int) {
	if q.n == len(q.buf) {
		buf := make([]*Frame, min(max(2*len(q.buf), ringStart), most))
		copy(buf[copy(buf, q.buf[q.head:]):], q.buf[:q.head])
		q.buf, q.head = buf, 0
	}
	q.buf[(q.head+q.n)%len(q.buf)] = f
	q.n++
	q.deltas += f.deltas
}

// at returns the i-th oldest frame.
func (q *frameQueue) at(i int) *Frame { return q.buf[(q.head+i)%len(q.buf)] }

// pop removes and returns the oldest frame, which passes to the caller
// with the queue's reference.
func (q *frameQueue) pop() *Frame {
	f := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	q.deltas -= f.deltas
	return f
}

// Door orders publishes from one engine. Tickets are drawn under the
// engine mutex — the same critical section that allocates LSNs — and
// Publish/Abandon retire them in ticket order, so frames reach the hub in
// LSN order even though commits complete concurrently.
type Door struct {
	mu   sync.Mutex
	cond *sync.Cond
	next uint64 // last ticket issued
	done uint64 // last ticket retired
}

// NewDoor creates a publish door. One per engine.
func NewDoor() *Door {
	d := &Door{}
	d.cond = sync.NewCond(&d.mu)
	return d
}

func (d *Door) ticket() uint64 {
	d.mu.Lock()
	d.next++
	t := d.next
	d.mu.Unlock()
	return t
}

func (d *Door) await(t uint64) {
	d.mu.Lock()
	for d.done != t-1 {
		d.cond.Wait()
	}
	d.mu.Unlock()
}

func (d *Door) retire(t uint64) {
	d.mu.Lock()
	d.done = t
	d.cond.Broadcast()
	d.mu.Unlock()
}

// Batch accumulates the frames captured during one commit unit (one
// coalesced shard pass). Publish and Abandon are nil-safe so callers can
// thread a maybe-nil batch without branching.
type Batch struct {
	hub    *Hub
	door   *Door
	ticket uint64
	frames []*Frame
}

var batchPool = sync.Pool{New: func() any { return new(Batch) }}

// Begin opens a batch and draws its publish ticket. Call under the engine
// mutex at the first capture of the commit unit, so ticket order matches
// LSN order.
func (h *Hub) Begin(d *Door) *Batch {
	b := batchPool.Get().(*Batch)
	b.hub, b.door, b.ticket = h, d, d.ticket()
	return b
}

// Capture packs one view's delta rows for one maintenance round into one
// frame of the batch. The rows ascend in LSN, each carrying its own; lsn is
// the highest, the frame's LSN. Rows are copied immediately: the caller's
// slices are engine scratch reused by the next round.
func (b *Batch) Capture(view string, lsn uint64, rows []chronicle.Row) {
	if len(rows) == 0 {
		return
	}
	b.frames = append(b.frames, newFrame(view, lsn, rows))
}

// Empty reports whether the batch captured no frames.
func (b *Batch) Empty() bool { return b == nil || len(b.frames) == 0 }

// Publish hands every captured frame to the hub, in capture order, after
// waiting for all earlier tickets from the same door. Call only after the
// WAL commit covering the batch succeeded.
func (b *Batch) Publish() {
	if b == nil {
		return
	}
	b.door.await(b.ticket)
	for _, f := range b.frames {
		b.hub.publish(f)
	}
	b.door.retire(b.ticket)
	b.free()
}

// Abandon retires the batch's ticket without publishing (commit failure).
// It still waits its turn: door tickets must retire in order.
func (b *Batch) Abandon() {
	if b == nil {
		return
	}
	b.door.await(b.ticket)
	b.door.retire(b.ticket)
	for _, f := range b.frames {
		f.Release()
	}
	b.free()
}

func (b *Batch) free() {
	for i := range b.frames {
		b.frames[i] = nil
	}
	b.frames = b.frames[:0]
	b.hub, b.door, b.ticket = nil, nil, 0
	batchPool.Put(b)
}

// Hub is the process-wide changefeed fan-out: per-view tail rings for
// resume, per-subscriber bounded rings for live delivery, and the counters
// behind the feed_* stats.
type Hub struct {
	cfg Config

	mu    sync.RWMutex
	views map[string]*feedView

	// base is the checkpoint horizon: deltas with LSN ≤ base predate the
	// restored checkpoint and are not individually available, so resumes
	// from before it must go through a snapshot.
	base atomic.Uint64

	subscribers     atomic.Int64
	subscribedTotal atomic.Uint64
	published       atomic.Uint64
	rowsPublished   atomic.Uint64
	droppedSlow     atomic.Uint64
	catchupTail     atomic.Uint64
	catchupSnap     atomic.Uint64
	evicted         atomic.Uint64
}

// NewHub creates a hub.
func NewHub(cfg Config) *Hub {
	if cfg.TailFrames <= 0 {
		cfg.TailFrames = DefaultTailFrames
	}
	if cfg.Ring <= 0 {
		cfg.Ring = DefaultRing
	}
	return &Hub{cfg: cfg, views: make(map[string]*feedView)}
}

// feedView is one view's feed state. mu guards the tail ring, the head
// cursor, and every registered subscription's queue (publish already holds
// it, so subscriber queues share it rather than adding a second lock to
// the publish path).
type feedView struct {
	hub *Hub

	mu         sync.Mutex
	tail       frameQueue // the resume window, at least Config.TailFrames deltas once that many were published
	evictedLSN uint64     // highest LSN evicted from the tail
	headLSN    uint64     // highest LSN published
	subs       map[*Subscription]struct{}
}

func (h *Hub) viewFeed(name string) *feedView {
	h.mu.RLock()
	fv := h.views[name]
	h.mu.RUnlock()
	if fv != nil {
		return fv
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if fv = h.views[name]; fv != nil {
		return fv
	}
	fv = &feedView{hub: h, subs: make(map[*Subscription]struct{})}
	h.views[name] = fv
	return fv
}

// publish appends the frame (which arrives holding the tail's reference)
// to the view's tail and enqueues it to every live subscriber. The tail
// then evicts its oldest frames for as long as the rest still hold
// Config.TailFrames deltas, so every cursor among the last TailFrames
// deltas stays inside it. A subscriber whose ring would pass Config.Ring
// pending deltas is shed on the spot.
func (h *Hub) publish(f *Frame) {
	fv := h.viewFeed(f.View)
	deltas, rows := f.deltas, f.rows
	fv.mu.Lock()
	fv.tail.push(f, math.MaxInt)
	for fv.tail.deltas-fv.tail.at(0).deltas >= h.cfg.TailFrames {
		old := fv.tail.pop()
		fv.evictedLSN = old.LSN
		h.evicted.Add(uint64(old.deltas))
		old.Release()
	}
	for sub := range fv.subs {
		if !sub.enqueueLocked(f) {
			sub.closeLocked(ReasonSlow)
			delete(fv.subs, sub)
			h.subscribers.Add(-1)
			h.droppedSlow.Add(1)
		}
	}
	fv.headLSN = f.LSN
	fv.mu.Unlock()
	h.published.Add(uint64(deltas))
	h.rowsPublished.Add(uint64(rows))
}

// HeadLSN returns the highest LSN published for a view (0 if none).
func (h *Hub) HeadLSN(view string) uint64 {
	h.mu.RLock()
	fv := h.views[view]
	h.mu.RUnlock()
	if fv == nil {
		return 0
	}
	fv.mu.Lock()
	defer fv.mu.Unlock()
	return fv.headLSN
}

// SetBase raises the checkpoint horizon: resumes from at or before base
// can no longer be served from the tail. Recovery calls it with the
// restored checkpoint's LSN before the WAL suffix replays.
func (h *Hub) SetBase(lsn uint64) {
	for {
		cur := h.base.Load()
		if lsn <= cur || h.base.CompareAndSwap(cur, lsn) {
			return
		}
	}
}

// Subscribe registers a live subscription on a view.
//
// With hasFrom, fromLSN is the subscriber's cursor: the LSN of the last
// delta it has already applied. If the cursor is at or past the tail
// horizon the missed frames are preloaded into the subscription's backlog
// (ResumeTail) — registration and preload happen atomically under the view
// lock, so the stream is gapless and duplicate-free from fromLSN+1 on.
// Otherwise (no cursor, or one older than the horizon) the caller must
// deliver a view snapshot and filter live frames with LSN ≤ the snapshot's
// applied LSN (ResumeSnapshot); registering before the snapshot read makes
// the splice gapless.
func (h *Hub) Subscribe(view string, fromLSN uint64, hasFrom bool) (*Subscription, ResumeKind) {
	fv := h.viewFeed(view)
	sub := &Subscription{
		fv:     fv,
		notify: make(chan struct{}, 1),
		ring:   frameQueue{buf: make([]*Frame, min(ringStart, h.cfg.Ring))},
		most:   h.cfg.Ring,
	}
	fv.mu.Lock()
	horizon := fv.evictedLSN
	if b := h.base.Load(); b > horizon {
		horizon = b
	}
	kind := ResumeSnapshot
	if hasFrom && fromLSN >= horizon {
		kind = ResumeTail
		for i := range fv.tail.n {
			// A frame that straddles the cursor goes in whole: the stream
			// drops its rows at or below the cursor.
			if f := fv.tail.at(i); f.LSN > fromLSN {
				f.retain()
				sub.backlog = append(sub.backlog, f)
			}
		}
	}
	fv.subs[sub] = struct{}{}
	fv.mu.Unlock()
	if len(sub.backlog) > 0 {
		// Wake the subscriber for the preloaded backlog: without this, a
		// tail resume with no further publishes would wait forever.
		select {
		case sub.notify <- struct{}{}:
		default:
		}
	}
	h.subscribers.Add(1)
	h.subscribedTotal.Add(1)
	if kind == ResumeTail {
		h.catchupTail.Add(1)
	} else {
		h.catchupSnap.Add(1)
	}
	return sub, kind
}

// DropView closes every subscription on a view and frees its tail. The
// engine calls it from DROP VIEW.
func (h *Hub) DropView(view string) {
	h.mu.Lock()
	fv := h.views[view]
	delete(h.views, view)
	h.mu.Unlock()
	if fv == nil {
		return
	}
	fv.mu.Lock()
	for sub := range fv.subs {
		sub.closeLocked(ReasonDropped)
		h.subscribers.Add(-1)
	}
	clear(fv.subs)
	for fv.tail.n > 0 {
		fv.tail.pop().Release()
	}
	fv.mu.Unlock()
}

// Stats snapshots the hub counters.
func (h *Hub) Stats() Stats {
	return Stats{
		Subscribers:      h.subscribers.Load(),
		SubscribedTotal:  h.subscribedTotal.Load(),
		Published:        h.published.Load(),
		RowsPublished:    h.rowsPublished.Load(),
		DroppedSlow:      h.droppedSlow.Load(),
		CatchupsTail:     h.catchupTail.Load(),
		CatchupsSnapshot: h.catchupSnap.Load(),
		Evicted:          h.evicted.Load(),
	}
}

// Subscription is one subscriber's bounded view of a feed: a backlog
// (catch-up frames preloaded at subscribe) plus a live ring. All state is
// guarded by the owning feedView's mutex.
type Subscription struct {
	fv     *feedView
	notify chan struct{}

	backlog []*Frame
	ring    frameQueue // live frames, the buffer grown by doubling up to most slots
	most    int        // Config.Ring: the deltas it may hold before it is shed

	closed bool
	reason CloseReason
}

// C signals that frames (or a close) are ready; receive then Drain.
func (s *Subscription) C() <-chan struct{} { return s.notify }

// enqueueLocked adds one live frame, doubling a full ring up to its bound;
// false means the frame would take the ring past Config.Ring pending
// deltas and the subscriber must be shed. Every frame carries a delta, so
// the ring never needs more than Config.Ring slots. Caller holds fv.mu.
func (s *Subscription) enqueueLocked(f *Frame) bool {
	if s.ring.deltas+f.deltas > s.most {
		return false
	}
	s.ring.push(f, s.most)
	f.retain()
	select {
	case s.notify <- struct{}{}:
	default:
	}
	return true
}

// Drain appends every pending frame (backlog first, then live ring, both
// in LSN order) to dst and returns it. Ownership of one reference per
// frame transfers to the caller, which must Release each frame after use.
func (s *Subscription) Drain(dst []*Frame) []*Frame {
	s.fv.mu.Lock()
	dst = append(dst, s.backlog...)
	for i := range s.backlog {
		s.backlog[i] = nil
	}
	s.backlog = s.backlog[:0]
	for s.ring.n > 0 {
		dst = append(dst, s.ring.pop())
	}
	s.fv.mu.Unlock()
	return dst
}

// Closed reports whether the subscription has stopped and why.
func (s *Subscription) Closed() (bool, CloseReason) {
	s.fv.mu.Lock()
	defer s.fv.mu.Unlock()
	return s.closed, s.reason
}

// closeLocked releases queued frames and marks the subscription closed.
// Caller holds fv.mu and removes the subscription from fv.subs itself.
func (s *Subscription) closeLocked(reason CloseReason) {
	if s.closed {
		return
	}
	s.closed, s.reason = true, reason
	for _, f := range s.backlog {
		f.Release()
	}
	s.backlog = nil
	for s.ring.n > 0 {
		s.ring.pop().Release()
	}
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// Close unregisters the subscription (subscriber went away). Safe to call
// more than once and after a shed or DropView.
func (s *Subscription) Close() {
	fv := s.fv
	fv.mu.Lock()
	if s.closed {
		fv.mu.Unlock()
		return
	}
	s.closeLocked(ReasonClosed)
	delete(fv.subs, s)
	fv.mu.Unlock()
	fv.hub.subscribers.Add(-1)
}
