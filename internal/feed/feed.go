// Package feed implements changefeeds: per-view delta publication to live
// subscribers with LSN cursors.
//
// The paper's central claim is that view deltas are cheap to compute
// incrementally; until now the engine computed every delta, folded it into
// the materialization, and threw it away. The feed hub makes the delta
// stream itself a product: the engine captures each persistent view's
// expression delta at maintenance time, stamps it with the mutation's LSN,
// and — strictly after the WAL commit that covers it — publishes it to
// every subscriber of that view.
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
// Memory model: frames are pooled and reference-counted. The tail ring
// holds one reference; each subscriber enqueue adds one. Row tuples are
// copied into a per-frame arena sized up-front, so the steady-state publish
// path allocates nothing per delta per subscriber.
package feed

import (
	"sync"
	"sync/atomic"

	"chronicledb/internal/chronicle"
	"chronicledb/internal/value"
)

// Config sizes the hub's bounded buffers.
type Config struct {
	// TailFrames is the per-view in-memory resume window, in frames. A
	// reconnecting subscriber whose cursor is at or past the tail horizon
	// catches up from the tail; older cursors fall back to a snapshot read.
	// Zero means DefaultTailFrames.
	TailFrames int
	// Ring is the per-subscriber live buffer, in frames. A subscriber whose
	// ring overflows is shed (ReasonSlow) rather than allowed to apply
	// backpressure to the append path. Zero means DefaultRing. A ring starts
	// at ringStart frames and doubles as frames wait in it, up to Ring.
	Ring int
}

// Defaults for Config's zero values.
const (
	DefaultTailFrames = 1024
	DefaultRing       = 256
)

// ringStart is a new subscription's ring, in frames: a subscriber that keeps
// up never needs more, and one that falls behind grows it.
const ringStart = 16

// Stats is a point-in-time snapshot of the hub counters.
type Stats struct {
	Subscribers      int64  // currently registered subscriptions
	SubscribedTotal  uint64 // subscriptions ever registered
	Published        uint64 // frames published
	RowsPublished    uint64 // delta rows across all published frames
	DroppedSlow      uint64 // subscriptions shed for ring overflow
	CatchupsTail     uint64 // resumes served from the in-memory tail
	CatchupsSnapshot uint64 // resumes that needed a snapshot read
	Evicted          uint64 // tail frames evicted (horizon advances)
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

// Frame is one view's delta from one mutation: the expression delta rows
// that maintenance folded into the view, stamped with the mutation's LSN.
// Frames are immutable after capture, pooled, and reference-counted; every
// consumer that receives a frame from Drain must Release it.
type Frame struct {
	View string
	LSN  uint64
	Rows []chronicle.Row

	refs    atomic.Int32
	arena   []value.Value   // backing storage for all row tuples
	rowsBuf []chronicle.Row // backing storage for Rows
}

var framePool = sync.Pool{New: func() any { return new(Frame) }}

// newFrame copies rows into pooled storage. The arena is sized before any
// row slice is cut from it — growing it mid-fill would invalidate earlier
// slices.
func newFrame(view string, lsn uint64, rows []chronicle.Row) *Frame {
	f := framePool.Get().(*Frame)
	f.View, f.LSN = view, lsn
	f.refs.Store(1)
	total := 0
	for _, r := range rows {
		total += len(r.Vals)
	}
	if cap(f.arena) < total {
		f.arena = make([]value.Value, total)
	}
	f.arena = f.arena[:total]
	if cap(f.rowsBuf) < len(rows) {
		f.rowsBuf = make([]chronicle.Row, len(rows))
	}
	f.rowsBuf = f.rowsBuf[:len(rows)]
	off := 0
	for i, r := range rows {
		n := copy(f.arena[off:off+len(r.Vals)], r.Vals)
		f.rowsBuf[i] = chronicle.Row{SN: r.SN, Chronon: r.Chronon, LSN: r.LSN, Vals: value.Tuple(f.arena[off : off+n])}
		off += n
	}
	f.Rows = f.rowsBuf
	return f
}

func (f *Frame) retain() { f.refs.Add(1) }

// Release returns the caller's reference; the last release recycles the
// frame (arena and row buffer keep their capacity for the pool).
func (f *Frame) Release() {
	if f.refs.Add(-1) != 0 {
		return
	}
	f.View, f.LSN, f.Rows = "", 0, nil
	framePool.Put(f)
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

// Capture copies one view's delta rows into the batch. Rows are copied
// immediately: the caller's slices are engine scratch reused by the next
// mutation.
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
	tail       []*Frame // circular buffer, cap == Config.TailFrames
	tailHead   int
	tailN      int
	evictedLSN uint64 // highest LSN evicted from the tail
	headLSN    uint64 // highest LSN published
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
	fv = &feedView{
		hub:  h,
		tail: make([]*Frame, h.cfg.TailFrames),
		subs: make(map[*Subscription]struct{}),
	}
	h.views[name] = fv
	return fv
}

// publish appends the frame (which arrives holding the tail's reference)
// to the view's tail ring and enqueues it to every live subscriber. A
// subscriber whose ring is full is shed on the spot.
func (h *Hub) publish(f *Frame) {
	fv := h.viewFeed(f.View)
	rows := len(f.Rows)
	fv.mu.Lock()
	if fv.tailN == len(fv.tail) {
		old := fv.tail[fv.tailHead]
		fv.evictedLSN = old.LSN
		fv.tail[fv.tailHead] = f
		fv.tailHead = (fv.tailHead + 1) % len(fv.tail)
		old.Release()
		h.evicted.Add(1)
	} else {
		fv.tail[(fv.tailHead+fv.tailN)%len(fv.tail)] = f
		fv.tailN++
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
	h.published.Add(1)
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
		ring:   make([]*Frame, min(ringStart, h.cfg.Ring)),
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
		for i := 0; i < fv.tailN; i++ {
			f := fv.tail[(fv.tailHead+i)%len(fv.tail)]
			if f.LSN > fromLSN {
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
	for i := 0; i < fv.tailN; i++ {
		fv.tail[(fv.tailHead+i)%len(fv.tail)].Release()
	}
	fv.tailN, fv.tailHead = 0, 0
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
	ring    []*Frame // circular buffer, grown by doubling up to most
	head, n int
	most    int // Config.Ring: the frames it may hold before it is shed

	closed bool
	reason CloseReason
}

// C signals that frames (or a close) are ready; receive then Drain.
func (s *Subscription) C() <-chan struct{} { return s.notify }

// enqueueLocked adds one live frame, doubling a full ring up to its bound;
// false means the ring holds Config.Ring frames and the subscriber must be
// shed. Caller holds fv.mu.
func (s *Subscription) enqueueLocked(f *Frame) bool {
	if s.n == len(s.ring) {
		if s.n == s.most {
			return false
		}
		ring := make([]*Frame, min(2*len(s.ring), s.most))
		copy(ring[copy(ring, s.ring[s.head:]):], s.ring[:s.head])
		s.ring, s.head = ring, 0
	}
	f.retain()
	s.ring[(s.head+s.n)%len(s.ring)] = f
	s.n++
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
	for s.n > 0 {
		dst = append(dst, s.ring[s.head])
		s.ring[s.head] = nil
		s.head = (s.head + 1) % len(s.ring)
		s.n--
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
	for s.n > 0 {
		s.ring[s.head].Release()
		s.ring[s.head] = nil
		s.head = (s.head + 1) % len(s.ring)
		s.n--
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
