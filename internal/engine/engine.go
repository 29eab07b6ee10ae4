// Package engine implements the chronicle database system of Definition
// 2.1: the quadruple (C, R, L, V) of chronicles, relations, a view
// definition language, and persistent views — plus the periodic views of
// Section 5.1 and the affected-view dispatch of Section 5.2.
//
// The engine is the in-memory state of one shard: internal/shard runs one
// per shard behind its router, which owns what cuts across shards — the LSN
// allocator, relation updates under the epoch barrier (the proactive
// ordering of Section 2.3), commits and changefeed publication. The engine
// serializes its own updates under one mutex. Durability (WAL, checkpoints)
// is layered on top by the public chronicledb package.
package engine

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"chronicledb/internal/algebra"
	"chronicledb/internal/calendar"
	"chronicledb/internal/chronicle"
	"chronicledb/internal/dedup"
	"chronicledb/internal/dispatch"
	"chronicledb/internal/feed"
	"chronicledb/internal/pred"
	"chronicledb/internal/relation"
	"chronicledb/internal/stats"
	"chronicledb/internal/value"
	"chronicledb/internal/view"
)

// Config controls engine-wide defaults.
type Config struct {
	// DefaultRetention applies to chronicles created without an explicit
	// retention. The zero value (RetainNone) is the pure chronicle model.
	DefaultRetention chronicle.Retention
	// RelationHistory retains superseded relation versions for AsOf reads
	// (needed only by reference evaluation and recompute baselines).
	RelationHistory bool
	// DefaultStore is the view store used when a view does not choose.
	DefaultStore view.StoreKind
	// Clock supplies chronons for appends. Nil uses wall-clock nanoseconds.
	Clock func() int64
	// NextLSN allocates the LSN of each mutation. The shard router gives
	// every shard engine the same allocator — the one its relation updates
	// draw from — so that chronicle rows and relation versions live in a
	// single, totally ordered LSN domain, which is what makes cross-shard
	// proactive-update semantics (and AsOf reference evaluation) exact.
	// Required.
	NextLSN func() uint64
	// DedupCap bounds the idempotency table (entries). Zero means
	// dedup.DefaultCap.
	DedupCap int
	// ViewCache, together with BlockFetch, enables blocked persistent view
	// stores: every B-tree view created on this engine pages its state in
	// fixed-size blocks against the shared cache (shards share one budget).
	// Nil leaves views fully resident.
	ViewCache *view.Cache
	// BlockFetch reads a durable view block from the checkpoint chain. The
	// storage layer binds it to the database directory.
	BlockFetch view.FetchFunc
	// ViewBlockBytes is the target encoded size of one view block; ≤0
	// selects view.DefaultBlockBytes. Only meaningful with ViewCache.
	ViewBlockBytes int64
}

// Stats aggregates engine-level counters. The append call is the unit of
// maintenance: a k-row AppendEach is k append transactions (Appends and
// TuplesAppended count tuples' transactions, each with its own SN) folded in
// one maintenance round.
type Stats struct {
	Appends         int64 // append transactions (one per SN)
	TuplesAppended  int64
	RelationUpdates int64
	MaintenanceNs   int64 // total time spent maintaining persistent views
	ViewsMaintained int64 // one per affected view per maintenance round, i.e. per append call
	SharedHits      int64 // node deltas served from the shared plan's per-round cache
}

// Counters is everything one engine counts, read at once: the maintenance
// counters, the idempotency table, the read path, and the age of the oldest
// view snapshot. Maintenance is the operational readout of the view
// language's IM class: SCA₁ views keep it flat forever.
type Counters struct {
	Stats
	DedupEntries   int
	DedupHits      int64 // idempotent appends answered from the dedup table
	DedupEvictions int64
	Lookups        int64
	Scans          int64
	Maintenance    stats.Histogram // view maintenance time, one observation per append call
	Read           stats.Histogram // read latency, one observation per lookup or scan
	OldestSnapshot int64           // unix ns of the oldest live view snapshot; 0 when none
}

// Add folds o into c: counts sum, histograms merge, and the oldest snapshot
// is the earlier of the two.
func (c *Counters) Add(o *Counters) {
	c.Appends += o.Appends
	c.TuplesAppended += o.TuplesAppended
	c.RelationUpdates += o.RelationUpdates
	c.MaintenanceNs += o.MaintenanceNs
	c.ViewsMaintained += o.ViewsMaintained
	c.SharedHits += o.SharedHits
	c.DedupEntries += o.DedupEntries
	c.DedupHits += o.DedupHits
	c.DedupEvictions += o.DedupEvictions
	c.Lookups += o.Lookups
	c.Scans += o.Scans
	c.Maintenance.Merge(&o.Maintenance)
	c.Read.Merge(&o.Read)
	c.OldestSnapshot = earlier(c.OldestSnapshot, o.OldestSnapshot)
}

// earlier returns the earlier of two snapshot times, 0 meaning none.
func earlier(a, b int64) int64 {
	if a == 0 || (b != 0 && b < a) {
		return b
	}
	return a
}

// Engine is one shard's chronicle database system state.
type Engine struct {
	mu  sync.RWMutex
	cfg Config

	groups     map[string]*chronicle.Group
	chronicles map[string]*chronicle.Chronicle
	relations  map[string]*relation.Relation
	views      map[string]*view.View
	periodics  map[string]*calendar.PeriodicView
	disp       *dispatch.Dispatcher
	names      map[string]string // object name -> kind, for cross-kind uniqueness

	// onRecord, when set, observes every durable mutation before it is
	// applied; the WAL layer hooks in here. Returning an error aborts the
	// mutation.
	onRecord func(Mutation) error

	stats     Stats
	dedupHits int64           // idempotent appends answered from the dedup table
	maintLat  stats.Histogram // view-maintenance latency, one observation per append call

	// cat is the atomically published catalog snapshot: immutable
	// name→object maps rebuilt under e.mu on every DDL change. Read
	// methods resolve names through it without touching e.mu, so queries
	// never serialize against the append path. The objects themselves are
	// individually synchronized (views publish COW snapshots; chronicles
	// and relations carry their own read locks).
	cat atomic.Pointer[catalog]

	// Read-path metrics, updated with atomics so the lock-free read
	// methods stay lock-free while still being observable.
	readLookups atomic.Int64
	readScans   atomic.Int64
	readLat     stats.AtomicHistogram

	// scratch is hot-path memory reused across mutations under e.mu. It
	// never escapes a mutation: recorders encode synchronously, the
	// chronicle copies retained rows, and views copy what they keep.
	scratch appendScratch

	// dedup is the bounded idempotency table for AppendEachIdem. It is
	// mutated only under e.mu but carries its own lock for stats/checkpoint
	// readers.
	dedup *dedup.Table

	// Changefeed state. feed, when set, makes maintain capture every
	// persistent view's expression delta into pendingFeed, stamped with the
	// mutation's LSN and ordered by a ticket drawn from feedDoor under e.mu.
	// Batches accumulate until the router's TakeFeed, so one group commit
	// publishes the whole coalesced pass.
	feed        *feed.Hub
	feedDoor    *feed.Door
	pendingFeed *feed.Batch

	// batchSeq numbers maintenance batches for the dispatch-target stamp
	// dedup; it only advances under e.mu.
	batchSeq uint64
	// dirty lists, once each, the views and periodic families the current
	// call has folded rows into and not yet published (a fold reports when
	// it is the first since the target's last publication). Every path that
	// folds empties it through publishDirtyLocked before releasing e.mu, so
	// it is always empty while the lock is free.
	dirty []publisher
}

// publisher is a maintenance target holding folded rows its readers cannot
// see yet: a persistent view or a periodic family.
type publisher interface{ Publish() }

// catalog is one immutable generation of the engine's name tables. A new
// generation is built and published on every DDL statement; maps inside a
// published catalog are never written again.
type catalog struct {
	groups     map[string]*chronicle.Group
	chronicles map[string]*chronicle.Chronicle
	relations  map[string]*relation.Relation
	views      map[string]*view.View
	periodics  map[string]*calendar.PeriodicView
	// plan is the shared-delta plan over every persistent view in this
	// generation: structurally, it belongs to the catalog (rebuilt on DDL,
	// immutable thereafter), while its per-batch caches are owned by the
	// maintenance path under e.mu — a published generation is only ever
	// evaluated by the engine that built it.
	plan *algebra.SharedPlan
}

// publishCatalogLocked snapshots the mutable catalog maps into a fresh
// immutable generation for lock-free name resolution. Callers hold e.mu
// exclusively (or have sole ownership, as in New).
func (e *Engine) publishCatalogLocked() {
	c := &catalog{
		groups:     make(map[string]*chronicle.Group, len(e.groups)),
		chronicles: make(map[string]*chronicle.Chronicle, len(e.chronicles)),
		relations:  make(map[string]*relation.Relation, len(e.relations)),
		views:      make(map[string]*view.View, len(e.views)),
		periodics:  make(map[string]*calendar.PeriodicView, len(e.periodics)),
	}
	for n, g := range e.groups {
		c.groups[n] = g
	}
	for n, ch := range e.chronicles {
		c.chronicles[n] = ch
	}
	for n, r := range e.relations {
		c.relations[n] = r
	}
	for n, v := range e.views {
		c.views[n] = v
	}
	for n, pv := range e.periodics {
		c.periodics[n] = pv
	}
	// Rebuild the shared-delta plan: hash-cons every view expression so
	// common subexpressions compute their delta once per batch. Sorted view
	// order keeps plan-node IDs deterministic across restarts (EXPLAIN shows
	// them).
	c.plan = algebra.NewSharedPlan()
	names := make([]string, 0, len(e.views))
	for n := range e.views {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		c.plan.AddView(n, e.views[n].Def().Expr)
	}
	e.cat.Store(c)
}

// appendScratch backs the allocation-free append path.
type appendScratch struct {
	tuple  []value.Tuple                            // the call core's one-tuple batch
	parts  []MutationPart                           // single-chronicle recorder parts
	rows   []chronicle.Row                          // stored rows of one call (at most maintainChunk)
	batch  []chronicle.BatchPart                    // resolved batch parts
	deltas map[*chronicle.Chronicle][]chronicle.Row // maintain input
}

// Mutation describes one durable engine mutation, in replayable form.
type Mutation struct {
	Kind      MutationKind
	LSN       uint64 // logical sequence number assigned to this mutation
	SN        int64  // sequence number (MutAppendEach: first SN of the run)
	Chronon   int64
	Parts     []MutationPart // appends
	Relation  string         // relation updates
	Tuple     value.Tuple    // upsert tuple or delete key values
	ClientID  string         // MutAppendEach: idempotency pair
	RequestID string         // MutAppendEach: idempotency pair
}

// MutationPart is one chronicle's share of an append.
type MutationPart struct {
	Chronicle string
	Tuples    []value.Tuple
}

// MutationKind tags a Mutation.
type MutationKind uint8

// The mutation kinds.
const (
	MutAppend MutationKind = iota
	MutUpsert
	MutDelete
	// MutAppendEach is an idempotent bulk append: one chronicle, one run of
	// per-tuple append transactions with consecutive sequence numbers, all
	// recorded as a single WAL frame together with the (ClientID, RequestID)
	// pair — the rows and the dedup entry become durable atomically.
	MutAppendEach
)

// New creates an empty engine.
func New(cfg Config) *Engine {
	if cfg.Clock == nil {
		cfg.Clock = func() int64 { return time.Now().UnixNano() }
	}
	e := &Engine{
		cfg:        cfg,
		groups:     make(map[string]*chronicle.Group),
		chronicles: make(map[string]*chronicle.Chronicle),
		relations:  make(map[string]*relation.Relation),
		views:      make(map[string]*view.View),
		periodics:  make(map[string]*calendar.PeriodicView),
		disp:       dispatch.New(),
		names:      make(map[string]string),
		scratch: appendScratch{
			deltas: make(map[*chronicle.Chronicle][]chronicle.Row),
		},
		dedup: dedup.NewTable(cfg.DedupCap),
	}
	e.publishCatalogLocked()
	return e
}

// ViewSharedPlan lists the shared-plan nodes of one view's expression in
// post-order (root last), with each node's cross-view consumer count — the
// EXPLAIN readout of delta sharing. ok is false for unknown views.
func (e *Engine) ViewSharedPlan(name string) (nodes []algebra.PlanNodeInfo, ok bool) {
	cat := e.cat.Load()
	if _, exists := cat.views[name]; !exists {
		return nil, false
	}
	return cat.plan.ViewNodes(name), true
}

// SetRecorder installs the durable-mutation observer (the WAL hook).
func (e *Engine) SetRecorder(fn func(Mutation) error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.onRecord = fn
}

// SetFeed hooks the changefeed hub into the maintenance path. Captured
// frames stay pending until the caller (the shard router's pass) detaches
// them with TakeFeed and publishes them after its commit. Install the hub
// before any appends replay so the tail rings repopulate during recovery.
func (e *Engine) SetFeed(h *feed.Hub) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.feed = h
	e.feedDoor = feed.NewDoor()
}

// publishDirtyLocked is the only place folded view state becomes visible:
// every view and periodic family folded into since the lock was taken is
// published exactly once — however many rows, batches or tuples the call
// carried — and the list is emptied. Every way out of a call that may have
// folded runs it before unlocking, error paths included: a failed AppendEach
// keeps its applied prefix, and that prefix must be readable. Readers
// therefore observe whole calls only.
func (e *Engine) publishDirtyLocked() {
	if len(e.dirty) == 0 {
		return
	}
	start := time.Now()
	for i, d := range e.dirty {
		d.Publish()
		e.dirty[i] = nil
	}
	e.dirty = e.dirty[:0]
	e.stats.MaintenanceNs += time.Since(start).Nanoseconds()
}

// TakeFeed detaches the pending changefeed batch (nil when nothing was
// captured). The caller owns it: Publish after the covering commit
// succeeds, Abandon if it fails.
func (e *Engine) TakeFeed() *feed.Batch {
	e.mu.Lock()
	fb := e.pendingFeed
	e.pendingFeed = nil
	e.mu.Unlock()
	return fb
}

// Counters reads every engine counter; the ones the writer keeps under e.mu
// are copied under one read lock, the read path's atomics and the dedup
// table's own counts outside it.
func (e *Engine) Counters() Counters {
	e.mu.RLock()
	c := Counters{Stats: e.stats, DedupHits: e.dedupHits, Maintenance: e.maintLat}
	e.mu.RUnlock()
	c.DedupEntries, c.DedupEvictions = e.dedup.Len(), e.dedup.Evictions()
	c.Lookups, c.Scans = e.readLookups.Load(), e.readScans.Load()
	c.Read = e.readLat.Histogram()
	for _, v := range e.cat.Load().views {
		c.OldestSnapshot = earlier(c.OldestSnapshot, v.SnapshotUnixNano())
	}
	return c
}

// claimName enforces one namespace across object kinds.
func (e *Engine) claimName(name, kind string) error {
	if name == "" {
		return fmt.Errorf("engine: empty %s name", kind)
	}
	if existing, ok := e.names[name]; ok {
		return fmt.Errorf("engine: name %q already used by a %s", name, existing)
	}
	e.names[name] = kind
	return nil
}

// CreateGroup creates a chronicle group.
func (e *Engine) CreateGroup(name string) (*chronicle.Group, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.groups[name]; ok {
		return nil, fmt.Errorf("engine: group %q already exists", name)
	}
	g := chronicle.NewGroup(name)
	e.groups[name] = g
	e.publishCatalogLocked()
	return g, nil
}

// CreateChronicle creates a chronicle inside a (possibly new) group.
// groupName may be empty, in which case the chronicle gets a private group
// of the same name.
func (e *Engine) CreateChronicle(name, groupName string, schema *value.Schema, retain *chronicle.Retention) (*chronicle.Chronicle, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if groupName == "" {
		groupName = name
	}
	g, ok := e.groups[groupName]
	if !ok {
		g = chronicle.NewGroup(groupName)
	}
	r := e.cfg.DefaultRetention
	if retain != nil {
		r = *retain
	}
	if err := e.claimName(name, "chronicle"); err != nil {
		return nil, err
	}
	c, err := g.NewChronicle(name, schema, r)
	if err != nil {
		delete(e.names, name)
		return nil, err
	}
	e.groups[groupName] = g
	e.chronicles[name] = c
	e.publishCatalogLocked()
	return c, nil
}

// AdoptRelation registers an externally created relation in this engine's
// catalog. The shard router uses it to share one relation instance across
// every shard: relations cut across chronicle groups, so all shards must
// resolve a relation name to the same versioned state.
func (e *Engine) AdoptRelation(r *relation.Relation) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.claimName(r.Name(), "relation"); err != nil {
		return err
	}
	e.relations[r.Name()] = r
	e.publishCatalogLocked()
	return nil
}

// CreateView materializes a persistent view and registers it for dispatch.
// filter/filterChronicle optionally narrow dispatch (Section 5.2); pass the
// zero predicate to dispatch on dependency alone.
func (e *Engine) CreateView(def view.Def, kind view.StoreKind, filter pred.Predicate, filterChronicle *chronicle.Chronicle) (*view.View, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.claimName(def.Name, "view"); err != nil {
		return nil, err
	}
	v, err := view.New(def, kind)
	if err != nil {
		delete(e.names, def.Name)
		return nil, err
	}
	info := v.Info()
	if err := e.disp.Register(&dispatch.Target{
		ID:              def.Name,
		Chronicles:      info.Chronicles,
		Filter:          filter,
		FilterChronicle: filterChronicle,
	}); err != nil {
		delete(e.names, def.Name)
		return nil, err
	}
	// Page B-tree views against the shared block cache before backfill or
	// publication, so every entry the view ever holds is block-attributed.
	if e.cfg.ViewCache != nil && e.cfg.BlockFetch != nil {
		v.EnablePaging(e.cfg.ViewBlockBytes, e.cfg.BlockFetch, e.cfg.ViewCache)
	}
	// Fold in any retained history so the view is current from creation.
	e.backfill(v)
	e.publishDirtyLocked()
	e.views[def.Name] = v
	e.publishCatalogLocked()
	return v, nil
}

// backfill replays retained chronicle rows into a fresh view. Chronicles
// with dropped rows cannot be backfilled; the view is then current only for
// the append suffix (which is all the pure model can promise).
func (e *Engine) backfill(v *view.View) {
	if rows, err := algebra.Evaluate(v.Def().Expr); err == nil && v.ApplyRows(rows) {
		e.dirty = append(e.dirty, v)
	}
}

// CreatePeriodicView creates a periodic view family (Section 5.1).
func (e *Engine) CreatePeriodicView(name string, def view.Def, cal calendar.Calendar, expireAfter int64, kind view.StoreKind) (*calendar.PeriodicView, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.claimName(name, "periodic view"); err != nil {
		return nil, err
	}
	pv, err := calendar.NewPeriodicView(name, def, cal, expireAfter, kind)
	if err != nil {
		delete(e.names, name)
		return nil, err
	}
	info := algebra.Analyze(def.Expr)
	if err := e.disp.Register(&dispatch.Target{
		ID:         name,
		Chronicles: info.Chronicles,
		ActiveAt: func(ch int64) (bool, int64, int64) {
			lo, hi := cal.SpanAt(ch)
			return len(cal.IntervalsAt(ch)) > 0, lo, hi
		},
	}); err != nil {
		delete(e.names, name)
		return nil, err
	}
	e.periodics[name] = pv
	e.publishCatalogLocked()
	return pv, nil
}

// DropView removes a persistent or periodic view from the database. The
// paper's model has "a fixed number of persistent views"; dropping is the
// administrative escape hatch (a dropped view's summarized history is gone
// for good — the chronicle it summarized was never stored).
func (e *Engine) DropView(name string) error {
	e.mu.Lock()
	switch e.names[name] {
	case "view":
		if v := e.views[name]; v != nil {
			v.ReleasePaging()
		}
		delete(e.views, name)
	case "periodic view":
		delete(e.periodics, name)
	default:
		e.mu.Unlock()
		return fmt.Errorf("engine: no view named %q", name)
	}
	delete(e.names, name)
	e.disp.Unregister(name)
	e.publishCatalogLocked()
	h := e.feed
	e.mu.Unlock()
	if h != nil {
		// Terminate the view's subscriptions (ReasonDropped) and free its
		// resume tail; done outside e.mu so feed locks never nest inside it.
		h.DropView(name)
	}
	return nil
}

// Append inserts tuples into one chronicle as a single transaction: the
// record is appended with the next group sequence number, affected views
// are identified, and each is maintained incrementally — the complete
// per-transaction pipeline whose cost Section 3 is about.
func (e *Engine) Append(chronicleName string, tuples []value.Tuple) (int64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	defer e.publishDirtyLocked()
	c, ok := e.chronicles[chronicleName]
	if !ok {
		return 0, fmt.Errorf("engine: unknown chronicle %q", chronicleName)
	}
	sn, rows, err := e.storeLocked(c, tuples, e.scratch.rows[:0])
	if err != nil {
		return 0, err
	}
	e.scratch.rows = rows
	clear(e.scratch.deltas)
	e.scratch.deltas[c] = rows
	e.maintain(e.scratch.deltas)
	e.stats.Appends++
	e.stats.TuplesAppended += int64(len(tuples))
	return sn, nil
}

// storeLocked is one append transaction up to its stored rows: the tuples are
// coerced in place, stamped with the group's next SN, the clock and a fresh
// LSN, recorded as one MutAppend, and stored; the rows are added to buf. It
// neither maintains nor counts — Append does that for its one transaction,
// the call core for all of a call's.
func (e *Engine) storeLocked(c *chronicle.Chronicle, tuples []value.Tuple, buf []chronicle.Row) (sn int64, rows []chronicle.Row, err error) {
	for i, t := range tuples {
		if tuples[i], err = c.Schema().Coerce(t); err != nil {
			return 0, nil, fmt.Errorf("engine: chronicle %s: tuple %d: %w", c.Name(), i, err)
		}
	}
	sn = c.Group().NextSN()
	chronon := e.cfg.Clock()
	lsn := e.cfg.NextLSN()
	if e.onRecord != nil {
		e.scratch.parts = append(e.scratch.parts[:0], MutationPart{Chronicle: c.Name(), Tuples: tuples})
		m := Mutation{Kind: MutAppend, LSN: lsn, SN: sn, Chronon: chronon, Parts: e.scratch.parts}
		if err := e.onRecord(m); err != nil {
			return 0, nil, fmt.Errorf("engine: recording append: %w", err)
		}
	}
	rows, err = c.AppendInto(sn, chronon, lsn, tuples, buf)
	return sn, rows, err
}

// AppendBatch inserts tuples into several chronicles of one group
// simultaneously, sharing a single sequence number.
func (e *Engine) AppendBatch(parts []MutationPart) (int64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	defer e.publishDirtyLocked()
	return e.appendBatchLocked(parts, nil, nil)
}

// AppendBatchAt is AppendBatch with caller-supplied SN and chronon (WAL
// replay and follower apply).
func (e *Engine) AppendBatchAt(parts []MutationPart, sn, chronon int64) (int64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	defer e.publishDirtyLocked()
	return e.appendBatchLocked(parts, &sn, &chronon)
}

func (e *Engine) appendBatchLocked(parts []MutationPart, snOverride, chOverride *int64) (int64, error) {
	if len(parts) == 0 {
		return 0, fmt.Errorf("engine: empty batch")
	}
	resolved := e.scratch.batch[:0]
	var g *chronicle.Group
	for _, p := range parts {
		c, ok := e.chronicles[p.Chronicle]
		if !ok {
			return 0, fmt.Errorf("engine: unknown chronicle %q", p.Chronicle)
		}
		if g == nil {
			g = c.Group()
		}
		for j, t := range p.Tuples {
			coerced, err := c.Schema().Coerce(t)
			if err != nil {
				return 0, fmt.Errorf("engine: chronicle %s: tuple %d: %w", p.Chronicle, j, err)
			}
			p.Tuples[j] = coerced
		}
		resolved = append(resolved, chronicle.BatchPart{C: c, Tuples: p.Tuples})
	}
	e.scratch.batch = resolved
	sn := g.NextSN()
	if snOverride != nil {
		sn = *snOverride
	}
	chronon := e.cfg.Clock()
	if chOverride != nil {
		chronon = *chOverride
	}
	lsn := e.cfg.NextLSN()
	if e.onRecord != nil {
		if err := e.onRecord(Mutation{Kind: MutAppend, LSN: lsn, SN: sn, Chronon: chronon, Parts: parts}); err != nil {
			return 0, fmt.Errorf("engine: recording append: %w", err)
		}
	}
	clear(e.scratch.deltas)
	if err := g.AppendBatchInto(sn, chronon, lsn, resolved, e.scratch.deltas); err != nil {
		return 0, err
	}
	e.maintain(e.scratch.deltas)
	e.stats.Appends++
	for _, p := range parts {
		e.stats.TuplesAppended += int64(len(p.Tuples))
	}
	return sn, nil
}

// AppendEach inserts each tuple as its own append transaction (its own
// sequence number, chronon, LSN and WAL record) but acquires the engine lock
// once for the whole call — the bulk ingest path — folds the call's rows into
// the views in one maintenance round and publishes them once, when the call
// ends: readers see all of it or none. It returns the first and last sequence
// numbers assigned. On error, tuples before the failing one remain applied
// (and are folded and published), matching a loop of Append calls.
func (e *Engine) AppendEach(chronicleName string, tuples []value.Tuple) (first, last int64, err error) {
	if len(tuples) == 0 {
		return 0, 0, fmt.Errorf("engine: empty append")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	defer e.publishDirtyLocked()
	c, ok := e.chronicles[chronicleName]
	if !ok {
		return 0, 0, fmt.Errorf("engine: unknown chronicle %q", chronicleName)
	}
	return e.appendCallLocked(c, tuples, nil)
}

// AppendEachIdem is AppendEach with exactly-once semantics: the request is
// identified by (clientID, requestID), and a request already applied — even
// in a previous process life, via WAL replay or checkpoint restore —
// returns its original sequence-number range with deduped=true instead of
// re-applying. Unlike AppendEach, the run is atomic: every tuple is coerced
// before the single WAL record is written, so a request is either applied
// whole (and remembered) or not at all — there is no durable prefix that a
// retry could double-apply.
func (e *Engine) AppendEachIdem(chronicleName string, tuples []value.Tuple, clientID, requestID string) (first, last int64, deduped bool, err error) {
	if len(tuples) == 0 {
		return 0, 0, false, fmt.Errorf("engine: empty append")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if ack, ok := e.dedup.Lookup(clientID, requestID); ok {
		e.dedupHits++
		return ack.FirstSN, ack.LastSN, true, nil
	}
	defer e.publishDirtyLocked()
	// If the covering commit fails, the run stays applied in memory without
	// being durably acknowledged. The DB facade latches read-only on that
	// error, which is what keeps the dedup entry from turning a failed
	// commit into a false positive ack on retry.
	first, last, err = e.appendEachAtomicLocked(chronicleName, tuples, clientID, requestID, nil, nil)
	if err != nil {
		return 0, 0, false, err
	}
	return first, last, false, nil
}

// AppendEachAt replays a MutAppendEach record: caller-supplied first SN and
// chronon, re-inserting the dedup entry so post-recovery retries still hit.
func (e *Engine) AppendEachAt(chronicleName string, firstSN, chronon int64, tuples []value.Tuple, clientID, requestID string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	defer e.publishDirtyLocked()
	_, _, err := e.appendEachAtomicLocked(chronicleName, tuples, clientID, requestID, &firstSN, &chronon)
	return err
}

// appendEachAtomicLocked applies one idempotent run: coerce everything,
// write ONE WAL record carrying the ids, apply the tuples as the call core
// does (each its own append transaction, sn = firstSN+i), and finally
// remember the ack. Like every *Locked fold it publishes nothing; the caller
// does, on the early error return too.
func (e *Engine) appendEachAtomicLocked(chronicleName string, tuples []value.Tuple, clientID, requestID string, snOverride, chOverride *int64) (first, last int64, err error) {
	c, ok := e.chronicles[chronicleName]
	if !ok {
		return 0, 0, fmt.Errorf("engine: unknown chronicle %q", chronicleName)
	}
	for i, t := range tuples {
		coerced, cerr := c.Schema().Coerce(t)
		if cerr != nil {
			return 0, 0, fmt.Errorf("engine: chronicle %s: tuple %d: %w", chronicleName, i, cerr)
		}
		tuples[i] = coerced
	}
	firstSN := c.Group().NextSN()
	if snOverride != nil {
		firstSN = *snOverride
	}
	chronon := e.cfg.Clock()
	if chOverride != nil {
		chronon = *chOverride
	}
	run := Mutation{
		Kind: MutAppendEach, LSN: e.cfg.NextLSN(), SN: firstSN, Chronon: chronon,
		ClientID: clientID, RequestID: requestID,
	}
	if e.onRecord != nil {
		e.scratch.parts = append(e.scratch.parts[:0], MutationPart{Chronicle: chronicleName, Tuples: tuples})
		run.Parts = e.scratch.parts
		if err := e.onRecord(run); err != nil {
			return 0, 0, fmt.Errorf("engine: recording append: %w", err)
		}
	}
	if first, last, err = e.appendCallLocked(c, tuples, &run); err != nil {
		// Unreachable in practice: the SNs are consecutive under e.mu and
		// every tuple was coerced above. Reported for safety.
		return 0, 0, err
	}
	if clientID != "" {
		e.dedup.Put(clientID, requestID, dedup.Ack{
			Chronicle: chronicleName, FirstSN: first, LastSN: last, Rows: len(tuples),
		})
	}
	return first, last, nil
}

// maintainChunk bounds the rows one maintenance round folds: a longer call
// folds chunk by chunk, so the call buffer and the plan's σ/Π buffers stay
// bounded while the call is still published once.
const maintainChunk = 4096

// appendCallLocked is the core every per-tuple append call shares (AppendEach,
// the idempotent run, its replay). Each tuple becomes its own append
// transaction — its own SN, chronon, LSN and stored row — and the stored rows
// gather in one call buffer that is folded into the views in a single
// maintenance round (one per maintainChunk rows for a longer call). Where the
// stamps come from is the one difference between the callers: with run nil
// every tuple is a storeLocked transaction with its own MutAppend record;
// under an already recorded MutAppendEach run (its tuples coerced before the
// record was cut) tuple i takes SN run.SN+i, the run's chronon, and the run's
// LSN for i = 0 or a fresh one — the same LSN consumption live and in replay.
// A call that fails at tuple i keeps tuples 0..i-1 applied and folds them
// before it returns; the caller publishes.
func (e *Engine) appendCallLocked(c *chronicle.Chronicle, tuples []value.Tuple, run *Mutation) (first, last int64, err error) {
	one := append(e.scratch.tuple[:0], nil) // the one-tuple batch of each transaction
	for i := 0; i < len(tuples) && err == nil; {
		rows := e.scratch.rows[:0]
		for ; i < len(tuples) && len(rows) < maintainChunk; i++ {
			one[0] = tuples[i]
			var sn int64
			var stored []chronicle.Row
			if run == nil {
				sn, stored, err = e.storeLocked(c, one, rows)
			} else {
				sn = run.SN + int64(i)
				lsn := run.LSN
				if i > 0 {
					lsn = e.cfg.NextLSN()
				}
				stored, err = c.AppendInto(sn, run.Chronon, lsn, one, rows)
			}
			if err != nil {
				err = fmt.Errorf("engine: tuple %d: %w", i, err)
				break
			}
			if i == 0 {
				first = sn
			}
			last, rows = sn, stored
		}
		e.scratch.rows = rows
		if len(rows) == 0 {
			break
		}
		e.stats.Appends += int64(len(rows))
		e.stats.TuplesAppended += int64(len(rows))
		clear(e.scratch.deltas)
		e.scratch.deltas[c] = rows
		e.maintain(e.scratch.deltas)
	}
	e.scratch.tuple = one
	return first, last, err
}

// RestoreDedupEntry reinstates one checkpointed idempotency entry.
func (e *Engine) RestoreDedupEntry(ent dedup.Entry) {
	e.dedup.Put(ent.ClientID, ent.RequestID, ent.Ack)
}

// DedupEntries snapshots the live idempotency entries in insertion order
// (checkpoint building).
func (e *Engine) DedupEntries() []dedup.Entry {
	out := make([]dedup.Entry, 0, e.dedup.Len())
	e.dedup.Range(func(ent dedup.Entry) bool {
		out = append(out, ent)
		return true
	})
	return out
}

// maintain is one maintenance round: it dispatches the rows of one append
// call (ascending in SN, each carrying its own chronon and LSN — see
// algebra.BatchDelta) to every affected persistent and periodic view: the
// shared-delta pipeline. It walks the affected targets, pulls each persistent
// view's expression delta from the shared plan — so a subexpression common to
// several views is evaluated once per round — captures it for the changefeed
// when one is installed, one frame per LSN so subscribers see what per-row
// maintenance would have sent, and folds it into the view before moving on
// (the plan's buffers and the call's stored rows are reused by the next
// round). Nothing is published here: a target folded into for the first time
// since its last publication joins e.dirty, and publishDirtyLocked publishes
// it when the whole call is in.
//
// Catalog access goes through the published snapshot (e.cat.Load()), the
// same generation the read path sees, so maintenance and DDL agree on the
// view set by construction rather than by lock-ordering subtlety.
func (e *Engine) maintain(deltas map[*chronicle.Chronicle][]chronicle.Row) {
	start := time.Now()
	batch := algebra.BatchDelta(deltas)
	cat := e.cat.Load()
	plan := cat.plan
	plan.BeginBatch()
	e.batchSeq++
	for c, rows := range deltas {
		for _, t := range e.disp.Affected(c, rows) {
			if t.Stamp(e.batchSeq) {
				continue // already claimed via another chronicle's delta
			}
			if v, ok := cat.views[t.ID]; ok {
				drows, planned := plan.DeltaFor(t.ID, batch)
				if !planned {
					// The published plan predates this view (not reachable
					// today — CreateView republishes before any append sees
					// the target — but cheap to keep correct).
					drows = v.Delta(batch)
				}
				if e.feed != nil {
					e.captureFeed(t.ID, drows)
				}
				if v.ApplyRows(drows) {
					e.dirty = append(e.dirty, v)
				}
				e.stats.ViewsMaintained++
			} else if pv, ok := cat.periodics[t.ID]; ok {
				// A fold error only occurs for invalid defs, which New vetted.
				if first, _ := pv.Fold(batch); first {
					e.dirty = append(e.dirty, pv)
				}
				e.stats.ViewsMaintained++
			}
		}
	}
	e.stats.SharedHits += plan.TakeHits()
	elapsed := time.Since(start)
	e.stats.MaintenanceNs += elapsed.Nanoseconds()
	e.maintLat.Observe(elapsed)
}

// captureFeed cuts one view's delta for the round into changefeed frames, one
// per LSN: delta rows ascend in SN and the rows of one mutation share its LSN,
// so each run of equal LSNs is exactly the frame that mutation's own round
// would have captured.
func (e *Engine) captureFeed(view string, drows []chronicle.Row) {
	for len(drows) > 0 {
		n := 1
		for n < len(drows) && drows[n].LSN == drows[0].LSN {
			n++
		}
		if e.pendingFeed == nil {
			e.pendingFeed = e.feed.Begin(e.feedDoor)
		}
		e.pendingFeed.Capture(view, drows[0].LSN, drows[:n])
		drows = drows[n:]
	}
}

// Chronicle returns a chronicle by name.
func (e *Engine) Chronicle(name string) (*chronicle.Chronicle, bool) {
	c, ok := e.cat.Load().chronicles[name]
	return c, ok
}

// Relation returns a relation by name.
func (e *Engine) Relation(name string) (*relation.Relation, bool) {
	r, ok := e.cat.Load().relations[name]
	return r, ok
}

// View returns a persistent view by name. View read methods are
// internally synchronized (B-tree views publish immutable snapshots, hash
// views an atomic table of frozen entries), so the handle may be used while
// other goroutines append.
func (e *Engine) View(name string) (*view.View, bool) {
	v, ok := e.cat.Load().views[name]
	return v, ok
}

// Read path. Every method below resolves names through the atomically
// published catalog and reads object state through per-object
// synchronization (view snapshots, chronicle/relation read locks) — none
// of them touches e.mu, so summary queries never serialize against the
// append hot path.
//
// Ownership rule: every tuple returned (or passed to a scan callback) by
// these methods is caller-owned — the engine clones anything that would
// otherwise alias store-owned memory, so callers may retain and mutate
// results freely.

// ownedRow upholds the ownership rule: projection views hand out the
// store's interned tuple (immutable, but shared), which is cloned before
// it escapes; group-by rows are already materialized per call.
func ownedRow(v *view.View, t value.Tuple) value.Tuple {
	if v.Def().Mode == view.SummarizeProject {
		return t.Clone()
	}
	return t
}

// ViewLookup answers a summary query from a persistent view by group key.
// It runs lock-free against the view's latest published snapshot.
func (e *Engine) ViewLookup(name string, key value.Tuple) (value.Tuple, bool, error) {
	start := time.Now()
	v, ok := e.cat.Load().views[name]
	if !ok {
		return nil, false, fmt.Errorf("engine: unknown view %q", name)
	}
	row, found := v.Lookup(key)
	if found {
		row = ownedRow(v, row)
	}
	e.readLookups.Add(1)
	e.readLat.Observe(time.Since(start))
	return row, found, nil
}

// ViewScan is the one scan entry of the read path: it streams the rows of
// the window w of a view — a key range, a direction, a limit and a residual
// filter, the zero Window being the whole view in group-key order — until fn
// returns false, and returns the LSN of the publication the rows were read
// from. All rows of one call come from that one publication; the
// changefeed's snapshot catch-up splices on the LSN (deltas at or below it
// are reflected in the rows fn saw). Tuples passed to fn are caller-owned;
// the tuple w.Keep sees is not.
func (e *Engine) ViewScan(name string, w view.Window, fn func(value.Tuple) bool) (uint64, error) {
	start := time.Now()
	v, ok := e.cat.Load().views[name]
	if !ok {
		return 0, fmt.Errorf("engine: unknown view %q", name)
	}
	lsn := v.Scan(w, func(t value.Tuple) bool {
		return fn(ownedRow(v, t))
	})
	e.readScans.Add(1)
	e.readLat.Observe(time.Since(start))
	return lsn, nil
}

// ChronicleRows copies a chronicle's retained window under the
// chronicle's own read lock. The rows are caller-owned.
func (e *Engine) ChronicleRows(name string) ([]chronicle.Row, error) {
	start := time.Now()
	c, ok := e.cat.Load().chronicles[name]
	if !ok {
		return nil, fmt.Errorf("engine: unknown chronicle %q", name)
	}
	rows := c.RowsCopy()
	e.readScans.Add(1)
	e.readLat.Observe(time.Since(start))
	return rows, nil
}

// PeriodicView returns a periodic view family by name.
func (e *Engine) PeriodicView(name string) (*calendar.PeriodicView, bool) {
	pv, ok := e.cat.Load().periodics[name]
	return pv, ok
}

// Group returns a chronicle group by name.
func (e *Engine) Group(name string) (*chronicle.Group, bool) {
	g, ok := e.cat.Load().groups[name]
	return g, ok
}

// Kind names one kind of catalog object, for Names.
type Kind uint8

// The catalog object kinds.
const (
	Groups Kind = iota
	Chronicles
	Relations
	Views
	PeriodicViews
)

// Names returns the names of the catalog objects of kind k, sorted.
func (e *Engine) Names(k Kind) []string {
	c := e.cat.Load()
	switch k {
	case Groups:
		return slices.Sorted(maps.Keys(c.groups))
	case Chronicles:
		return slices.Sorted(maps.Keys(c.chronicles))
	case Relations:
		return slices.Sorted(maps.Keys(c.relations))
	case Views:
		return slices.Sorted(maps.Keys(c.views))
	case PeriodicViews:
		return slices.Sorted(maps.Keys(c.periodics))
	}
	return nil
}
