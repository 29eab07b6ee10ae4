// Package engine implements the chronicle database system of Definition
// 2.1: the quadruple (C, R, L, V) of chronicles, relations, a view
// definition language, and persistent views — plus the periodic views of
// Section 5.1 and the affected-view dispatch of Section 5.2.
//
// The engine is the in-memory state of one shard: internal/shard runs one
// per shard behind its router, which owns what cuts across shards — the
// catalog every name resolves through, the LSN allocator, relation updates
// under the epoch barrier (the proactive ordering of Section 2.3), commits
// and changefeed publication. The engine holds no catalog: it keeps the
// chronicles, views and families it maintains, under the one mutex that
// serializes its updates. It hands every append to its
// recorder as the wal.Record it applies, and replays one the same way; the
// log itself and checkpoints are layered on top by the public chronicledb
// package.
package engine

import (
	"fmt"
	"sync"
	"time"

	"chronicledb/internal/algebra"
	"chronicledb/internal/calendar"
	"chronicledb/internal/chronicle"
	"chronicledb/internal/dedup"
	"chronicledb/internal/dispatch"
	"chronicledb/internal/feed"
	"chronicledb/internal/stats"
	"chronicledb/internal/value"
	"chronicledb/internal/view"
	"chronicledb/internal/wal"
)

// Config controls engine-wide defaults.
type Config struct {
	// DefaultRetention applies to chronicles created without an explicit
	// retention. The zero value (RetainNone) is the pure chronicle model.
	DefaultRetention chronicle.Retention
	// RelationHistory retains superseded relation versions for AsOf reads:
	// a join view created over retained rows backfills against the versions
	// each row was appended under (Options.RelationHistory).
	RelationHistory bool
	// Clock supplies chronons for appends. Nil uses wall-clock nanoseconds.
	Clock func() int64
	// NextLSN allocates n consecutive LSNs, a mutation's span, and returns
	// the first: a call's rows take consecutive LSNs however many shards
	// draw at once. The shard router gives every shard engine the same
	// allocator — the one its relation updates draw from — so that chronicle
	// rows and relation versions live in a single, totally ordered LSN
	// domain, which is what makes cross-shard proactive-update semantics
	// (and AsOf reference evaluation) exact. Required.
	NextLSN func(n uint64) uint64
	// DedupCap bounds the idempotency table (entries). Zero means
	// dedup.DefaultCap.
	DedupCap int
	// ViewCache, together with BlockFetch, enables blocked persistent view
	// stores: every view created on this engine pages its entries in
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
// maintenance: a k-row RecAppendEach call is k append transactions (Appends
// and TuplesAppended count tuples' transactions, each with its own SN)
// folded in one maintenance round.
type Stats struct {
	Appends         int64 // append transactions (one per SN)
	TuplesAppended  int64
	RelationUpdates int64
	MaintenanceNs   int64 // total time spent maintaining persistent views
	ViewsMaintained int64 // one per affected view per maintenance round, i.e. per append call
	SharedHits      int64 // node deltas served from the shared plan's per-round cache
}

// Counters is everything one engine counts, read at once: the maintenance
// counters, the idempotency table and the key directories — and, summed by
// the shard router, the read path it serves. Maintenance is the operational
// readout of the view language's IM class: SCA₁ views keep it flat forever.
type Counters struct {
	Stats
	DedupEntries   int
	DedupHits      int64 // idempotent appends answered from the dedup table
	DedupEvictions int64
	Lookups        int64
	Scans          int64
	Maintenance    stats.Histogram // view maintenance time, one observation per append call
	Read           stats.Histogram // read latency, one observation per lookup or scan
	DirKeys        int64           // group keys held by the views' key directories, each once per directory
}

// Add folds o into c: counts sum and histograms merge.
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
	c.DirKeys += o.DirKeys
}

// Engine is one shard's chronicle database system state. Its maps are what
// the append path and maintenance need under e.mu; readers resolve names
// through the shard router's catalog and never touch them.
type Engine struct {
	mu  sync.RWMutex
	cfg Config

	chronicles map[string]*chronicle.Chronicle
	views      map[string]*view.View
	periodics  map[string]*calendar.PeriodicView
	disp       *dispatch.Dispatcher
	// dirs holds the views' key directories by dirKey: the views and kept
	// families whose keys trace to the same columns of one chronicle share
	// one (view.Dir), whatever their σ; it counts them and goes when the
	// last is dropped.
	dirs map[string]*view.Dir
	// tables holds, by table key (view.Def.TableKey), a view of the table a
	// new view of that key may join (view.Join); it goes when the last of
	// the table's views is dropped. Views of one table key fold one
	// expression by the same columns, so their definitions give them one
	// dispatch filter and they are folded in the same rounds.
	tables map[string]*view.View

	// onRecord, when set, observes every append record before it is
	// applied; the WAL layer hooks in here. Returning an error aborts the
	// append.
	onRecord func(wal.Record) error

	stats     Stats
	dedupHits int64           // idempotent appends answered from the dedup table
	maintLat  stats.Histogram // view-maintenance latency, one observation per append call

	// plan is the shared-delta plan over every persistent view and periodic
	// family of the engine. DDL adds or drops one expression in it under
	// e.mu, and maintenance evaluates it under e.mu; EXPLAIN reads it under
	// the read side.
	plan *algebra.SharedPlan
	// cohorts holds, by cohortKey, one live member of each cohort of the
	// engine's families: the cohort a new family of that key joins.
	cohorts map[string]*calendar.PeriodicView

	// scratch is hot-path memory reused across mutations under e.mu. It
	// never escapes a mutation: recorders encode synchronously, the
	// chronicle copies retained rows, and views copy what they keep.
	scratch appendScratch

	// dedup is the bounded idempotency table of calls with ids. It is
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

// appendScratch backs the allocation-free append path.
type appendScratch struct {
	tuple    []value.Tuple                            // a per-tuple call's one-tuple batch
	parts    []wal.Part                               // a per-tuple call's recorded part
	chronons []int64                                  // a per-tuple call's clock readings
	rows     []chronicle.Row                          // stored rows of one call (at most maintainChunk)
	batch    []chronicle.BatchPart                    // resolved batch parts
	deltas   map[*chronicle.Chronicle][]chronicle.Row // maintain input
}

// New creates an empty engine.
func New(cfg Config) *Engine {
	if cfg.Clock == nil {
		cfg.Clock = func() int64 { return time.Now().UnixNano() }
	}
	e := &Engine{
		cfg:        cfg,
		chronicles: make(map[string]*chronicle.Chronicle),
		views:      make(map[string]*view.View),
		periodics:  make(map[string]*calendar.PeriodicView),
		disp:       dispatch.New(),
		dirs:       make(map[string]*view.Dir),
		tables:     make(map[string]*view.View),
		plan:       algebra.NewSharedPlan(),
		cohorts:    make(map[string]*calendar.PeriodicView),
		scratch: appendScratch{
			deltas: make(map[*chronicle.Chronicle][]chronicle.Row),
		},
		dedup: dedup.NewTable(cfg.DedupCap),
	}
	return e
}

// ViewSharedPlan lists the shared-plan nodes of a view's or periodic family's
// expression in post-order (root last), with each node's cross-view consumer
// count — the EXPLAIN readout of delta sharing. ok is false for unknown names.
// It reads the plan under the read lock, which DDL excludes.
func (e *Engine) ViewSharedPlan(name string) (nodes []algebra.PlanNodeInfo, ok bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	nodes = e.plan.ViewNodes(name)
	return nodes, nodes != nil
}

// SetRecorder installs the append-record observer (the WAL hook).
func (e *Engine) SetRecorder(fn func(wal.Record) error) {
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
// folded runs it before unlocking, error paths included: a failed plain call
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
// are copied under one read lock, the dedup table's own counts outside it.
// The read path's counters are the router's.
func (e *Engine) Counters() Counters {
	e.mu.RLock()
	c := Counters{Stats: e.stats, DedupHits: e.dedupHits, Maintenance: e.maintLat}
	for _, d := range e.dirs {
		c.DirKeys += int64(d.Len())
	}
	e.mu.RUnlock()
	c.DedupEntries, c.DedupEvictions = e.dedup.Len(), e.dedup.Evictions()
	return c
}

// CreateChronicle creates a chronicle in group g, whose members this engine
// appends to under e.mu. The router has claimed the name.
func (e *Engine) CreateChronicle(name string, g *chronicle.Group, schema *value.Schema, retain *chronicle.Retention) (*chronicle.Chronicle, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	r := e.cfg.DefaultRetention
	if retain != nil {
		r = *retain
	}
	c, err := g.NewChronicle(name, schema, r)
	if err != nil {
		return nil, err
	}
	e.chronicles[name] = c
	return c, nil
}

// CreateView materializes a persistent view and registers it for dispatch,
// narrowed (Section 5.2) by the filter its definition gives it
// (algebra.DispatchFilter). The router has claimed the name.
//
// A view that does not page joins the open table of its table key
// (view.Join) when the table holds no group — so neither does the view's
// retained history. Any other view gets a table of its own, and an unpaged
// one opens it to later views when its table key has none that may still be
// joined. Either way its keys live in the directory of its key source
// (dirKey).
func (e *Engine) CreateView(def view.Def) (*view.View, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	// The retained history the view starts with; nil when a chronicle has
	// dropped rows, and the view is then current only for the append suffix
	// (which is all the pure model can promise).
	var history []chronicle.Row
	var herr error
	if def.Expr != nil {
		history, herr = algebra.Evaluate(def.Expr)
	}
	paged := e.cfg.ViewCache != nil && e.cfg.BlockFetch != nil
	key := def.TableKey()
	dir := e.dirLocked(def)
	var v *view.View
	var err error
	host := e.tables[key]
	joins := host != nil && !paged && len(history) == 0 && host.TableEmpty()
	if joins {
		v, err = view.Join(def, host)
	} else {
		v, err = view.NewIn(def, dir)
	}
	if err != nil {
		return nil, err
	}
	filter, base := algebra.DispatchFilter(def.Expr)
	if err := e.disp.Register(&dispatch.Target{
		ID:              def.Name,
		Chronicles:      v.Info().Chronicles,
		Filter:          filter,
		FilterChronicle: base,
	}); err != nil {
		v.Leave()
		return nil, err
	}
	// Page views against the shared block cache before backfill or
	// publication, so every entry the view ever holds is block-attributed.
	if paged {
		v.EnablePaging(e.cfg.ViewBlockBytes, e.cfg.BlockFetch, e.cfg.ViewCache)
	} else if host == nil || !host.TableEmpty() {
		e.tables[key] = v
	}
	e.acquireDirLocked(dir, def)
	// Fold in the retained history so the view is current from creation:
	// into a table of its own, for a view that joined one had none.
	if herr == nil && !joins && v.ApplyRows(history) {
		e.dirty = append(e.dirty, v)
	}
	e.publishDirtyLocked()
	e.views[def.Name] = v
	e.plan.AddView(def.Name, def.Expr)
	return v, nil
}

// dirKey names the key directory of a view: its key source, the columns
// of one chronicle its key traces to through σ and Π (algebra.KeySource).
// Views and kept families that group one chronicle by the same columns meet
// the same keys whatever their σ — the paper's many summaries of one
// chronicle by one attribute — and hold them once. A key read through a
// join, a union or a difference names its directory by its table key.
func dirKey(def view.Def) string {
	if scan, base, ok := algebra.KeySource(def.Expr, def.KeyCols()); ok {
		return fmt.Sprintf("%v|%s", base, algebra.Fingerprint(scan))
	}
	return def.TableKey()
}

// dirLocked returns the key directory for def, or a new one named after it
// that acquireDirLocked registers once the member made in it is in.
func (e *Engine) dirLocked(def view.Def) *view.Dir {
	if d := e.dirs[dirKey(def)]; d != nil {
		return d
	}
	return view.NewDir(def.Name)
}

// acquireDirLocked counts a new member of definition def in d, and d in the
// engine; releaseDirLocked undoes it.
func (e *Engine) acquireDirLocked(d *view.Dir, def view.Def) {
	d.Acquire()
	e.dirs[dirKey(def)] = d
}

// CreatePeriodicView creates a periodic view family (Section 5.1),
// dispatched on its dependencies and its calendar. The router has claimed
// the name.
//
// The family joins the cohort of the engine's families that match it
// (cohortKey), found through e.cohorts: from the next interval born on, its
// instance of an interval shares one table with theirs
// (calendar.PeriodicView.Share). A family that matches none is a cohort of
// one.
func (e *Engine) CreatePeriodicView(name string, def view.Def, cal *calendar.Periodic, expireAfter int64) (*calendar.PeriodicView, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	pv, err := calendar.NewPeriodicView(name, def, cal, expireAfter, e.dirLocked(def))
	if err != nil {
		return nil, err
	}
	key := cohortKey(def, cal, expireAfter)
	peer := e.cohorts[key]
	if peer != nil {
		pv.Share(peer)
	}
	info := algebra.Analyze(def.Expr)
	if err := e.disp.Register(&dispatch.Target{
		ID:         name,
		Chronicles: info.Chronicles,
		ActiveAt: func(ch int64) (bool, int64, int64) {
			lo, hi := cal.SpanAt(ch)
			return cal.Covers(ch), lo, hi
		},
	}); err != nil {
		return nil, err
	}
	if pv.Dir() != nil { // a family that keeps its instances
		e.acquireDirLocked(pv.Dir(), def)
	}
	e.periodics[name] = pv
	if peer == nil {
		e.cohorts[key] = pv
	}
	e.plan.AddView(name, def.Expr)
	return pv, nil
}

// FamilyInfo is what SHOW VIEWS and EXPLAIN VIEW report of a periodic
// family.
type FamilyInfo struct {
	Live             int
	Created, Expired int64
	Tables           []string // the families sharing its tables, it first (calendar.PeriodicView.TableFamilies)
}

// FamilyInfo reads family name's counts and table sharing under the lock
// its maintenance holds, which changes its instances; ok is false for an
// unknown name.
func (e *Engine) FamilyInfo(name string) (info FamilyInfo, ok bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	pv := e.periodics[name]
	if pv == nil {
		return FamilyInfo{}, false
	}
	return FamilyInfo{Live: pv.Live(), Created: pv.Created(), Expired: pv.Expired(), Tables: pv.TableFamilies()}, true
}

// cohortKey names the cohort of a periodic family: families of one table
// key — one expression, so one dispatch filter, folded by the same columns —
// on one calendar with one expiry fold the same rows into the same intervals
// in the same rounds, and so can share each interval's table. The engine is
// one shard's: every family it holds has it as home.
func cohortKey(def view.Def, cal *calendar.Periodic, expireAfter int64) string {
	return fmt.Sprintf("%s|%s|%d", def.TableKey(), cal, expireAfter)
}

// DropView removes a persistent or periodic view from the database. The
// paper's model has "a fixed number of persistent views"; dropping is the
// administrative escape hatch (a dropped view's summarized history is gone
// for good — the chronicle it summarized was never stored).
func (e *Engine) DropView(name string) error {
	e.mu.Lock()
	if v := e.views[name]; v != nil {
		v.ReleasePaging()
		e.leaveTableLocked(v)
		e.releaseDirLocked(v.Dir(), v.Def())
		delete(e.views, name)
	} else if pv := e.periodics[name]; pv != nil {
		pv.Leave()
		if pv.Dir() != nil {
			e.releaseDirLocked(pv.Dir(), pv.Def())
		}
		if key := cohortKey(pv.Def(), pv.Calendar(), pv.ExpireAfter()); e.cohorts[key] == pv {
			if peer := pv.Peer(); peer != nil {
				e.cohorts[key] = peer
			} else {
				delete(e.cohorts, key)
			}
		}
		delete(e.periodics, name)
	} else {
		e.mu.Unlock()
		return fmt.Errorf("engine: no view named %q", name)
	}
	e.disp.Unregister(name)
	e.plan.DropView(name)
	h := e.feed
	e.mu.Unlock()
	if h != nil {
		// Terminate the view's subscriptions (ReasonDropped) and free its
		// resume tail; done outside e.mu so feed locks never nest inside it.
		h.DropView(name)
	}
	return nil
}

// leaveTableLocked takes a dropped view out of its table; an open table
// whose host it was is handed to another of its views, or goes with it.
func (e *Engine) leaveTableLocked(v *view.View) {
	v.Leave()
	key := v.Def().TableKey()
	if e.tables[key] == v {
		if rest := v.TableViews(); len(rest) > 0 {
			e.tables[key] = e.views[rest[0]]
		} else {
			delete(e.tables, key)
		}
	}
}

// releaseDirLocked counts a dropped member out of d, and d out of the
// engine with its last member.
func (e *Engine) releaseDirLocked(d *view.Dir, def view.Def) {
	if d.Release() == 0 {
		delete(e.dirs, dirKey(def))
	}
}

// Append applies one append call: the engine's one append entry, for live
// calls, WAL recovery and follower apply alike. A RecAppend is one
// transaction: one SN, chronon and LSN across its parts, chronicles of one
// group (DB.Append, APPEND … ALSO INTO). A RecAppendEach is a call of one
// transaction per tuple of its one chronicle: tuple i takes SN rec.SN+i,
// chronon rec.ChrononAt(i) and LSN rec.LSN+i (DB.AppendRows, and with ids
// AppendRowsIdem).
//
// A record without an LSN is a live call: the engine stamps it (the group's
// next SN, a clock reading per transaction, the call's whole LSN span in one
// NextLSN) and hands it to the recorder before applying it. A record with an
// LSN is applied at the coordinates it carries, without reading the clock
// (a per-tuple read was a tenth of a 16-row call's replay). Either way
// the call is one record, one maintenance round (one per maintainChunk rows)
// and one publication of every view it reaches: readers see all of it or
// none.
//
// A live call with ids is exactly once: a pair already applied, even in a
// previous process life, returns its original SN range with deduped set. It is
// atomic too: every tuple is coerced before anything is stamped. A plain call
// that fails to coerce tuple i applies, records and publishes tuples 0..i-1
// as one call and returns their SN range with the error. The range is the
// first and last SN assigned, one SN for a RecAppend.
func (e *Engine) Append(rec wal.Record) (first, last int64, deduped bool, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	live := rec.LSN == 0
	if live && rec.ClientID != "" {
		if ack, ok := e.dedup.Lookup(rec.ClientID, rec.RequestID); ok {
			e.dedupHits++
			return ack.FirstSN, ack.LastSN, true, nil
		}
	}
	defer e.publishDirtyLocked()
	switch rec.Kind {
	case wal.RecAppend:
		first, err = e.appendBatchLocked(rec, live)
		return first, first, false, err
	case wal.RecAppendEach:
		first, last, err = e.appendEachLocked(rec, live)
		return first, last, false, err
	}
	return 0, 0, false, fmt.Errorf("engine: WAL record kind %d is not an append", rec.Kind)
}

// appendBatchLocked applies one RecAppend. Every part is resolved and coerced
// before the record is cut, so a batch that cannot apply is never recorded.
func (e *Engine) appendBatchLocked(rec wal.Record, live bool) (int64, error) {
	if len(rec.Parts) == 0 {
		return 0, fmt.Errorf("engine: empty batch")
	}
	resolved := e.scratch.batch[:0]
	var g *chronicle.Group
	for _, p := range rec.Parts {
		c, ok := e.chronicles[p.Chronicle]
		if !ok {
			return 0, fmt.Errorf("engine: unknown chronicle %q", p.Chronicle)
		}
		if len(p.Tuples) == 0 {
			return 0, fmt.Errorf("chronicle %s: empty append", p.Chronicle)
		}
		if g == nil {
			g = c.Group()
		} else if c.Group() != g {
			return 0, fmt.Errorf("group %s: chronicle %s belongs to group %s", g.Name(), c.Name(), c.Group().Name())
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
	if live {
		rec.SN, rec.Chronon, rec.LSN = g.NextSN(), e.cfg.Clock(), e.cfg.NextLSN(1)
	}
	if e.onRecord != nil {
		if err := e.onRecord(rec); err != nil {
			return 0, fmt.Errorf("engine: recording append: %w", err)
		}
	}
	clear(e.scratch.deltas)
	rows, err := g.AppendBatchInto(rec.SN, rec.Chronon, rec.LSN, resolved, e.scratch.rows[:0], e.scratch.deltas)
	if err != nil {
		return 0, err
	}
	e.scratch.rows = rows
	e.maintain(e.scratch.deltas)
	e.stats.Appends++
	e.stats.TuplesAppended += int64(len(rows))
	return rec.SN, nil
}

// maintainChunk bounds the rows one maintenance round folds: a longer call
// folds chunk by chunk, so the call buffer and the plan's σ/Π buffers stay
// bounded while the call is still published once.
const maintainChunk = 4096

// appendEachLocked applies one RecAppendEach. It coerces the tuples (a plain
// call keeps the prefix before the first that fails), stamps a live call,
// records the call as one record, stores each tuple as its own transaction,
// gathering the stored rows in one call buffer, and folds them in one
// maintenance round per maintainChunk rows. Like every *Locked fold it
// publishes nothing; Append does, on the error returns too.
func (e *Engine) appendEachLocked(rec wal.Record, live bool) (first, last int64, err error) {
	if len(rec.Parts) != 1 {
		return 0, 0, fmt.Errorf("engine: append call with %d parts, want 1", len(rec.Parts))
	}
	p := rec.Parts[0]
	c, ok := e.chronicles[p.Chronicle]
	if !ok {
		return 0, 0, fmt.Errorf("engine: unknown chronicle %q", p.Chronicle)
	}
	if len(p.Tuples) == 0 {
		return 0, 0, fmt.Errorf("engine: empty append")
	}
	if rec.Chronons != nil && len(rec.Chronons) != len(p.Tuples) {
		return 0, 0, fmt.Errorf("engine: append call with %d chronons for %d tuples", len(rec.Chronons), len(p.Tuples))
	}
	var stop error // where a plain call stops: returned once its prefix is in
	for i, t := range p.Tuples {
		coerced, cerr := c.Schema().Coerce(t)
		if cerr != nil {
			stop = fmt.Errorf("engine: chronicle %s: tuple %d: %w", p.Chronicle, i, cerr)
			if i == 0 || rec.ClientID != "" {
				return 0, 0, stop
			}
			p.Tuples = p.Tuples[:i]
			break
		}
		p.Tuples[i] = coerced
	}
	n := len(p.Tuples)
	e.scratch.parts = append(e.scratch.parts[:0], p)
	rec.Parts = e.scratch.parts
	if live {
		chronons := e.scratch.chronons[:0]
		for range n {
			chronons = append(chronons, e.cfg.Clock())
		}
		e.scratch.chronons = chronons
		rec.SN, rec.Chronon, rec.Chronons = c.Group().NextSN(), chronons[0], chronons
		rec.LSN = e.cfg.NextLSN(uint64(n))
	}
	if e.onRecord != nil {
		if err := e.onRecord(rec); err != nil {
			return 0, 0, fmt.Errorf("engine: recording append: %w", err)
		}
	}
	one := append(e.scratch.tuple[:0], nil) // the one-tuple batch of each transaction
	for i := 0; i < n && err == nil; {
		rows := e.scratch.rows[:0]
		for ; i < n && len(rows) < maintainChunk; i++ {
			one[0] = p.Tuples[i]
			stored, aerr := c.AppendInto(rec.SN+int64(i), rec.ChrononAt(i), rec.LSN+uint64(i), one, rows)
			if aerr != nil {
				// Live, unreachable: the SNs are consecutive under e.mu and every
				// tuple was coerced above. A replayed record may be stale.
				err = fmt.Errorf("engine: tuple %d: %w", i, aerr)
				break
			}
			rows = stored
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
	if err != nil {
		return 0, 0, err
	}
	first, last = rec.SN, rec.SN+int64(n-1)
	if rec.ClientID != "" {
		// If the covering commit fails, the call stays applied in memory
		// without being durably acknowledged. The DB facade latches read-only
		// on that error, which is what keeps the dedup entry from turning a
		// failed commit into a false positive ack on retry.
		e.dedup.Put(rec.ClientID, rec.RequestID, dedup.Ack{
			Chronicle: p.Chronicle, FirstSN: first, LastSN: last, Rows: n,
		})
	}
	return first, last, stop
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
// when one is installed, one frame per view holding one delta per LSN, so
// subscribers see what per-row maintenance would have sent, and folds it into
// the view before moving on (the plan's buffers and the call's stored rows are
// reused by the next round). Nothing is published here: a target folded into for the first time
// since its last publication joins e.dirty, and publishDirtyLocked publishes
// it when the whole call is in.
//
// It reads the engine's views, families and plan under the e.mu it runs
// under, which DDL takes too, so maintenance and DDL agree on the view set.
func (e *Engine) maintain(deltas map[*chronicle.Chronicle][]chronicle.Row) {
	start := time.Now()
	batch := algebra.BatchDelta(deltas)
	plan := e.plan
	plan.BeginBatch()
	e.batchSeq++
	for c, rows := range deltas {
		for _, t := range e.disp.Affected(c, rows) {
			if t.Stamp(e.batchSeq) {
				continue // already claimed via another chronicle's delta
			}
			// plan holds every view and family of the engine, and nothing else.
			drows, planned := plan.DeltaFor(t.ID, batch)
			if !planned {
				continue
			}
			if v, ok := e.views[t.ID]; ok {
				if e.feed != nil {
					e.captureFeed(t.ID, drows)
				}
				if v.ApplyCall(e.batchSeq, drows) {
					e.dirty = append(e.dirty, v)
				}
				e.stats.ViewsMaintained++
			} else if pv, ok := e.periodics[t.ID]; ok {
				// A fold error only occurs for invalid defs, which New vetted.
				if first, _ := pv.Fold(e.batchSeq, batch, drows); first {
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

// captureFeed packs one view's delta for the round into one changefeed frame.
// Delta rows ascend in SN and each carries its mutation's LSN, so the frame's
// LSN is its last row's, and a subscriber that cuts it at LSN changes gets
// exactly the deltas that per-row rounds would have captured.
func (e *Engine) captureFeed(view string, drows []chronicle.Row) {
	if len(drows) == 0 {
		return
	}
	if e.pendingFeed == nil {
		e.pendingFeed = e.feed.Begin(e.feedDoor)
	}
	e.pendingFeed.Capture(view, drows[len(drows)-1].LSN, drows)
}
