package shard

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"

	"chronicledb/internal/algebra"
	"chronicledb/internal/calendar"
	"chronicledb/internal/chronicle"
	"chronicledb/internal/dedup"
	"chronicledb/internal/engine"
	"chronicledb/internal/feed"
	"chronicledb/internal/pred"
	"chronicledb/internal/relation"
	"chronicledb/internal/stats"
	"chronicledb/internal/value"
	"chronicledb/internal/view"
)

// Config configures a Router.
type Config struct {
	// Shards is the number of single-writer shards (≥ 1).
	Shards int
	// Engine is the per-shard engine configuration.
	Engine engine.Config
}

// Router fronts N single-writer shards. Chronicle groups (and the views
// that depend on them) are hash-partitioned across shards; relations are
// shared state updated under an epoch barrier; queries scatter/gather.
type Router struct {
	cfg    Config
	shards []*shardState

	// lsn is the shared LSN allocator: every shard engine and every
	// relation update draws from it, giving one total mutation order.
	lsn atomic.Uint64

	// relGate is the epoch barrier. Every shard pass holds the read side;
	// relation updates, checkpoints, and other quiescing operations take
	// the write side.
	relGate sync.RWMutex
	// relMu serializes relation updates (and guards relRecorder/relCommit).
	relMu       sync.Mutex
	relRecorder func(engine.Mutation) error
	relCommit   func() error
	relUpdates  atomic.Int64

	// mu guards the routing catalog.
	mu        sync.RWMutex
	names     map[string]string // object name -> kind, across all shards
	chronHome map[string]int    // chronicle name -> shard index
	viewHome  map[string]int    // view / periodic-view name -> shard index
	relations map[string]*relation.Relation
}

// NewRouter creates a router with cfg.Shards single-writer shards.
func NewRouter(cfg Config) (*Router, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("shard: need at least 1 shard, got %d", cfg.Shards)
	}
	r := &Router{
		cfg:       cfg,
		names:     make(map[string]string),
		chronHome: make(map[string]int),
		viewHome:  make(map[string]int),
		relations: make(map[string]*relation.Relation),
	}
	ecfg := cfg.Engine
	ecfg.NextLSN = func() uint64 { return r.lsn.Add(1) }
	for i := 0; i < cfg.Shards; i++ {
		s := &shardState{id: i, eng: engine.New(ecfg)}
		s.idle.L = &s.mu
		r.shards = append(r.shards, s)
	}
	return r, nil
}

// NumShards returns the shard count.
func (r *Router) NumShards() int { return len(r.shards) }

// Engine returns shard i's engine (diagnostics, recorder wiring).
func (r *Router) Engine(i int) *engine.Engine { return r.shards[i].eng }

// ShardOfGroup returns the shard index owning a group name.
func (r *Router) ShardOfGroup(group string) int {
	h := fnv.New32a()
	h.Write([]byte(group))
	return int(h.Sum32() % uint32(len(r.shards)))
}

// Close stops every shard once its queued appends have been answered.
// Further appends fail; reads keep working. Idempotent.
func (r *Router) Close() {
	for _, s := range r.shards {
		s.close()
	}
}

// Barrier quiesces every shard's in-flight pass, runs fn with the
// database frozen, and resumes. Checkpointing uses it to cut a consistent
// cross-shard snapshot.
func (r *Router) Barrier(fn func() error) error {
	r.relMu.Lock()
	defer r.relMu.Unlock()
	r.relGate.Lock()
	defer r.relGate.Unlock()
	return fn()
}

// SetRelationRecorder installs the WAL hook for router-level relation
// updates (the per-shard append hooks are installed on the shard engines).
func (r *Router) SetRelationRecorder(fn func(engine.Mutation) error) {
	r.relMu.Lock()
	defer r.relMu.Unlock()
	r.relRecorder = fn
}

// SetRelationCommitter installs the durability hook run after each
// router-level relation update (the relation segment's group-commit door).
func (r *Router) SetRelationCommitter(fn func() error) {
	r.relMu.Lock()
	defer r.relMu.Unlock()
	r.relCommit = fn
}

// SetShardCommitter installs shard i's durability hook, run once per pass.
func (r *Router) SetShardCommitter(i int, fn func() error) {
	r.shards[i].commit = fn
}

// SetFeed installs one shared changefeed hub into every shard engine:
// captured frames stay pending until the shard's pass detaches them with
// TakeFeed and publishes them after its commit. Every shard draws LSNs
// from the router's shared allocator and every view is maintained by
// exactly one shard, so the shared hub merges the multi-shard feeds into
// per-view streams in LSN order.
func (r *Router) SetFeed(h *feed.Hub) {
	for _, s := range r.shards {
		s.eng.SetFeed(h)
		s.feeds = true
	}
}

// --- catalog ------------------------------------------------------------

func (r *Router) claim(name, kind string) error {
	if name == "" {
		return fmt.Errorf("shard: empty %s name", kind)
	}
	if existing, ok := r.names[name]; ok {
		return fmt.Errorf("engine: name %q already used by a %s", name, existing)
	}
	r.names[name] = kind
	return nil
}

// CreateGroup creates a chronicle group on its home shard.
func (r *Router) CreateGroup(name string) (*chronicle.Group, error) {
	return r.shards[r.ShardOfGroup(name)].eng.CreateGroup(name)
}

// CreateChronicle creates a chronicle on the shard owning its group.
func (r *Router) CreateChronicle(name, groupName string, schema *value.Schema, retain *chronicle.Retention) (*chronicle.Chronicle, error) {
	if groupName == "" {
		groupName = name
	}
	idx := r.ShardOfGroup(groupName)
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.claim(name, "chronicle"); err != nil {
		return nil, err
	}
	c, err := r.shards[idx].eng.CreateChronicle(name, groupName, schema, retain)
	if err != nil {
		delete(r.names, name)
		return nil, err
	}
	r.chronHome[name] = idx
	return c, nil
}

// CreateRelation creates a relation shared by every shard: relations cut
// across groups, so one versioned instance is adopted into every shard's
// catalog and all shards resolve the name to the same state.
func (r *Router) CreateRelation(name string, schema *value.Schema, keyCols []int) (*relation.Relation, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.claim(name, "relation"); err != nil {
		return nil, err
	}
	rel, err := relation.New(name, schema, keyCols, r.cfg.Engine.RelationHistory)
	if err != nil {
		delete(r.names, name)
		return nil, err
	}
	for _, s := range r.shards {
		if err := s.eng.AdoptRelation(rel); err != nil {
			delete(r.names, name)
			return nil, fmt.Errorf("shard %d: %w", s.id, err)
		}
	}
	r.relations[name] = rel
	return rel, nil
}

// homeOfDef locates the single shard owning every chronicle a view
// definition depends on. Views spanning groups on different shards are
// rejected: the single-writer invariant requires each view to be
// maintained by exactly one shard.
func (r *Router) homeOfDef(name string, expr algebra.Node) (int, error) {
	info := algebra.Analyze(expr)
	if len(info.Chronicles) == 0 {
		return 0, fmt.Errorf("shard: view %q depends on no chronicles", name)
	}
	home := -1
	for _, c := range info.Chronicles {
		idx, ok := r.chronHome[c.Name()]
		if !ok {
			return 0, fmt.Errorf("shard: view %q references unknown chronicle %q", name, c.Name())
		}
		if home == -1 {
			home = idx
		} else if home != idx {
			return 0, fmt.Errorf("shard: view %q spans chronicle groups owned by different shards (%d and %d); views must be maintainable by a single writer", name, home, idx)
		}
	}
	return home, nil
}

// CreateView materializes a persistent view on the shard owning its
// chronicles and registers it with that shard's dispatcher.
func (r *Router) CreateView(def view.Def, kind view.StoreKind, filter pred.Predicate, filterChronicle *chronicle.Chronicle) (*view.View, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	idx, err := r.homeOfDef(def.Name, def.Expr)
	if err != nil {
		return nil, err
	}
	if err := r.claim(def.Name, "view"); err != nil {
		return nil, err
	}
	// Backfill inside CreateView reads relation state: hold the epoch
	// gate so a concurrent relation update cannot tear the initial scan.
	r.relGate.RLock()
	v, err := r.shards[idx].eng.CreateView(def, kind, filter, filterChronicle)
	r.relGate.RUnlock()
	if err != nil {
		delete(r.names, def.Name)
		return nil, err
	}
	r.viewHome[def.Name] = idx
	return v, nil
}

// CreatePeriodicView creates a periodic view family on its home shard.
func (r *Router) CreatePeriodicView(name string, def view.Def, cal calendar.Calendar, expireAfter int64, kind view.StoreKind) (*calendar.PeriodicView, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	idx, err := r.homeOfDef(name, def.Expr)
	if err != nil {
		return nil, err
	}
	if err := r.claim(name, "periodic view"); err != nil {
		return nil, err
	}
	pv, err := r.shards[idx].eng.CreatePeriodicView(name, def, cal, expireAfter, kind)
	if err != nil {
		delete(r.names, name)
		return nil, err
	}
	r.viewHome[name] = idx
	return pv, nil
}

// DropView removes a persistent or periodic view from its home shard.
func (r *Router) DropView(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	idx, ok := r.viewHome[name]
	if !ok {
		return fmt.Errorf("engine: no view named %q", name)
	}
	if err := r.shards[idx].eng.DropView(name); err != nil {
		return err
	}
	delete(r.viewHome, name)
	delete(r.names, name)
	return nil
}

// --- appends ------------------------------------------------------------

func (r *Router) homeOfChronicle(name string) (*shardState, error) {
	r.mu.RLock()
	idx, ok := r.chronHome[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("engine: unknown chronicle %q", name)
	}
	return r.shards[idx], nil
}

// submit runs a filled request through its chronicle's home shard and
// returns with its result fields set, req.err included; the caller reads
// them and recycles the request.
func (r *Router) submit(chronicleName string, req *appendReq) {
	s, err := r.homeOfChronicle(chronicleName)
	if err != nil {
		req.err = err
		return
	}
	s.do(&r.relGate, req)
}

// Append inserts tuples into one chronicle as a single transaction on its
// home shard, returning after every affected view there is maintained.
func (r *Router) Append(chronicleName string, tuples []value.Tuple) (int64, error) {
	req := getReq()
	defer putReq(req)
	req.op, req.chronicle, req.tuples = opAppend, chronicleName, tuples
	r.submit(chronicleName, req)
	return req.sn, req.err
}

// AppendEach inserts each tuple as its own transaction in one pass — the
// bulk ingest path the HTTP /append endpoint uses. The whole run is applied
// under a single engine-lock acquisition.
func (r *Router) AppendEach(chronicleName string, tuples []value.Tuple) (first, last int64, err error) {
	req := getReq()
	defer putReq(req)
	req.op, req.chronicle, req.tuples = opEach, chronicleName, tuples
	r.submit(chronicleName, req)
	return req.first, req.last, req.err
}

// AppendEachIdem is AppendEach with exactly-once semantics: the request
// routes to the chronicle's home shard, whose engine answers a repeat
// (clientID, requestID) pair from its dedup table instead of re-applying.
// Because a chronicle's home shard is stable across restarts (hash of its
// group name), a retried request always lands on the shard holding its
// dedup entry.
func (r *Router) AppendEachIdem(chronicleName string, tuples []value.Tuple, clientID, requestID string) (first, last int64, deduped bool, err error) {
	req := getReq()
	defer putReq(req)
	req.op, req.chronicle, req.tuples = opEachIdem, chronicleName, tuples
	req.clientID, req.requestID = clientID, requestID
	r.submit(chronicleName, req)
	return req.first, req.last, req.deduped, req.err
}

// AppendEachAt replays an idempotent bulk append with caller-supplied
// first SN and chronon on the home shard (WAL replay and follower apply),
// re-inserting the dedup entry there.
func (r *Router) AppendEachAt(chronicleName string, firstSN, chronon int64, tuples []value.Tuple, clientID, requestID string) error {
	req := getReq()
	defer putReq(req)
	req.op, req.chronicle, req.tuples = opEachIdemAt, chronicleName, tuples
	req.sn, req.chronon = firstSN, chronon
	req.clientID, req.requestID = clientID, requestID
	r.submit(chronicleName, req)
	return req.err
}

// AppendBatch inserts tuples into several chronicles of one group
// simultaneously, sharing one sequence number.
func (r *Router) AppendBatch(parts []engine.MutationPart) (int64, error) {
	if len(parts) == 0 {
		return 0, fmt.Errorf("engine: empty batch")
	}
	req := getReq()
	defer putReq(req)
	req.op, req.parts = opBatch, parts
	r.submit(parts[0].Chronicle, req)
	return req.sn, req.err
}

// AppendBatchAt is AppendBatch with caller-supplied SN and chronon (WAL
// replay and follower apply).
func (r *Router) AppendBatchAt(parts []engine.MutationPart, sn, chronon int64) (int64, error) {
	if len(parts) == 0 {
		return 0, fmt.Errorf("engine: empty batch")
	}
	req := getReq()
	defer putReq(req)
	req.op, req.parts = opBatchAt, parts
	req.sn, req.chronon = sn, chronon
	r.submit(parts[0].Chronicle, req)
	return req.sn, req.err
}

// --- relation updates (epoch barrier) -----------------------------------

func (r *Router) relationByName(name string) (*relation.Relation, error) {
	r.mu.RLock()
	rel, ok := r.relations[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("engine: unknown relation %q", name)
	}
	return rel, nil
}

// Upsert applies a proactive relation update under the epoch barrier: the
// router stamps a global LSN, waits for every shard's in-flight pass to
// finish, applies the update to the shared relation (visible in every
// shard's catalog), and resumes. Appends that completed before this call
// used the old version; appends that start after it see the new one — on
// every shard, exactly the §2.3 semantics.
func (r *Router) Upsert(relationName string, t value.Tuple) error {
	rel, err := r.relationByName(relationName)
	if err != nil {
		return err
	}
	coerced, err := rel.Schema().Coerce(t)
	if err != nil {
		return fmt.Errorf("engine: relation %s: %w", relationName, err)
	}
	r.relMu.Lock()
	defer r.relMu.Unlock()
	r.relGate.Lock()
	defer r.relGate.Unlock()
	lsn := r.lsn.Add(1)
	if r.relRecorder != nil {
		m := engine.Mutation{Kind: engine.MutUpsert, LSN: lsn, Relation: relationName, Tuple: coerced}
		if err := r.relRecorder(m); err != nil {
			return fmt.Errorf("engine: recording upsert: %w", err)
		}
	}
	if err := rel.Upsert(lsn, coerced); err != nil {
		return err
	}
	r.relUpdates.Add(1)
	if r.relCommit != nil {
		return r.relCommit()
	}
	return nil
}

// DeleteKey applies a proactive relation delete under the epoch barrier.
func (r *Router) DeleteKey(relationName string, keyVals value.Tuple) (bool, error) {
	rel, err := r.relationByName(relationName)
	if err != nil {
		return false, err
	}
	r.relMu.Lock()
	defer r.relMu.Unlock()
	r.relGate.Lock()
	defer r.relGate.Unlock()
	lsn := r.lsn.Add(1)
	if r.relRecorder != nil {
		m := engine.Mutation{Kind: engine.MutDelete, LSN: lsn, Relation: relationName, Tuple: keyVals}
		if err := r.relRecorder(m); err != nil {
			return false, fmt.Errorf("engine: recording delete: %w", err)
		}
	}
	deleted := rel.Delete(lsn, keyVals)
	if deleted {
		r.relUpdates.Add(1)
	}
	if r.relCommit != nil {
		return deleted, r.relCommit()
	}
	return deleted, nil
}

// --- queries (scatter/gather) -------------------------------------------

func (r *Router) homeOfView(name string) (*shardState, bool) {
	r.mu.RLock()
	idx, ok := r.viewHome[name]
	r.mu.RUnlock()
	if !ok {
		return nil, false
	}
	return r.shards[idx], true
}

// scatter runs fn once per shard, in shard order; the gather half is
// whatever fn does with its shard's result — callers write into a
// per-shard slot indexed by i. Each call copies a few counters or name
// lists out from under an engine's own synchronization, less work than
// starting a goroutine for it, so the shards are visited one after another.
func (r *Router) scatter(fn func(i int, e *engine.Engine)) {
	for i, s := range r.shards {
		fn(i, s.eng)
	}
}

// Stats sums the per-shard engine counters plus router-level relation
// updates.
func (r *Router) Stats() engine.Stats {
	per := make([]engine.Stats, len(r.shards))
	r.scatter(func(i int, e *engine.Engine) { per[i] = e.Stats() })
	var out engine.Stats
	for _, st := range per {
		out.Appends += st.Appends
		out.TuplesAppended += st.TuplesAppended
		out.RelationUpdates += st.RelationUpdates
		out.MaintenanceNs += st.MaintenanceNs
		out.ViewsMaintained += st.ViewsMaintained
		out.DedupHits += st.DedupHits
		out.SharedHits += st.SharedHits
	}
	out.RelationUpdates += r.relUpdates.Load()
	return out
}

// DedupEntries gathers every shard's live idempotency entries (checkpoint
// building). Order is shard-major; restore routes each entry back to its
// chronicle's home shard, so cross-shard order is irrelevant.
func (r *Router) DedupEntries() []dedup.Entry {
	per := make([][]dedup.Entry, len(r.shards))
	r.scatter(func(i int, e *engine.Engine) { per[i] = e.DedupEntries() })
	var out []dedup.Entry
	for _, ents := range per {
		out = append(out, ents...)
	}
	return out
}

// RestoreDedupEntry reinstates one checkpointed idempotency entry on the
// shard owning its chronicle. Entries whose chronicle no longer resolves
// (dropped between checkpoint and crash) are ignored: with no chronicle
// there is nothing a retry could double-apply.
func (r *Router) RestoreDedupEntry(ent dedup.Entry) {
	s, err := r.homeOfChronicle(ent.Chronicle)
	if err != nil {
		return
	}
	s.eng.RestoreDedupEntry(ent)
}

// DedupStats sums the per-shard idempotency-table counters.
func (r *Router) DedupStats() (entries int, hits int64, evictions int64) {
	type trio struct {
		entries   int
		hits      int64
		evictions int64
	}
	per := make([]trio, len(r.shards))
	r.scatter(func(i int, e *engine.Engine) {
		per[i].entries, per[i].hits, per[i].evictions = e.DedupStats()
	})
	for _, t := range per {
		entries += t.entries
		hits += t.hits
		evictions += t.evictions
	}
	return entries, hits, evictions
}

// MaintenanceLatency merges every shard's maintenance-latency histogram
// into one distribution (the SHOW STATS / HTTP gather path).
func (r *Router) MaintenanceLatency() stats.Snapshot {
	per := make([]stats.Histogram, len(r.shards))
	r.scatter(func(i int, e *engine.Engine) { per[i] = e.MaintenanceHistogram() })
	var merged stats.Histogram
	for i := range per {
		merged.Merge(&per[i])
	}
	return merged.Snapshot()
}

// ReadStats merges the per-shard read-path counters and latency
// histograms into one view of query traffic.
func (r *Router) ReadStats() engine.ReadStats {
	lookups := make([]int64, len(r.shards))
	scans := make([]int64, len(r.shards))
	hists := make([]stats.Histogram, len(r.shards))
	r.scatter(func(i int, e *engine.Engine) {
		lookups[i], scans[i] = e.ReadCounts()
		hists[i] = e.ReadHistogram()
	})
	var out engine.ReadStats
	var merged stats.Histogram
	for i := range r.shards {
		out.Lookups += lookups[i]
		out.Scans += scans[i]
		merged.Merge(&hists[i])
	}
	out.Latency = merged.Snapshot()
	return out
}

// OldestSnapshotUnixNano returns the publication time of the oldest live
// view snapshot across every shard — the worst-case staleness bound of the
// lock-free read path. Zero means no shard publishes a snapshot.
func (r *Router) OldestSnapshotUnixNano() int64 {
	per := make([]int64, len(r.shards))
	r.scatter(func(i int, e *engine.Engine) { per[i] = e.OldestSnapshotUnixNano() })
	var oldest int64
	for _, at := range per {
		if at != 0 && (oldest == 0 || at < oldest) {
			oldest = at
		}
	}
	return oldest
}

// LSN returns the current global logical sequence number.
func (r *Router) LSN() uint64 { return r.lsn.Load() }

// RestoreLSN advances the global LSN to at least lsn (checkpoint
// recovery).
func (r *Router) RestoreLSN(lsn uint64) {
	for {
		cur := r.lsn.Load()
		if lsn <= cur || r.lsn.CompareAndSwap(cur, lsn) {
			return
		}
	}
}

// GroupNames gathers group names across shards, sorted.
func (r *Router) GroupNames() []string {
	var out []string
	for _, s := range r.shards {
		out = append(out, s.eng.GroupNames()...)
	}
	sort.Strings(out)
	return out
}

// Group returns a group by name from its home shard.
func (r *Router) Group(name string) (*chronicle.Group, bool) {
	return r.shards[r.ShardOfGroup(name)].eng.Group(name)
}

// Chronicle returns a chronicle by name.
func (r *Router) Chronicle(name string) (*chronicle.Chronicle, bool) {
	s, err := r.homeOfChronicle(name)
	if err != nil {
		return nil, false
	}
	return s.eng.Chronicle(name)
}

// Relation returns the shared relation by name.
func (r *Router) Relation(name string) (*relation.Relation, bool) {
	r.mu.RLock()
	rel, ok := r.relations[name]
	r.mu.RUnlock()
	return rel, ok
}

// View returns a persistent view by name from its home shard.
func (r *Router) View(name string) (*view.View, bool) {
	s, ok := r.homeOfView(name)
	if !ok {
		return nil, false
	}
	return s.eng.View(name)
}

// ViewSharedPlan lists a view's shared-plan nodes from its home shard
// (sharing is per shard: views co-located with their group share deltas).
func (r *Router) ViewSharedPlan(name string) ([]algebra.PlanNodeInfo, bool) {
	s, ok := r.homeOfView(name)
	if !ok {
		return nil, false
	}
	return s.eng.ViewSharedPlan(name)
}

// PeriodicView returns a periodic view family by name.
func (r *Router) PeriodicView(name string) (*calendar.PeriodicView, bool) {
	s, ok := r.homeOfView(name)
	if !ok {
		return nil, false
	}
	return s.eng.PeriodicView(name)
}

// ViewLookup answers a summary query by group key from the view's home
// shard.
func (r *Router) ViewLookup(name string, key value.Tuple) (value.Tuple, bool, error) {
	s, ok := r.homeOfView(name)
	if !ok {
		return nil, false, fmt.Errorf("engine: unknown view %q", name)
	}
	return s.eng.ViewLookup(name, key)
}

// ViewScan streams the rows of a window of a view from its home shard and
// returns the LSN of the publication they were read from (see
// engine.ViewScan).
func (r *Router) ViewScan(name string, w view.Window, fn func(value.Tuple) bool) (uint64, error) {
	s, ok := r.homeOfView(name)
	if !ok {
		return 0, fmt.Errorf("engine: unknown view %q", name)
	}
	return s.eng.ViewScan(name, w, fn)
}

// RelationRows materializes a relation's live tuples in key order,
// serialized against relation updates by the epoch gate.
func (r *Router) RelationRows(name string) ([]value.Tuple, error) {
	rel, err := r.relationByName(name)
	if err != nil {
		return nil, err
	}
	r.relGate.RLock()
	defer r.relGate.RUnlock()
	var out []value.Tuple
	rel.Scan(func(t value.Tuple) bool {
		out = append(out, t.Clone())
		return true
	})
	return out, nil
}

// ChronicleRows copies a chronicle's retained window from its home shard.
func (r *Router) ChronicleRows(name string) ([]chronicle.Row, error) {
	s, err := r.homeOfChronicle(name)
	if err != nil {
		return nil, err
	}
	return s.eng.ChronicleRows(name)
}

func (r *Router) gatherNames(get func(*engine.Engine) []string) []string {
	per := make([][]string, len(r.shards))
	r.scatter(func(i int, e *engine.Engine) { per[i] = get(e) })
	var out []string
	for _, names := range per {
		out = append(out, names...)
	}
	sort.Strings(out)
	return out
}

// ViewNames returns persistent view names across all shards, sorted.
func (r *Router) ViewNames() []string {
	return r.gatherNames(func(e *engine.Engine) []string { return e.ViewNames() })
}

// ChronicleNames returns chronicle names across all shards, sorted.
func (r *Router) ChronicleNames() []string {
	return r.gatherNames(func(e *engine.Engine) []string { return e.ChronicleNames() })
}

// RelationNames returns the shared relation names, sorted.
func (r *Router) RelationNames() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.relations))
	for n := range r.relations {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// PeriodicViewNames returns periodic view family names across shards,
// sorted.
func (r *Router) PeriodicViewNames() []string {
	return r.gatherNames(func(e *engine.Engine) []string { return e.PeriodicViewNames() })
}
