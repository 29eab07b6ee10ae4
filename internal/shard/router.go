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
	"chronicledb/internal/engine"
	"chronicledb/internal/feed"
	"chronicledb/internal/pred"
	"chronicledb/internal/relation"
	"chronicledb/internal/value"
	"chronicledb/internal/view"
)

// Config configures a Router.
type Config struct {
	// Shards is the number of single-writer shards (≥ 1).
	Shards int
	// Engine is the per-shard engine configuration.
	Engine engine.Config
	// Feed, when set, is the changefeed hub every shard engine captures
	// into: frames stay pending until the shard's pass detaches them and
	// publishes them after its commit. Every shard draws LSNs from the
	// router's shared allocator and every view is maintained by exactly one
	// shard, so the shared hub merges the shards' frames into per-view
	// streams in LSN order.
	Feed *feed.Hub
}

// WAL is one WAL stream's hooks. Record observes every mutation before it
// is applied, and its error aborts the mutation; Commit, when set, makes a
// pass durable (the stream's group-commit door).
type WAL struct {
	Record func(engine.Mutation) error
	Commit func() error
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
	// relMu serializes relation updates (and guards relWAL).
	relMu      sync.Mutex
	relWAL     WAL
	relUpdates atomic.Int64

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
		s := &shardState{id: i, eng: engine.New(ecfg), feeds: cfg.Feed != nil}
		if s.feeds {
			s.eng.SetFeed(cfg.Feed)
		}
		s.idle.L = &s.mu
		r.shards = append(r.shards, s)
	}
	return r, nil
}

// NumShards returns the shard count.
func (r *Router) NumShards() int { return len(r.shards) }

// Each runs fn on every shard's engine, in shard order — the one scatter
// entry: callers gather counters, histograms or entries out of each engine
// under its own synchronization and combine them themselves.
func (r *Router) Each(fn func(i int, e *engine.Engine)) {
	for i, s := range r.shards {
		fn(i, s.eng)
	}
}

// Home returns the engine of the shard owning the named view, periodic view
// or chronicle — the one place a name resolves to its shard.
func (r *Router) Home(name string) (*engine.Engine, bool) {
	r.mu.RLock()
	idx, ok := r.viewHome[name]
	if !ok {
		idx, ok = r.chronHome[name]
	}
	r.mu.RUnlock()
	if !ok {
		return nil, false
	}
	return r.shards[idx].eng, true
}

// shardOfGroup returns the shard index owning a group name.
func (r *Router) shardOfGroup(group string) int {
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

// SetWAL installs the WAL hooks, one per stream in the order the streams
// are on disk: hooks[i] for shard i's appends, then one for router-level
// relation updates. Call it before traffic.
func (r *Router) SetWAL(hooks []WAL) {
	for i, s := range r.shards {
		s.eng.SetRecorder(hooks[i].Record)
		s.commit = hooks[i].Commit
	}
	r.relMu.Lock()
	r.relWAL = hooks[len(r.shards)]
	r.relMu.Unlock()
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
	return r.shards[r.shardOfGroup(name)].eng.CreateGroup(name)
}

// CreateChronicle creates a chronicle on the shard owning its group.
func (r *Router) CreateChronicle(name, groupName string, schema *value.Schema, retain *chronicle.Retention) (*chronicle.Chronicle, error) {
	if groupName == "" {
		groupName = name
	}
	idx := r.shardOfGroup(groupName)
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

// Upsert applies proactive relation updates under the epoch barrier: the
// router waits for every shard's in-flight pass to finish, stamps each tuple
// with the next global LSN, records it and applies it to the shared relation
// (visible in every shard's catalog), commits once, and resumes. Appends
// that completed before this call used the old version; appends that start
// after it see the new one — on every shard, exactly the §2.3 semantics. The
// tuples are validated before any is recorded, so a bad one applies none.
func (r *Router) Upsert(relationName string, tuples ...value.Tuple) error {
	rel, err := r.relationByName(relationName)
	if err != nil {
		return err
	}
	coerced := make([]value.Tuple, len(tuples))
	for i, t := range tuples {
		if coerced[i], err = rel.Schema().Coerce(t); err != nil {
			return fmt.Errorf("engine: relation %s: %w", relationName, err)
		}
		if err := rel.Validate(coerced[i]); err != nil {
			return err
		}
	}
	r.relMu.Lock()
	defer r.relMu.Unlock()
	r.relGate.Lock()
	defer r.relGate.Unlock()
	for _, t := range coerced {
		lsn := r.lsn.Add(1)
		if r.relWAL.Record != nil {
			m := engine.Mutation{Kind: engine.MutUpsert, LSN: lsn, Relation: relationName, Tuple: t}
			if err := r.relWAL.Record(m); err != nil {
				return fmt.Errorf("engine: recording upsert: %w", err)
			}
		}
		if err := rel.Upsert(lsn, t); err != nil {
			return err
		}
		r.relUpdates.Add(1)
	}
	if r.relWAL.Commit != nil {
		return r.relWAL.Commit()
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
	if r.relWAL.Record != nil {
		m := engine.Mutation{Kind: engine.MutDelete, LSN: lsn, Relation: relationName, Tuple: keyVals}
		if err := r.relWAL.Record(m); err != nil {
			return false, fmt.Errorf("engine: recording delete: %w", err)
		}
	}
	deleted := rel.Delete(lsn, keyVals)
	if deleted {
		r.relUpdates.Add(1)
	}
	if r.relWAL.Commit != nil {
		return deleted, r.relWAL.Commit()
	}
	return deleted, nil
}

// --- queries --------------------------------------------------------------

// RelationUpdates counts the relation upserts and deletes applied since
// the router was created (engines count only what they apply themselves).
func (r *Router) RelationUpdates() int64 { return r.relUpdates.Load() }

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

// Names lists the catalog objects of kind k across shards, sorted — the
// one catalog listing. Every shard adopts every relation, so relations are
// listed from the first.
func (r *Router) Names(k engine.Kind) []string {
	shards := r.shards
	if k == engine.Relations {
		shards = shards[:1]
	}
	var out []string
	for _, s := range shards {
		out = append(out, s.eng.Names(k)...)
	}
	sort.Strings(out)
	return out
}

// Group returns a group by name from its home shard.
func (r *Router) Group(name string) (*chronicle.Group, bool) {
	return r.shards[r.shardOfGroup(name)].eng.Group(name)
}

// Chronicle returns a chronicle by name.
func (r *Router) Chronicle(name string) (*chronicle.Chronicle, bool) {
	e, ok := r.Home(name)
	if !ok {
		return nil, false
	}
	return e.Chronicle(name)
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
	e, ok := r.Home(name)
	if !ok {
		return nil, false
	}
	return e.View(name)
}

// PeriodicView returns a periodic view family by name.
func (r *Router) PeriodicView(name string) (*calendar.PeriodicView, bool) {
	e, ok := r.Home(name)
	if !ok {
		return nil, false
	}
	return e.PeriodicView(name)
}

// ViewLookup answers a summary query by group key from the view's home
// shard.
func (r *Router) ViewLookup(name string, key value.Tuple) (value.Tuple, bool, error) {
	e, ok := r.Home(name)
	if !ok {
		return nil, false, fmt.Errorf("engine: unknown view %q", name)
	}
	return e.ViewLookup(name, key)
}

// ViewScan streams the rows of a window of a view from its home shard and
// returns the LSN of the publication they were read from (see
// engine.ViewScan).
func (r *Router) ViewScan(name string, w view.Window, fn func(value.Tuple) bool) (uint64, error) {
	e, ok := r.Home(name)
	if !ok {
		return 0, fmt.Errorf("engine: unknown view %q", name)
	}
	return e.ViewScan(name, w, fn)
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
	// The scan's tuple is scratch: every row is copied into one slab.
	out := make([]value.Tuple, 0, rel.Len())
	vals := make(value.Tuple, 0, cap(out)*rel.Schema().Len())
	rel.Scan(func(t value.Tuple) bool {
		vals = append(vals, t...)
		out = append(out, vals[len(vals)-len(t):len(vals):len(vals)])
		return true
	})
	return out, nil
}
