package shard

import (
	"fmt"
	"hash/fnv"
	"hash/maphash"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"chronicledb/internal/algebra"
	"chronicledb/internal/calendar"
	"chronicledb/internal/chronicle"
	"chronicledb/internal/engine"
	"chronicledb/internal/feed"
	"chronicledb/internal/relation"
	"chronicledb/internal/stats"
	"chronicledb/internal/value"
	"chronicledb/internal/view"
	"chronicledb/internal/wal"
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

// WAL is one WAL stream's hooks. Record observes every record before it is
// applied, and its error aborts the mutation; Commit, when set, makes a
// pass durable (the stream's group-commit door).
type WAL struct {
	Record func(wal.Record) error
	Commit func() error
}

// Router fronts N single-writer shards. Chronicle groups (and the views
// that depend on them) are hash-partitioned across shards; relations are
// shared state updated under an epoch barrier; queries scatter/gather. The
// router holds the database's one catalog: every name resolves through it.
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

	// names and groups are the catalog: chronicles, relations, views and
	// periodic views share one namespace, groups have one of their own.
	// Readers and every append's routing search them without a lock; DDL
	// changes them under ddl, a mutex only DDL takes.
	names  table[entry]
	groups table[*chronicle.Group]
	ddl    sync.Mutex

	// Read-path metrics, updated with atomics so the lock-free read
	// methods stay lock-free while still being observable.
	readLookups atomic.Int64
	readScans   atomic.Int64
	readLat     stats.AtomicHistogram
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

// String names the kind as errors do.
func (k Kind) String() string {
	return [...]string{"group", "chronicle", "relation", "view", "periodic view"}[k]
}

// entry is one named catalog object: its kind, the shard that owns it (a
// relation's is 0, and every shard reads it), and the object itself.
type entry struct {
	kind Kind
	home int
	obj  any
}

// table is a name table readers search without a lock: tableParts hash
// partitions, each an immutable map published through its own pointer. A
// change clones the one partition its name falls in and publishes the clone,
// so a DDL statement copies a small share of the catalog, not all of it,
// and readers see the change at once. Writers hold r.ddl.
type table[V any] struct {
	parts [tableParts]atomic.Pointer[map[string]V]
}

// tableParts is the number of partitions of a table: at 4 000 views a
// statement clones a map of about 16 names.
const tableParts = 256

// tableSeed hashes names to partitions; a table lives as long as its
// process, so the seed need not persist.
var tableSeed = maphash.MakeSeed()

func (t *table[V]) part(name string) *atomic.Pointer[map[string]V] {
	return &t.parts[maphash.String(tableSeed, name)%tableParts]
}

// get returns the value of name.
func (t *table[V]) get(name string) (v V, ok bool) {
	if m := t.part(name).Load(); m != nil {
		v, ok = (*m)[name]
	}
	return v, ok
}

// set gives name the value v; del deletes it.
func (t *table[V]) set(name string, v V) { t.change(name, func(m map[string]V) { m[name] = v }) }
func (t *table[V]) del(name string)      { t.change(name, func(m map[string]V) { delete(m, name) }) }

func (t *table[V]) change(name string, fn func(map[string]V)) {
	p := t.part(name)
	m := map[string]V{}
	if old := p.Load(); old != nil {
		m = maps.Clone(*old)
	}
	fn(m)
	p.Store(&m)
}

// all yields every name in the table with its value. A change made while it
// runs may or may not be seen, each name at one of its values.
func (t *table[V]) all(yield func(string, V) bool) {
	for i := range t.parts {
		if m := t.parts[i].Load(); m != nil {
			for n, v := range *m {
				if !yield(n, v) {
					return
				}
			}
		}
	}
}

// find resolves a name of one kind through the catalog, without a lock.
func find[T any](r *Router, name string) (obj T, home int, ok bool) {
	e, _ := r.names.get(name)
	obj, ok = e.obj.(T)
	return obj, e.home, ok
}

// claim reports why name cannot be given to a new object of kind k in the
// catalog, if it cannot. Callers hold r.ddl, so the name stays free until
// they set it.
func (r *Router) claim(name string, k Kind) error {
	if name == "" {
		return fmt.Errorf("shard: empty %s name", k)
	}
	if e, ok := r.names.get(name); ok {
		return fmt.Errorf("engine: name %q already used by a %s", name, e.kind)
	}
	return nil
}

// NewRouter creates a router with cfg.Shards single-writer shards.
func NewRouter(cfg Config) (*Router, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("shard: need at least 1 shard, got %d", cfg.Shards)
	}
	r := &Router{cfg: cfg}
	ecfg := cfg.Engine
	ecfg.NextLSN = r.nextLSN
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
// or chronicle.
func (r *Router) Home(name string) (*engine.Engine, bool) {
	e, ok := r.names.get(name)
	if !ok || e.kind == Relations {
		return nil, false
	}
	return r.shards[e.home].eng, true
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

// CreateGroup creates a chronicle group; its chronicles go to its home
// shard.
func (r *Router) CreateGroup(name string) (*chronicle.Group, error) {
	r.ddl.Lock()
	defer r.ddl.Unlock()
	if _, ok := r.Group(name); ok {
		return nil, fmt.Errorf("engine: group %q already exists", name)
	}
	g := chronicle.NewGroup(name)
	r.groups.set(name, g)
	return g, nil
}

// CreateChronicle creates a chronicle inside a (possibly new) group, on the
// shard owning the group. groupName may be empty, in which case the chronicle
// gets a private group of the same name.
func (r *Router) CreateChronicle(name, groupName string, schema *value.Schema, retain *chronicle.Retention) (*chronicle.Chronicle, error) {
	if groupName == "" {
		groupName = name
	}
	idx := r.shardOfGroup(groupName)
	r.ddl.Lock()
	defer r.ddl.Unlock()
	if err := r.claim(name, Chronicles); err != nil {
		return nil, err
	}
	g, ok := r.Group(groupName)
	if !ok {
		g = chronicle.NewGroup(groupName)
	}
	ch, err := r.shards[idx].eng.CreateChronicle(name, g, schema, retain)
	if err != nil {
		return nil, err
	}
	// The group first: a reader that finds the chronicle finds its group.
	r.groups.set(groupName, g)
	r.names.set(name, entry{Chronicles, idx, ch})
	return ch, nil
}

// CreateRelation creates a relation shared by every shard: relations cut
// across groups, so one versioned instance serves every shard's views.
func (r *Router) CreateRelation(name string, schema *value.Schema, keyCols []int) (*relation.Relation, error) {
	r.ddl.Lock()
	defer r.ddl.Unlock()
	if err := r.claim(name, Relations); err != nil {
		return nil, err
	}
	rel, err := relation.New(name, schema, keyCols, r.cfg.Engine.RelationHistory)
	if err != nil {
		return nil, err
	}
	r.names.set(name, entry{Relations, 0, rel})
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
		_, idx, ok := find[*chronicle.Chronicle](r, c.Name())
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
// chronicles and registers it with that shard's dispatcher. Only that
// shard's appends wait for its backfill: readers and the other shards go on
// against the catalog published before it.
func (r *Router) CreateView(def view.Def) (*view.View, error) {
	r.ddl.Lock()
	defer r.ddl.Unlock()
	idx, err := r.homeOfDef(def.Name, def.Expr)
	if err != nil {
		return nil, err
	}
	if err := r.claim(def.Name, Views); err != nil {
		return nil, err
	}
	// Backfill inside CreateView reads relation state: hold the epoch
	// gate so a concurrent relation update cannot tear the initial scan.
	r.relGate.RLock()
	v, err := r.shards[idx].eng.CreateView(def)
	r.relGate.RUnlock()
	if err != nil {
		return nil, err
	}
	r.names.set(def.Name, entry{Views, idx, v})
	return v, nil
}

// CreatePeriodicView creates a periodic view family on its home shard.
func (r *Router) CreatePeriodicView(name string, def view.Def, cal *calendar.Periodic, expireAfter int64) (*calendar.PeriodicView, error) {
	r.ddl.Lock()
	defer r.ddl.Unlock()
	idx, err := r.homeOfDef(name, def.Expr)
	if err != nil {
		return nil, err
	}
	if err := r.claim(name, PeriodicViews); err != nil {
		return nil, err
	}
	pv, err := r.shards[idx].eng.CreatePeriodicView(name, def, cal, expireAfter)
	if err != nil {
		return nil, err
	}
	r.names.set(name, entry{PeriodicViews, idx, pv})
	return pv, nil
}

// DropView removes a persistent or periodic view from its home shard; its
// name is free again.
func (r *Router) DropView(name string) error {
	r.ddl.Lock()
	defer r.ddl.Unlock()
	e, ok := r.names.get(name)
	if !ok || (e.kind != Views && e.kind != PeriodicViews) {
		return fmt.Errorf("engine: no view named %q", name)
	}
	if err := r.shards[e.home].eng.DropView(name); err != nil {
		return err
	}
	r.names.del(name)
	return nil
}

// --- appends ------------------------------------------------------------

func (r *Router) homeOfChronicle(name string) (*shardState, error) {
	_, idx, ok := find[*chronicle.Chronicle](r, name)
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

// Append runs one live append call, a wal.Record without coordinates,
// through its chronicle's home shard: the router's one append entry
// (engine.Engine.Append says what each record kind applies, and stamps the
// call). A record that carries an LSN is refused: only Replay applies one at
// its own coordinates, after moving the allocator past them. An idempotent
// call routes like any other: a chronicle's home shard is stable across
// restarts (hash of its group name), so a retried request always lands on the
// shard holding its dedup entry.
func (r *Router) Append(rec wal.Record) (first, last int64, deduped bool, err error) {
	if rec.LSN != 0 {
		return 0, 0, false, fmt.Errorf("shard: a live append carries no LSN (record has %d); Replay applies recorded ones", rec.LSN)
	}
	return r.append(rec)
}

// append submits rec to its home shard.
func (r *Router) append(rec wal.Record) (first, last int64, deduped bool, err error) {
	if len(rec.Parts) == 0 {
		return 0, 0, false, fmt.Errorf("engine: empty batch")
	}
	req := getReq()
	defer putReq(req)
	req.rec = rec
	r.submit(rec.Parts[0].Chronicle, req)
	return req.first, req.last, req.deduped, req.err
}

// Replay applies one WAL record at the coordinates it carries (recovery and
// follower apply), so every row and relation version goes back at the LSN it
// had live: the allocator first moves past the record's span, then an append
// record goes through Append's submission, an UPSERT or a key delete through
// the path Upsert and DeleteKey take.
func (r *Router) Replay(rec wal.Record) error {
	if rec.LSN == 0 {
		return fmt.Errorf("shard: replayed record of kind %d has no LSN", rec.Kind)
	}
	r.RestoreLSN(rec.LSN + wal.RecordSpan(rec) - 1)
	switch rec.Kind {
	case wal.RecUpsert:
		return r.upsert(rec.Relation, rec.Tuples, rec.LSN)
	case wal.RecDelete:
		_, err := r.deleteKey(rec.Relation, rec.Tuple, rec.LSN)
		return err
	case wal.RecAppend, wal.RecAppendEach:
		_, _, _, err := r.append(rec)
		return err
	}
	return fmt.Errorf("unknown WAL record kind %d", rec.Kind)
}

// --- relation updates (epoch barrier) -----------------------------------

func (r *Router) relationByName(name string) (*relation.Relation, error) {
	rel, ok := r.Relation(name)
	if !ok {
		return nil, fmt.Errorf("engine: unknown relation %q", name)
	}
	return rel, nil
}

// Upsert applies proactive relation updates under the epoch barrier: the
// router waits for every shard's in-flight pass to finish, stamps the tuples
// with the next consecutive global LSNs, records them as one WAL frame,
// applies them to the shared relation (which every shard's views read),
// commits once, and resumes. Appends that completed before this call used
// the old version; appends that start after it see the new one — on every
// shard, exactly the §2.3 semantics. The statement is one transaction: the
// tuples are validated before any is recorded, so a bad one applies none,
// and a failed write applies none either.
func (r *Router) Upsert(relationName string, tuples ...value.Tuple) error {
	return r.upsert(relationName, tuples, 0)
}

// upsert is Upsert at first, the LSN of a replayed statement, or at LSNs it
// draws when first is 0.
func (r *Router) upsert(relationName string, tuples []value.Tuple, first uint64) error {
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
	if len(coerced) == 0 {
		return nil
	}
	if first == 0 {
		first = r.nextLSN(uint64(len(coerced)))
	}
	if r.relWAL.Record != nil {
		rec := wal.Record{Kind: wal.RecUpsert, LSN: first, Relation: relationName, Tuples: coerced}
		if err := r.relWAL.Record(rec); err != nil {
			return fmt.Errorf("engine: recording upsert: %w", err)
		}
	}
	for i, t := range coerced {
		if err := rel.Upsert(first+uint64(i), t); err != nil {
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
	return r.deleteKey(relationName, keyVals, 0)
}

// deleteKey is DeleteKey at lsn, or at an LSN it draws when lsn is 0.
func (r *Router) deleteKey(relationName string, keyVals value.Tuple, lsn uint64) (bool, error) {
	rel, err := r.relationByName(relationName)
	if err != nil {
		return false, err
	}
	r.relMu.Lock()
	defer r.relMu.Unlock()
	r.relGate.Lock()
	defer r.relGate.Unlock()
	if lsn == 0 {
		lsn = r.nextLSN(1)
	}
	if r.relWAL.Record != nil {
		rec := wal.Record{Kind: wal.RecDelete, LSN: lsn, Relation: relationName, Tuple: keyVals}
		if err := r.relWAL.Record(rec); err != nil {
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

// Counters sums every shard engine's counters, with the relation updates the
// router applies and the read path it serves.
func (r *Router) Counters() engine.Counters {
	var sum engine.Counters
	for _, s := range r.shards {
		c := s.eng.Counters()
		sum.Add(&c)
	}
	sum.RelationUpdates = r.relUpdates.Load()
	sum.Lookups, sum.Scans = r.readLookups.Load(), r.readScans.Load()
	sum.Read = r.readLat.Histogram()
	return sum
}

// nextLSN allocates n consecutive LSNs and returns the first.
func (r *Router) nextLSN(n uint64) uint64 { return r.lsn.Add(n) - n + 1 }

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

// Read path. Every method below resolves names through the published
// catalog and reads object state through per-object synchronization
// (published view entries, chronicle and relation read locks): none takes a
// lock a writer holds for long, so reads never wait on DDL or maintenance.
//
// Ownership rule: every tuple returned (or passed to a scan callback) by
// these methods is caller-owned — the router clones anything that would
// otherwise alias store-owned memory, so callers may retain and mutate
// results freely.

// Names lists the catalog objects of kind k, sorted.
func (r *Router) Names(k Kind) []string {
	var out []string
	if k == Groups {
		for n := range r.groups.all {
			out = append(out, n)
		}
	} else {
		for n, e := range r.names.all {
			if e.kind == k {
				out = append(out, n)
			}
		}
	}
	slices.Sort(out)
	return out
}

// Group returns a chronicle group by name.
func (r *Router) Group(name string) (*chronicle.Group, bool) {
	g, ok := r.groups.get(name)
	return g, ok
}

// Chronicle returns a chronicle by name.
func (r *Router) Chronicle(name string) (*chronicle.Chronicle, bool) {
	c, _, ok := find[*chronicle.Chronicle](r, name)
	return c, ok
}

// Relation returns the shared relation by name.
func (r *Router) Relation(name string) (*relation.Relation, bool) {
	rel, _, ok := find[*relation.Relation](r, name)
	return rel, ok
}

// View returns a persistent view by name. View read methods are internally
// synchronized (a view publishes an atomic array of frozen entries beside
// its lock-free key directory), so the handle may be used while other
// goroutines append.
func (r *Router) View(name string) (*view.View, bool) {
	v, _, ok := find[*view.View](r, name)
	return v, ok
}

// PeriodicView returns a periodic view family by name.
func (r *Router) PeriodicView(name string) (*calendar.PeriodicView, bool) {
	pv, _, ok := find[*calendar.PeriodicView](r, name)
	return pv, ok
}

// ownedRow upholds the ownership rule: projection views hand out the
// store's interned tuple (immutable, but shared), which is cloned before
// it escapes; group-by rows are already materialized per call.
func ownedRow(v *view.View, t value.Tuple) value.Tuple {
	if v.Def().Mode == view.SummarizeProject {
		return t.Clone()
	}
	return t
}

// ViewLookup answers a summary query by group key from a view the caller
// resolved — a persistent view, or an instance of a periodic family —
// against the view's latest publication.
func (r *Router) ViewLookup(v *view.View, key value.Tuple) (value.Tuple, bool) {
	start := time.Now()
	row, found := v.Lookup(key)
	if found {
		row = ownedRow(v, row)
	}
	r.readLookups.Add(1)
	r.readLat.Observe(time.Since(start))
	return row, found
}

// ViewScan is the one scan entry of the read path: it streams the rows of
// the window w of a view the caller resolved — a persistent view, or an
// instance of a periodic family — a key range, a direction, a limit and a
// residual filter, the zero Window being the whole view in group-key order,
// until fn returns false, and returns the LSN of the publication the rows
// were read from. All rows of one call come from that one publication; the
// changefeed's snapshot catch-up splices on the LSN (deltas at or below it
// are reflected in the rows fn saw). Tuples passed to fn are caller-owned;
// the tuple w.Keep sees is not.
func (r *Router) ViewScan(v *view.View, w view.Window, fn func(value.Tuple) bool) uint64 {
	start := time.Now()
	lsn := v.Scan(w, func(t value.Tuple) bool {
		return fn(ownedRow(v, t))
	})
	r.readScans.Add(1)
	r.readLat.Observe(time.Since(start))
	return lsn
}

// ChronicleRows copies a chronicle's retained window under the chronicle's
// own read lock. The rows are caller-owned.
func (r *Router) ChronicleRows(name string) ([]chronicle.Row, error) {
	start := time.Now()
	c, ok := r.Chronicle(name)
	if !ok {
		return nil, fmt.Errorf("engine: unknown chronicle %q", name)
	}
	rows := c.RowsCopy()
	r.readScans.Add(1)
	r.readLat.Observe(time.Since(start))
	return rows, nil
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
