// Package view implements persistent views: the summarized chronicle
// algebra (SCA) of Definition 4.3 and its incremental maintenance
// (Theorem 4.4).
//
// A persistent view applies one summarization step to a chronicle algebra
// expression χ, eliminating the sequencing attribute:
//
//   - projection with SN projected out (duplicate elimination by refcount), or
//   - grouping whose grouping list excludes SN, with incrementally
//     computable aggregation functions.
//
// The view is materialized and kept current after every append. Maintenance
// consumes only the algebra's batch delta — never the chronicles, never the
// intermediate expressions — in Space = |V| and Time = O(t·log|V|) per
// Theorem 4.4 (O(t) expected with the hash store).
//
// Maintenance has two steps with different owners. Folding (ApplyRows)
// changes the live store and is invisible to readers; publishing (Publish)
// makes everything folded since the last publication visible at once. The
// engine folds the rows of one append call in one ApplyRows and publishes
// each touched view once, before it releases its mutation lock — so the unit
// a reader can observe is the call, and a k-row call pays for one fold and
// one publication, not k.
package view

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"chronicledb/internal/aggregate"
	"chronicledb/internal/algebra"
	"chronicledb/internal/btree"
	"chronicledb/internal/chronicle"
	"chronicledb/internal/keyenc"
	"chronicledb/internal/value"
)

// Summarize selects the summarization step of Definition 4.3.
type Summarize uint8

const (
	// SummarizeProject is Π with the sequencing attribute projected out.
	SummarizeProject Summarize = iota
	// SummarizeGroupBy is GROUPBY with SN absent from the grouping list.
	SummarizeGroupBy
)

// String names the summarization mode.
func (s Summarize) String() string {
	if s == SummarizeProject {
		return "project"
	}
	return "groupby"
}

// Def is a persistent view definition in SCA: an expression χ in chronicle
// algebra plus the summarization step.
type Def struct {
	Name string
	Expr algebra.Node
	Mode Summarize

	// Cols are the projected columns for SummarizeProject.
	Cols []int
	// GroupCols and Aggs define the SummarizeGroupBy step.
	GroupCols []int
	Aggs      []aggregate.Spec
}

// Stats counts maintenance work: the per-view counts that Theorem 4.4's
// bound is stated in, which the theorem tests assert on (internal/bench),
// and the readouts behind the maintenance metrics.
type Stats struct {
	Applies   int64 // folds: one per maintenance round that reached the view (an append call, or a chunk of a long one)
	DeltaRows int64 // expression delta rows folded in
	Touched   int64 // store probes: one per delta row, creating or updating its entry
	ApplyNs   int64 // wall time spent inside ApplyRows (the fold; a publication is O(1) or O(touched))
	Publishes int64 // publications of folded state (one per append call that touched the view)

	// A hash view's fold in the store's own units, zero for an ordered view
	// (whose probe is one descent, Height): key hashes, table probes (a
	// second touch of a key in one call finds its pending version instead),
	// and key comparisons, each an entry dereference.
	Hashes, Probes, KeyCompares int64
}

// snapshot is an immutable, atomically published image of a B-tree view
// store. The tree shares nodes with the live store via copy-on-write and
// is never mutated after publication, so readers traverse it without any
// locks while maintenance keeps writing to the live tree.
type snapshot struct {
	tree *btree.Tree[[]byte, *entry]
	at   int64  // publication time, UnixNano
	lsn  uint64 // highest LSN folded in when this snapshot was published
	// blocks is a paged view's block index as of this snapshot, nil otherwise.
	// The slice is never written after it is published (a checkpoint that
	// splits a block and a restore install a new one), and a block's lower
	// bound never changes, so a reader may search it without the view's lock —
	// which is all the lock-free hit path wants of it: the covering block's
	// reference bit.
	blocks []*blockMeta
}

// touch tells the CLOCK that the block covering key was read.
func (s *snapshot) touch(key []byte) {
	if len(s.blocks) == 0 {
		return
	}
	// Load before store: a hot block's bit is already set, and the common
	// hit must not bounce its cache line between readers.
	if b := s.blocks[blockIndex(s.blocks, key)]; !b.hot.Load() {
		b.hot.Store(true)
	}
}

// View is a materialized persistent view with incremental maintenance.
//
// Concurrency model: maintenance (ApplyRows/Publish/RestoreCheckpoint) is
// serialized by the engine and takes mu exclusively. B-tree views publish
// an immutable copy-on-write snapshot; Lookup and Scan read the latest one
// with zero locks. Hash views publish through an atomically installed
// open-addressing table of frozen entries, so their readers are lock-free
// too — maintenance mutates pending clones and installs them at publish
// (see hashStore). Either way a reader sees the state as of the last
// Publish, stamped with the LSN that publication carried, never the rows
// folded since.
//
// Reclamation is the same for both stores. Every reader of published state
// counts itself in readers before it loads a snapshot or table and out when
// it is done with what it reached. A publication that finds no reader
// counted after it has stored the new state frees what the calls since the
// last one replaced — tree nodes and entry versions — for the next call to
// reuse; one that finds a reader leaves them to the collector, carved shells
// aside (see publishLocked). The warm maintenance path of either store allocates
// nothing of its own.
type View struct {
	def    Def
	schema *value.Schema
	store  store
	info   algebra.Info
	stats  Stats

	// mu guards the live store's maintenance state, stats, and scratch.
	// Writers (maintenance, restore) hold it exclusively; readers are
	// lock-free, except that a hash scan which keeps colliding with
	// publications falls back to the read side (see hashScan).
	mu sync.RWMutex
	// snap is the latest published snapshot; nil for hash stores. Entries
	// reachable from it are frozen: the maintenance path clones an entry
	// before its first mutation in each epoch (see entry.epoch).
	snap atomic.Pointer[snapshot]
	// readers counts the lock-free readers in flight, of either store.
	readers atomic.Int64
	// shells recycles the entry versions either store replaces.
	shells shells
	// epoch is the current write epoch, bumped at each publication. Only
	// meaningful when cow is true.
	epoch uint64
	// cow reports whether the store is a B-tree that publishes snapshots
	// and therefore needs entry-level copy-on-write.
	cow bool
	// pg is the blocked-store pager, set by EnablePaging before the view
	// is visible to concurrent readers; nil for unpaged views. Stored
	// atomically so hot read paths can consult it without locks.
	pg atomic.Pointer[pager]

	// keyCols are the source columns of the group key: Cols for a
	// projection, GroupCols for a grouping. keyKinds are their kinds, the
	// leading columns of the schema, which a row's values decode as. aggs
	// are the grouping's aggregations, nil for a projection.
	keyCols  []int
	keyKinds []value.Kind
	aggs     []aggregate.Spec
	// arena is where an unpaged view's new groups are carved from; a paged
	// view carves per block (blockMeta.arena).
	arena *arena

	// Hot-path scratch, reused across maintenance batches. keyBuf holds the
	// encoded group key being probed (the store copies it only on insert);
	// deltaBuf backs the expression delta for batch-local operators. Both
	// belong to the maintenance path, which the engine serializes; the
	// concurrent read path (Lookup) uses a pooled buffer instead.
	keyBuf   []byte
	deltaBuf []chronicle.Row

	// appliedLSN is the highest LSN among delta rows folded into the view,
	// the cursor position of the live store. Each publication carries the
	// value it had then (snapshot.lsn, hashStore.lsn); the changefeed's
	// snapshot catch-up splices on that published value: deliver the
	// snapshot, then filter live frames with LSN ≤ it.
	appliedLSN uint64
	// unpublished reports that rows were folded since the last publication:
	// the live store is ahead of what readers see.
	unpublished bool
}

// New validates a definition and materializes an empty view. The result is
// current for the (necessarily empty-so-far) suffix of appends; callers who
// create views over chronicles with existing retained rows should feed the
// retained rows through Apply (the engine does this at DDL time).
func New(def Def, kind StoreKind) (*View, error) {
	if def.Name == "" {
		return nil, fmt.Errorf("view: name required")
	}
	if def.Expr == nil {
		return nil, fmt.Errorf("view %s: expression required", def.Name)
	}
	inSchema := def.Expr.Schema()
	var schema *value.Schema
	switch def.Mode {
	case SummarizeProject:
		if len(def.Cols) == 0 {
			return nil, fmt.Errorf("view %s: projection needs at least one column", def.Name)
		}
		for _, c := range def.Cols {
			if c < 0 || c >= inSchema.Len() {
				return nil, fmt.Errorf("view %s: projection column %d out of range", def.Name, c)
			}
		}
		schema = inSchema.Project(def.Cols)
	case SummarizeGroupBy:
		if len(def.Aggs) == 0 {
			return nil, fmt.Errorf("view %s: grouping needs at least one aggregation", def.Name)
		}
		cols := make([]value.Column, 0, len(def.GroupCols)+len(def.Aggs))
		for _, c := range def.GroupCols {
			if c < 0 || c >= inSchema.Len() {
				return nil, fmt.Errorf("view %s: grouping column %d out of range", def.Name, c)
			}
			cols = append(cols, inSchema.Col(c))
		}
		for _, a := range def.Aggs {
			if a.Col >= inSchema.Len() || (a.Col < 0 && a.Func != aggregate.Count) {
				return nil, fmt.Errorf("view %s: aggregation %s column %d out of range", def.Name, a.Func, a.Col)
			}
			if a.Name == "" {
				return nil, fmt.Errorf("view %s: aggregation %s needs an output name", def.Name, a.Func)
			}
			in := value.KindInt
			if a.Col >= 0 {
				in = inSchema.Col(a.Col).Kind
			}
			cols = append(cols, value.Column{Name: a.Name, Kind: a.ResultKind(in)})
		}
		schema = value.NewSchema(cols...)
	default:
		return nil, fmt.Errorf("view %s: unknown summarization mode %d", def.Name, def.Mode)
	}
	v := &View{
		def:    def,
		schema: schema,
		info:   algebra.Analyze(def.Expr),
		cow:    kind == StoreBTree,
		arena:  new(arena),
	}
	v.store = newStore(kind, &v.shells)
	if def.Mode == SummarizeProject {
		v.keyCols = def.Cols
	} else {
		v.keyCols, v.aggs = def.GroupCols, def.Aggs
	}
	for i := range v.keyCols {
		v.keyKinds = append(v.keyKinds, schema.Col(i).Kind)
	}
	v.publishLocked()
	return v, nil
}

// publishLocked makes the live store visible to lock-free readers, stamped
// with the LSN it has reached. B-tree stores publish an immutable
// copy-on-write snapshot and open a new write epoch so the next mutation of
// any published entry copies it first; hash stores install their pending
// clones into the atomic table. Callers must hold mu exclusively (or have
// sole ownership, as in New).
//
// Then it settles what the live store replaced since the last publication:
// the tree nodes its path copies left and the entry versions either store
// swapped out. All of it is reachable from older published state only, so a
// reader counted now may hold some and one that arrives later can reach
// none. With no reader counted it all becomes reusable. With one, the nodes
// and heap versions go to the collector and carved shells wait in limbo
// (shells.settle).
func (v *View) publishLocked() {
	p := v.pg.Load()
	var live *btree.Tree[[]byte, *entry]
	switch s := v.store.(type) {
	case *treeStore:
		live = s.t
		snap := &snapshot{tree: s.t.Clone(), at: time.Now().UnixNano(), lsn: v.appliedLSN}
		if p != nil {
			snap.blocks = p.blocks
		}
		v.snap.Store(snap)
		v.epoch++
	case *hashStore:
		s.publish(v.appliedLSN)
	}
	quiet := v.readers.Load() == 0
	if live != nil {
		if quiet {
			live.Reclaim()
		} else {
			live.Forget()
		}
	}
	v.shells.settle(quiet)
	if p != nil {
		p.published.Store(p.total)
	}
	v.unpublished = false
}

// Publish makes every row folded since the last publication visible to
// readers, atomically; with nothing folded it does nothing. The engine
// calls it once per touched view at the end of each append call, before it
// releases its mutation lock. Like ApplyRows, calls on one view must be
// serialized by the caller; distinct views may publish concurrently.
func (v *View) Publish() {
	v.mu.Lock()
	if !v.unpublished {
		v.mu.Unlock()
		return
	}
	v.publishLocked()
	v.stats.Publishes++
	p := v.pg.Load()
	v.mu.Unlock()
	if p != nil {
		// Outside mu: the CLOCK sweep takes victims' view locks itself. It
		// runs here and not after each fold because a view with unpublished
		// rows refuses eviction (see evictBlock).
		p.cache.maintain()
	}
}

// SnapshotUnixNano returns the publication time of the current snapshot,
// or 0 when the view has none (hash store).
func (v *View) SnapshotUnixNano() int64 {
	if s := v.snap.Load(); s != nil {
		return s.at
	}
	return 0
}

// Name returns the view's name.
func (v *View) Name() string { return v.def.Name }

// Def returns the view's definition.
func (v *View) Def() Def { return v.def }

// Schema returns the view's relation schema (no sequencing attribute —
// "every persistent view expressed in SCA produces a relation").
func (v *View) Schema() *value.Schema { return v.schema }

// KeyLen returns how many leading columns of the schema form the group key
// (the grouping columns, or the whole projected tuple): the store is keyed on
// their encoding, in that order.
func (v *View) KeyLen() int { return len(v.keyCols) }

// StoreKind returns the kind of the view's group store.
func (v *View) StoreKind() StoreKind {
	if v.cow {
		return StoreBTree
	}
	return StoreHash
}

// Info returns the static analysis of the underlying expression.
func (v *View) Info() algebra.Info { return v.info }

// Lang returns the SCA fragment the view is written in.
func (v *View) Lang() algebra.Lang { return v.info.Lang }

// IMClass returns the view's incremental-maintenance complexity class
// (Theorem 4.5).
func (v *View) IMClass() algebra.IMClass { return v.info.IMClass() }

// Stats returns maintenance counters.
func (v *View) Stats() Stats {
	v.mu.RLock()
	defer v.mu.RUnlock()
	st := v.stats
	if h, ok := v.store.(*hashStore); ok {
		st.Hashes, st.Probes, st.KeyCompares = h.hashes, h.probes, h.compares
	}
	return st
}

// Height returns the height of an ordered view's published tree — the nodes
// one probe visits at most, O(log|V|) — and 0 for a hash view. A paged view's
// tree holds its resident blocks.
func (v *View) Height() int {
	v.readers.Add(1)
	defer v.readers.Add(-1)
	if s := v.snap.Load(); s != nil {
		return s.tree.Height()
	}
	return 0
}

// Len returns the number of rows currently in the view. B-tree views
// answer from the published snapshot, hash views from the published entry
// count — neither takes a lock.
func (v *View) Len() int {
	if p := v.pg.Load(); p != nil {
		// The live tree and snapshot only hold resident blocks' entries;
		// the pager tracks the logical count across all blocks.
		return int(p.published.Load())
	}
	if s := v.snap.Load(); s != nil {
		return s.tree.Len()
	}
	if h, ok := v.store.(*hashStore); ok {
		return int(h.count.Load())
	}
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.store.len()
}

// Apply maintains the view for one append batch on its own: it computes the
// expression delta, folds it, and publishes. This is the per-transaction
// operation whose complexity defines the chronicle system's complexity
// (Section 3). The engine does not use it — it folds with ApplyRows and
// publishes once per call; Apply serves callers that drive a view directly.
func (v *View) Apply(d algebra.BatchDelta) {
	v.ApplyRows(v.Delta(d))
	v.Publish()
}

// Delta computes the expression delta for one append batch without
// applying it. The rows alias the view's maintenance scratch and are valid
// until the next Delta call; the engine uses the split form to capture the
// delta for the changefeed between computing and folding it.
func (v *View) Delta(d algebra.BatchDelta) []chronicle.Row {
	rows, keep := algebra.DeltaInto(v.def.Expr, d, v.deltaBuf[:0])
	v.deltaBuf = keep
	return rows
}

// ApplyRows folds precomputed expression delta rows into the live store
// and publishes nothing: readers keep seeing the last publication until the
// caller invokes Publish, which it must do before it lets anyone observe
// the append as done. It reports whether this fold is the first since the
// last publication, so a caller folding many batches can list each view it
// owes a Publish exactly once.
//
// rows is the view's expression delta for one append call (or one chunk of a
// long one): ascending in SN, each row carrying its own LSN, folded in that
// order — FIRST and LAST depend on it. Calls on one view must be serialized
// by the caller (the engine folds under its mutation lock, one view after
// another), because rows may alias caller-owned scratch that is reused after
// the call returns, and because appliedLSN ordering assumes calls arrive in
// LSN order. The rows themselves are read-only here: they may be shared with
// other views consuming the same precomputed delta.
func (v *View) ApplyRows(rows []chronicle.Row) (first bool) {
	start := time.Now()
	v.mu.Lock()
	first = !v.unpublished && len(rows) > 0
	v.applyRowsLocked(v.pg.Load(), rows)
	v.stats.ApplyNs += time.Since(start).Nanoseconds()
	v.mu.Unlock()
	return first
}

func (v *View) applyRowsLocked(p *pager, rows []chronicle.Row) {
	v.stats.Applies++
	v.stats.DeltaRows += int64(len(rows))
	if len(rows) == 0 {
		return
	}
	// Set before the first row folds: a block fault below must already
	// treat the live tree as ahead of the published one.
	v.unpublished = true
	for _, r := range rows {
		if r.LSN > v.appliedLSN {
			v.appliedLSN = r.LSN
		}
	}
	for _, r := range rows {
		// Encode the key straight from the source columns; a new group
		// keeps a copy of it, and the key is the only copy of its values.
		v.keyBuf = keyenc.AppendCols(v.keyBuf[:0], r.Vals, v.keyCols)
		a, shell := v.arena, v.arena
		var blk *blockMeta
		if p != nil {
			// Writes require residency: fault the covering block so the
			// next checkpoint can re-encode it from the live tree.
			blk = v.ensureWrite(p, v.keyBuf)
			a, shell = blk.arena, nil // keys only: see blockMeta.arena
		}
		e, tag := v.store.get(v.keyBuf)
		switch {
		case e == nil:
			e = newEntry(shell, v.aggs, nil)
			if v.cow {
				e.stamp |= v.epoch
			}
			v.store.put(a, v.keyBuf, tag, e)
			if p != nil {
				v.noteInsert(p, blk, v.keyBuf, e)
			}
		case v.cow && e.epoch() != v.epoch:
			// First touch this epoch: the entry is frozen in the published
			// snapshot; mutate a copy instead, and retire the original.
			old := e
			e = v.shells.version(old)
			e.stamp |= v.epoch
			v.store.(*treeStore).replace(v.keyBuf, e)
			v.shells.retire(old)
		}
		aggregate.Apply(e.states, v.aggs, r.Vals)
		e.count++
		v.stats.Touched++
	}
}

// Lookup returns the view row whose group (or projected tuple) equals key.
// For group-by views key lists the grouping values in GroupCols order; for
// projection views it is the full projected tuple. This is the paper's
// summary query: answered from the view, never from the chronicle.
func (v *View) Lookup(key value.Tuple) (value.Tuple, bool) {
	// Lookups run concurrently with maintenance, so the probe key is built
	// in a pooled buffer, not the view's maintenance scratch.
	buf := keyenc.GetBuf()
	defer keyenc.PutBuf(buf)
	*buf = keyenc.AppendTuple(*buf, key)
	v.readers.Add(1)
	defer v.readers.Add(-1)
	if s := v.snap.Load(); s != nil {
		// Lock-free: the snapshot tree and every entry in it are frozen.
		e, ok := s.tree.Get(*buf)
		p := v.pg.Load()
		if ok && e.count != 0 {
			if p != nil {
				p.cache.hits.Add(1)
				s.touch(*buf)
			}
			return rowOf(v, *buf, e), true
		}
		if p != nil && (p.nonResident.Load() > 0 || v.snap.Load() != s) {
			// The key may live in an evicted block — or in one faulted in
			// since s was loaded, which a newer snapshot then covers (a
			// fault publishes before it lowers nonResident). Fully-resident
			// paged views never get here.
			return v.pagedLookup(*buf)
		}
		return nil, false
	}
	// Lock-free: published hash entries are frozen (maintenance mutates
	// clones and re-installs atomically); the readers count keeps the entry
	// off the free list while we materialize the row.
	e, ok := v.store.(*hashStore).rget(*buf)
	if !ok || e.count == 0 {
		return nil, false
	}
	return rowOf(v, e.key, e), true
}

// Window is what one read asks of a view: the encoded group keys in
// [Lo, Hi), walked in ascending key order or, with Desc, descending, keeping
// the rows Keep accepts and stopping after Limit of them. An empty Lo starts
// at the first key and an empty Hi runs past the last; a bound may be a whole
// key, a prefix of one (the encoding of a key's leading columns) or a
// keyenc.PrefixSuccessor. The zero Window is the whole view in key order.
type Window struct {
	Lo, Hi []byte
	Desc   bool
	Limit  int                    // rows to deliver at most; 0 = no limit
	Keep   func(value.Tuple) bool // residual filter, nil keeps all; must not retain or change the row
}

// bounded reports whether the window asks for less than the whole view.
func (w Window) bounded() bool { return len(w.Lo) > 0 || len(w.Hi) > 0 || w.Limit > 0 }

// take hands fn a row the walk has reached, if Keep accepts it, counting it
// in n, and reports whether the read goes on: until fn says stop or the
// limit is met.
func (w Window) take(row value.Tuple, n *int, fn func(value.Tuple) bool) bool {
	if w.Keep != nil && !w.Keep(row) {
		return true
	}
	*n++
	return fn(row) && *n != w.Limit
}

// Scan visits the rows of w until fn returns false and returns the LSN of
// the publication they were read from: all rows of one Scan come from one
// publication, whatever the store. The changefeed's snapshot catch-up splices
// on that LSN — deltas at or below it are reflected in the rows delivered,
// deltas above it are not. It is the published LSN, not the live store's:
// between two rows of one append call the live store is ahead of every
// reader, and a splice on its cursor would drop the call's deltas.
//
// An ordered store walks its frozen snapshot from the window's starting end,
// O(log |V| + rows visited), and a paged one faults only the blocks the read
// reaches (see pagedScan). The hash store has no order: any window but a
// point (Lookup) gathers the table, filters and sorts it.
//
// The scan counts itself a reader until fn has seen its last row, so nothing
// it can reach is reused meanwhile — across the rounds of a paged read, too,
// whose faults and the evictions they set off publish under it.
func (v *View) Scan(w Window, fn func(value.Tuple) bool) uint64 {
	v.readers.Add(1)
	defer v.readers.Add(-1)
	s := v.snap.Load()
	if s == nil {
		return v.hashScan(w, fn)
	}
	// A cold block is dropped from the snapshot after the count rises and
	// added to it before the count falls, so a count of zero says the current
	// snapshot is complete — and s is the current one if it still is.
	if p := v.pg.Load(); p != nil && (p.nonResident.Load() > 0 || v.snap.Load() != s) {
		return v.pagedScan(p, w, fn)
	}
	v.walk(s, w, w.Lo, w.Hi, fn)
	return s.lsn
}

// walk hands fn the rows of w found in s between lo and hi — the window's
// own bounds or, for a paged read, the planned part of them — and returns how
// many it handed over. It stops when fn says so or at the window's limit.
func (v *View) walk(s *snapshot, w Window, lo, hi []byte, fn func(value.Tuple) bool) (n int) {
	visit := func(k []byte, e *entry) bool {
		return e.count == 0 || w.take(rowOf(v, k, e), &n, fn)
	}
	switch t := s.tree; {
	case !w.Desc && len(hi) == 0:
		t.AscendGreaterOrEqual(lo, visit)
	case !w.Desc:
		t.AscendRange(lo, hi, visit)
	case len(hi) > 0:
		t.DescendRange(lo, hi, visit)
	case len(lo) == 0:
		t.Descend(visit)
	default:
		t.Descend(func(k []byte, e *entry) bool { return bytes.Compare(k, lo) >= 0 && visit(k, e) })
	}
	return n
}

// hashScan is Scan on a hash view: it visits the rows of one publication in
// key order and returns that publication's LSN. The table is installed slot
// by slot, so the gather is validated against the store's publish sequence
// and repeated if a publication overlapped it; a second collision takes the
// read lock, which excludes publication, so a scan under a writer that
// publishes faster than it can gather still terminates. The gathered entries
// are sorted on demand (scans are query-side).
func (v *View) hashScan(w Window, fn func(value.Tuple) bool) uint64 {
	h := v.store.(*hashStore)
	entries, lsn, stable := h.collect()
	if !stable {
		entries, lsn, stable = h.collect()
	}
	if !stable {
		v.mu.RLock()
		entries, lsn, _ = h.collect()
		v.mu.RUnlock()
	}
	in := entries[:0]
	for _, e := range entries {
		if e.count != 0 && e.key >= string(w.Lo) && (len(w.Hi) == 0 || e.key < string(w.Hi)) {
			in = append(in, e)
		}
	}
	sort.Slice(in, func(i, j int) bool { return (in[i].key < in[j].key) != w.Desc })
	n := 0
	for _, e := range in {
		if !w.take(rowOf(v, e.key, e), &n, fn) {
			break
		}
	}
	return lsn
}

// AppliedLSN returns the highest LSN folded into the view — the live
// store's cursor, which inside an append call runs ahead of what readers
// see (Scan reports the published one).
func (v *View) AppliedLSN() uint64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.appliedLSN
}

// SetAppliedLSN restores the cursor position of the materialized state
// after a checkpoint restore, before the WAL suffix replays.
func (v *View) SetAppliedLSN(lsn uint64) {
	v.mu.Lock()
	if lsn > v.appliedLSN {
		v.appliedLSN = lsn
		v.publishLocked()
	}
	v.mu.Unlock()
}

// Rows materializes the view contents as a slice (tests and small queries).
func (v *View) Rows() []value.Tuple {
	out := make([]value.Tuple, 0, v.Len())
	v.Scan(Window{}, func(t value.Tuple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// rowOf builds the view row of the entry stored under key: the group values
// decoded from the key, then the aggregation results. A hash entry's key is a
// string, and its string cells are substrings of it; an ordered store's key
// is the tree's bytes, which each string cell copies. Every key reaching here
// was written by the encoder or checked when it was restored (CheckKey), so
// it decodes.
func rowOf[K string | []byte](v *View, key K, e *entry) value.Tuple {
	out := make(value.Tuple, 0, len(v.keyKinds)+len(e.states))
	out, _ = keyenc.DecodeKey(out, key, v.keyKinds)
	for i := range e.states {
		out = append(out, e.states[i].Result())
	}
	return out
}

// Recompute answers what the view *should* contain by reference-evaluating
// the expression over fully retained chronicles and summarizing from
// scratch. It exists for tests and the IM-Cᵏ baseline; it fails when any
// chronicle has dropped rows.
func (v *View) Recompute() ([]value.Tuple, error) {
	rows, err := algebra.Evaluate(v.def.Expr)
	if err != nil {
		return nil, err
	}
	fresh, err := New(v.def, StoreBTree)
	if err != nil {
		return nil, err
	}
	fresh.ApplyRows(rows)
	fresh.Publish()
	return fresh.Rows(), nil
}
