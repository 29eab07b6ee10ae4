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
// Theorem 4.4: the view's key directory hands a fold each distinct group of
// its delta once, in O(1) expected per row, and orders the keys new to it in
// O(log|V|) each (see Dir and order).
//
// Maintenance has two steps with different owners. Folding (ApplyRows)
// changes the live store and is invisible to readers; publishing (Publish)
// makes everything folded since the last publication visible at once. The
// engine folds the rows of one append call in one ApplyRows and publishes
// each touched view once, before it releases its mutation lock — so the unit
// a reader can observe is the call, and a k-row call pays for one fold and
// one publication, not k. Views that share a table (Join) share both steps:
// the table is folded and published once a call for all of them.
package view

import (
	"fmt"
	"sync"
	"time"

	"chronicledb/internal/aggregate"
	"chronicledb/internal/algebra"
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

// KeyCols returns the source columns of the view's group key: Cols for a
// projection, GroupCols for a grouping.
func (d Def) KeyCols() []int {
	if d.Mode == SummarizeProject {
		return d.Cols
	}
	return d.GroupCols
}

// TableKey names what a view of d folds: its key columns and its
// expression's structure (algebra.Fingerprint). Views of one table key fold
// equal deltas by equal keys in every round, so they may share a table
// (Join), and their directory resolves a round's rows once for all of them.
func (d Def) TableKey() string {
	return fmt.Sprintf("%v|%s", d.KeyCols(), algebra.Fingerprint(d.Expr))
}

// Stats counts maintenance work: the per-table counts that Theorem 4.4's
// bound is stated in, which the theorem tests assert on (theorems_test.go),
// and the readouts behind the maintenance metrics. A table counts its own
// work, so the views sharing one read the same counts: a round folded once
// for all of them is one fold (Applies).
type Stats struct {
	Applies   int64 // folds: one per maintenance round that reached the table (an append call, or a chunk of a long one)
	DeltaRows int64 // expression delta rows folded in
	// Touched counts the entries folds reached: each distinct group of a
	// fold once (the directory resolved the rows; see Dir.Stats).
	Touched   int64
	Versions  int64 // entries made: a new group, or a copy of a published entry before its first change in a call
	ApplyNs   int64 // wall time spent inside ApplyRows (the fold; a publication is O(1) or O(touched))
	Publishes int64 // publications of folded state (one per append call that touched the table)
	Merges    int64 // pane groups merged in when the table stopped reading through its panes (Materialize)
}

// View is a materialized persistent view with incremental maintenance: its
// definition, its schema, the table its groups live in, and where its columns
// sit in the table's layout.
//
// The views of one key directory that fold the same delta — the same
// dispatch, none paged — may share one table (see Join): one group per key
// holds the union of their aggregations, so a row is folded, versioned and
// published once for all of them, and each reads its own columns of it
// (rowOf). A view made by New or NewIn has a table of its own.
type View struct {
	def    Def
	schema *value.Schema
	info   algebra.Info
	*table
	// cols are the view's aggregations' indices in the table's layout, in
	// the order of def.Aggs; a projection has none.
	cols []int

	// keyCols are the source columns of the group key: Cols for a
	// projection, GroupCols for a grouping. keyKinds are their kinds, the
	// leading columns of the schema, which a row's values decode as.
	keyCols  []int
	keyKinds []value.Kind
	// tableKey is def.TableKey(): what the view folds, which names a
	// resolution in its directory (Dir.resolve).
	tableKey string
}

// New validates a definition and materializes an empty view with a key
// directory of its own. The result is current for the (necessarily
// empty-so-far) suffix of appends; callers who create views over chronicles
// with existing retained rows should fold the retained rows through
// ApplyRows (the engine does this at DDL time).
func New(def Def) (*View, error) { return NewIn(def, nil) }

// NewIn is New for a view whose keys live in d, a directory shared with the
// views whose keys are drawn from the same values — the same columns of one
// chronicle (algebra.KeySource), which the caller vouches for; a nil d gets
// one of its own. The caller counts the view in d (Dir.Acquire). Keys d
// already holds are groups the view does not have. The view has a table of
// its own.
func NewIn(def Def, d *Dir) (*View, error) {
	v, layout, err := compile(def)
	if err != nil {
		return nil, err
	}
	if d == nil {
		d = NewDir(def.Name)
		d.Acquire()
	}
	v.table = newTable(d, newShape(layout))
	v.cols = make([]int, len(layout.Specs()))
	for i := range v.cols {
		v.cols[i] = i
	}
	v.members = []*View{v}
	v.publishLocked()
	return v, nil
}

// compile validates def and returns its view without a table, with the
// layout of its aggregations (empty for a projection).
func compile(def Def) (*View, *aggregate.Layout, error) {
	if def.Name == "" {
		return nil, nil, fmt.Errorf("view: name required")
	}
	if def.Expr == nil {
		return nil, nil, fmt.Errorf("view %s: expression required", def.Name)
	}
	inSchema := def.Expr.Schema()
	var schema *value.Schema
	var specs []aggregate.Spec
	var kinds []value.Kind
	switch def.Mode {
	case SummarizeProject:
		if len(def.Cols) == 0 {
			return nil, nil, fmt.Errorf("view %s: projection needs at least one column", def.Name)
		}
		for _, c := range def.Cols {
			if c < 0 || c >= inSchema.Len() {
				return nil, nil, fmt.Errorf("view %s: projection column %d out of range", def.Name, c)
			}
		}
		schema = inSchema.Project(def.Cols)
	case SummarizeGroupBy:
		if len(def.Aggs) == 0 {
			return nil, nil, fmt.Errorf("view %s: grouping needs at least one aggregation", def.Name)
		}
		cols := make([]value.Column, 0, len(def.GroupCols)+len(def.Aggs))
		for _, c := range def.GroupCols {
			if c < 0 || c >= inSchema.Len() {
				return nil, nil, fmt.Errorf("view %s: grouping column %d out of range", def.Name, c)
			}
			cols = append(cols, inSchema.Col(c))
		}
		for _, a := range def.Aggs {
			if a.Col >= inSchema.Len() || (a.Col < 0 && a.Func != aggregate.Count) {
				return nil, nil, fmt.Errorf("view %s: aggregation %s column %d out of range", def.Name, a.Func, a.Col)
			}
			if a.Name == "" {
				return nil, nil, fmt.Errorf("view %s: aggregation %s needs an output name", def.Name, a.Func)
			}
			in := value.KindInt
			if a.Col >= 0 {
				in = inSchema.Col(a.Col).Kind
			}
			kinds = append(kinds, in)
			cols = append(cols, value.Column{Name: a.Name, Kind: a.ResultKind(in)})
		}
		schema = value.NewSchema(cols...)
		specs = def.Aggs
	default:
		return nil, nil, fmt.Errorf("view %s: unknown summarization mode %d", def.Name, def.Mode)
	}
	layout, err := aggregate.NewLayout(specs, kinds)
	if err != nil {
		return nil, nil, fmt.Errorf("view %s: %w", def.Name, err)
	}
	v := &View{def: def, schema: schema, info: algebra.Analyze(def.Expr), keyCols: def.KeyCols(), tableKey: def.TableKey()}
	for i := range v.keyCols {
		v.keyKinds = append(v.keyKinds, schema.Col(i).Kind)
	}
	return v, layout, nil
}

// Publish makes every row folded since the last publication visible to
// readers, atomically; with nothing folded it does nothing. It publishes the
// view's table, so every view sharing it flips with it. The engine calls it
// once per touched table at the end of each append call, before it releases
// its mutation lock. Like ApplyRows, calls on one view must be serialized by
// the caller; views of distinct tables may publish concurrently.
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

// Dir returns the view's key directory.
func (v *View) Dir() *Dir { return v.store.dir }

// Info returns the static analysis of the underlying expression.
func (v *View) Info() algebra.Info { return v.info }

// Lang returns the SCA fragment the view is written in.
func (v *View) Lang() algebra.Lang { return v.info.Lang }

// IMClass returns the view's incremental-maintenance complexity class
// (Theorem 4.5).
func (v *View) IMClass() algebra.IMClass { return v.info.IMClass() }

// Stats returns the maintenance counters of the view's table.
func (v *View) Stats() Stats {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.stats
}

// Len returns the number of rows currently in the view, from the published
// entry count — without a lock. A view that reads through panes counts the
// keys they hold.
func (v *View) Len() int {
	if v.thru.Load() != nil {
		n := 0
		if v.settled(func(th *through) {
			n = 0
			v.eachThrough(th, nil, nil, false, func(string, *entry) bool { n++; return true })
		}) {
			return n
		}
	}
	if p := v.pg.Load(); p != nil {
		// The store holds the resident blocks' entries; the pager tracks the
		// logical count across all blocks.
		return int(p.published.Load())
	}
	return int(v.store.count.Load())
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
func (v *View) ApplyRows(rows []chronicle.Row) (first bool) { return v.ApplyCall(0, rows) }

// ApplyCall is ApplyRows for the engine's maintenance round call: the views
// sharing a key directory that fold one round's rows resolve them once (see
// Dir.resolve), and the views sharing a table fold them once — the first of
// them to get the round's rows folds them into the table, and every other
// returns at once, reporting false. Calls on the views of one directory must
// be serialized by the caller, as the engine does; a nonzero call must name
// one round's rows, and the views of a shared table must be folded through
// rounds, or each would fold the rows again.
func (v *View) ApplyCall(call uint64, rows []chronicle.Row) (first bool) {
	start := time.Now()
	v.mu.Lock()
	if v.folded(call, rows) {
		v.mu.Unlock()
		return false
	}
	first = !v.unpublished && len(rows) > 0
	v.stats.Applies++
	v.stats.DeltaRows += int64(len(rows))
	if len(rows) > 0 {
		// Set before the first row folds: a block fault below must already
		// treat the live store as ahead of the published one.
		v.unpublished = true
		for _, r := range rows {
			if r.LSN > v.appliedLSN {
				v.appliedLSN = r.LSN
			}
		}
		v.fold(call, rows)
	}
	v.stats.ApplyNs += time.Since(start).Nanoseconds()
	v.mu.Unlock()
	return first
}

// fold folds one fold's rows into the table: the directory resolves them
// to the fold's distinct groups, each with its rows in SN order, and each
// group is versioned (or created) once and steps its rows under the table's
// layout, the union of its views' aggregations. A paged view first faults
// the block of each group the fold writes, so that a checkpoint can re-encode
// it from memory.
func (v *View) fold(call uint64, rows []chronicle.Row) {
	h, p := v.store, v.pg.Load()
	h.dir.mu.Lock()
	defer h.dir.mu.Unlock()
	res := h.dir.resolve(call, v, rows)
	indexed := h.beginFold()
	made := len(h.pending)
	l, a := v.sh.l, v.arena
	if p != nil {
		a = nil // see arena
	}
	for g, id := range res.ids {
		var blk *blockMeta
		if p != nil {
			blk = v.ensureWrite(p, h.dir.key(id))
		}
		e, isNew := h.live(id, a, indexed)
		if isNew && blk != nil {
			v.noteInsert(p, blk, h.dir.key(id))
		}
		grp := e.group(v.sh)
		for _, i := range res.rows(g) {
			l.Step(grp, rows[i].Vals)
		}
	}
	v.stats.Touched += int64(len(res.ids))
	v.stats.Versions += int64(len(h.pending) - made)
}

// Lookup returns the view row whose group (or projected tuple) equals key.
// For group-by views key lists the grouping values in GroupCols order; for
// projection views it is the full projected tuple. This is the paper's
// summary query: answered from the view, never from the chronicle.
//
// Lock-free: the directory gives the key's id, and published entries are
// frozen (maintenance mutates versions and stores them atomically); the
// readers count keeps the entry off the free list while the row is built.
func (v *View) Lookup(key value.Tuple) (value.Tuple, bool) {
	// Lookups run concurrently with maintenance, so the probe key is built
	// in a pooled buffer, not the view's maintenance scratch.
	buf := keyenc.GetBuf()
	defer keyenc.PutBuf(buf)
	*buf = keyenc.AppendTuple(*buf, key)
	if v.thru.Load() != nil {
		var row value.Tuple
		var ok bool
		if v.settled(func(th *through) { row, ok = v.lookupThrough(th, *buf) }) {
			return row, ok
		}
	}
	v.readers.Add(1)
	defer v.readers.Add(-1)
	h, p := v.store, v.pg.Load()
	seq := h.seq.Load()
	k, e := h.rget(*buf)
	if e != nil && e.count() != 0 {
		if p != nil {
			p.cache.hits.Add(1)
			p.touch(*buf)
		}
		return rowOf(v, k, e), true
	}
	// The key may live in an evicted block — or in one faulted in since the
	// probe, which changed seq (a fault stores its entries before it lowers
	// nonResident). Fully-resident paged views never get here.
	if p != nil && (p.nonResident.Load() > 0 || h.seq.Load() != seq) {
		return v.pagedLookup(*buf)
	}
	return nil, false
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
// publication. The changefeed's snapshot catch-up splices on that LSN —
// deltas at or below it are reflected in the rows delivered, deltas above it
// are not. It is the published LSN, not the live store's: between two rows
// of one append call the live store is ahead of every reader, and a splice on
// its cursor would drop the call's deltas.
//
// A read is one walk of the directory's order from the window's starting
// end, O(log|keys| + keys visited), over the view's published entries. The
// entries are stored slot by slot, so the walk gathers the rows first and
// checks them against the store's publish sequence: a publication that
// overlapped the walk sends it round again, and a second collision takes the
// read lock, which excludes publication, so a read under a writer that
// publishes faster than it can walk still terminates. A paged view with cold
// blocks faults only the blocks the read reaches (see pagedScan).
//
// The scan counts itself a reader until fn has seen its last row, so nothing
// it can reach is reused meanwhile.
func (v *View) Scan(w Window, fn func(value.Tuple) bool) uint64 {
	rows := getRows()
	defer putRows(rows)
	if v.thru.Load() != nil {
		var lsn uint64
		if v.settled(func(th *through) { *rows, lsn = v.collectThrough(th, w, (*rows)[:0]) }) {
			deliver(*rows, fn)
			return lsn
		}
	}
	v.readers.Add(1)
	defer v.readers.Add(-1)
	h, p := v.store, v.pg.Load()
	for try := 0; ; try++ {
		locked := try == 2
		if locked {
			v.mu.RLock()
		}
		// seq before nonResident: an eviction raises the count before it
		// clears its entries, so a walk that saw the count at zero and seq
		// unchanged saw every entry.
		seq := h.seq.Load()
		if p != nil && p.nonResident.Load() > 0 {
			if locked {
				v.mu.RUnlock()
			}
			return v.pagedScan(p, w, fn)
		}
		*rows = v.collect(w, w.Lo, w.Hi, (*rows)[:0])
		lsn := h.lsn.Load()
		if locked {
			v.mu.RUnlock()
		}
		if locked || seq&1 == 0 && h.seq.Load() == seq {
			deliver(*rows, fn)
			return lsn
		}
	}
}

// collect appends to rows the rows of w whose keys lie in [lo, hi) — the
// window's own bounds or, for a paged read, the planned part of them — in
// the window's direction, up to its limit.
func (v *View) collect(w Window, lo, hi []byte, rows []value.Tuple) []value.Tuple {
	h := v.store
	h.dir.walk(lo, hi, w.Desc, func(id uint32) bool {
		e := h.published(id)
		if e == nil || e.count() == 0 {
			return true
		}
		row := rowOf(v, h.dir.key(id), e)
		if w.Keep != nil && !w.Keep(row) {
			return true
		}
		rows = append(rows, row)
		return len(rows) != w.Limit
	})
	return rows
}

// collectThrough is collect over the panes of th, and returns the LSN the
// newest of their publications reached.
func (v *View) collectThrough(th *through, w Window, rows []value.Tuple) ([]value.Tuple, uint64) {
	var lsn uint64
	for _, p := range th.panes {
		lsn = max(lsn, p.t.store.lsn.Load())
	}
	v.eachThrough(th, w.Lo, w.Hi, w.Desc, func(key string, e *entry) bool {
		row := rowOf(v, key, e)
		if w.Keep != nil && !w.Keep(row) {
			return true
		}
		rows = append(rows, row)
		return len(rows) != w.Limit
	})
	return rows, lsn
}

// deliver hands fn the rows until it says stop.
func deliver(rows []value.Tuple, fn func(value.Tuple) bool) {
	for _, r := range rows {
		if !fn(r) {
			return
		}
	}
}

// rowBufs recycles the slices reads gather their rows in; the rows are the
// caller's.
var rowBufs = sync.Pool{New: func() any { return new([]value.Tuple) }}

func getRows() *[]value.Tuple { return rowBufs.Get().(*[]value.Tuple) }

// putRows returns a gather buffer, unless a scan of a large view grew it.
func putRows(rows *[]value.Tuple) {
	if cap(*rows) > 1024 {
		return
	}
	clear(*rows)
	*rows = (*rows)[:0]
	rowBufs.Put(rows)
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
// decoded from the key, then the results of the view's own aggregations in
// the table's group. The key is the
// directory's string, and the row's string cells are substrings of it. Every
// key reaching here was written by the encoder or checked when it was
// restored (CheckKey), so it decodes.
func rowOf(v *View, key string, e *entry) value.Tuple {
	out := make(value.Tuple, 0, len(v.keyKinds)+len(v.cols))
	out, _ = keyenc.DecodeKey(out, key, v.keyKinds)
	l, g := v.sh.l, e.group(v.sh)
	for _, c := range v.cols {
		out = append(out, l.Result(g, c))
	}
	return out
}

// Recompute answers what the view *should* contain by reference-evaluating
// the expression over fully retained chronicles and summarizing from
// scratch: the reference the tests compare against; the engine does not call
// it. It reads every stored row (Proposition 3.1's IM-Cᵏ), and it fails when
// any chronicle has dropped rows.
func (v *View) Recompute() ([]value.Tuple, error) {
	rows, err := algebra.Evaluate(v.def.Expr)
	if err != nil {
		return nil, err
	}
	fresh, err := New(v.def)
	if err != nil {
		return nil, err
	}
	fresh.ApplyRows(rows)
	fresh.Publish()
	return fresh.Rows(), nil
}
