package view

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"chronicledb/internal/chronicle"
)

// table is the group state of one view, or of several that fold the same
// delta by the same key (see Join): a store of one group per directory key
// under one layout, the union of its views' aggregations, whose word 0 counts
// the group's rows for all of them (a row of a view exists iff it is not 0).
// A view reads its own columns of a group (rowOf); the table folds, versions
// and publishes each group once for all of them.
//
// Concurrency model: maintenance (ApplyCall/Publish/RestoreCheckpoint) is
// serialized by the engine and takes mu exclusively. The table publishes
// frozen entries into an id-indexed array beside a lock-free key directory,
// so its readers are lock-free: maintenance mutates pending versions and
// stores them at publish (see store). A reader sees the state as of the last
// publication, stamped with the LSN that publication carried, never the rows
// folded since.
//
// Every reader of published state, through any of the table's views, counts
// itself in readers before it loads an entry and out when it is done with
// what it reached. A publication that finds no reader counted after it has
// stored the new state frees the entry versions the calls since the last one
// replaced for the next call to reuse; one that finds a reader leaves them to
// the collector, carved shells aside (see publishLocked). The warm
// maintenance path allocates nothing of its own.
type table struct {
	store *store
	stats Stats

	// mu guards the store's maintenance state, stats, scratch and members.
	// Writers (maintenance, restore, block faults and evictions) hold it
	// exclusively; readers are lock-free, except that a window read which
	// keeps colliding with publications falls back to the read side (see
	// Scan). A fold also holds the directory's lock, inside mu.
	mu sync.RWMutex
	// readers counts the lock-free readers in flight.
	readers atomic.Int64
	// shells recycles the entry versions the store replaces.
	shells shells
	// pg is the blocked-store pager, set by EnablePaging before the view
	// is visible to concurrent readers; nil for unpaged tables. A paged
	// table has one view. Stored atomically so hot read paths can consult it
	// without locks.
	pg atomic.Pointer[pager]

	// sh holds the layout of the table's groups (for projections alone the
	// empty layout: a group's words are its count) and the shells they live
	// in.
	sh *shape
	// arena is where an unpaged table's new groups are carved from; a paged
	// one's are the collector's (see arena).
	arena *arena

	// appliedLSN is the highest LSN among delta rows folded into the table,
	// the cursor position of the live store. Each publication carries the
	// value it had then (store.lsn); the changefeed's snapshot catch-up
	// splices on that published value: deliver the snapshot, then filter live
	// frames with LSN ≤ it.
	appliedLSN uint64
	// unpublished reports that rows were folded since the last publication:
	// the live store is ahead of what readers see.
	unpublished bool

	// The round folded last, named like Dir.resolve names it — by its call,
	// its first row and its length — so that the table's other views skip it.
	call  uint64
	first *chronicle.Row
	nrows int

	// members are the views that read the table, in the order they joined.
	members []*View

	// thru is what the table reads instead of its own groups while it
	// reads through panes (see ReadThrough), nil otherwise; materialized
	// says the panes were merged in and thru goes at the next publication.
	thru         atomic.Pointer[through]
	materialized bool
}

func newTable(d *Dir, sh *shape) *table {
	t := &table{arena: new(arena), sh: sh}
	t.shells.sh = sh
	t.store = &store{dir: d, sh: &t.shells}
	return t
}

// folded reports whether the table has folded this round's rows already,
// through another of its views, and otherwise names them as the round folded
// last. Zero never matches. Callers hold mu.
func (t *table) folded(call uint64, rows []chronicle.Row) bool {
	var first *chronicle.Row
	if len(rows) > 0 {
		first = &rows[0]
	}
	if call != 0 && call == t.call && first == t.first && len(rows) == t.nrows {
		return true
	}
	t.call, t.first, t.nrows = call, first, len(rows)
	return false
}

// publishLocked makes the live store visible to lock-free readers, stamped
// with the LSN it has reached: the store swaps its pending versions into its
// array. Callers must hold mu exclusively (or have sole ownership, as in
// New).
//
// Then it settles the entry versions the store swapped out since the last
// publication. They are reachable from older published state only, so a
// reader counted now may hold some and one that arrives later can reach
// none. With no reader counted they all become reusable. With one, heap
// versions go to the collector and carved shells wait in limbo
// (shells.settle).
func (t *table) publishLocked() {
	t.store.publish(t.appliedLSN)
	if t.materialized {
		t.thru.Store(nil)
		t.materialized = false
	}
	t.shells.settle(t.readers.Load() == 0)
	if p := t.pg.Load(); p != nil {
		p.published.Store(p.total)
	}
	t.unpublished = false
}

// Join returns a view of def that shares host's table: the table's layout
// grows by the aggregations of def it lacks, and the view reads its columns
// from the same groups. def must fold the same delta as host, group by the
// same columns, and be folded in the same rounds — one table key
// (Def.TableKey) and dispatch filter — for the table to hold each view's
// groups. The table must hold no group yet, live or pending, and must not
// page: the groups it holds are host's, which a view joining now never had,
// and a layout cannot grow under them. The new view counts itself in host's
// directory as NewIn's caller does (Dir.Acquire).
func Join(def Def, host *View) (*View, error) {
	v, l, err := compile(def)
	if err != nil {
		return nil, err
	}
	t := host.table
	t.mu.Lock()
	defer t.mu.Unlock()
	switch {
	case !slices.Equal(v.keyCols, host.keyCols):
		return nil, fmt.Errorf("view %s: %s groups by %v, the view by %v", def.Name, host.def.Name, host.keyCols, v.keyCols)
	case t.pg.Load() != nil:
		return nil, fmt.Errorf("view %s: the table of %s pages", def.Name, host.def.Name)
	case !t.empty():
		return nil, fmt.Errorf("view %s: the table of %s holds groups", def.Name, host.def.Name)
	}
	layout, at := t.sh.l.Union(l)
	v.table, v.cols = t, at
	// No group lives in the old shape: its shells and arena go with it.
	t.sh = newShape(layout)
	t.shells = shells{sh: t.sh}
	t.arena = new(arena)
	t.members = append(t.members, v)
	return v, nil
}

// Leave takes a dropped view out of its table's views. Its columns stay in
// the layout; the table goes with its last view.
func (v *View) Leave() {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.members = slices.DeleteFunc(v.members, func(m *View) bool { return m == v })
}

// TableViews returns the names of the views that share v's table, v among
// them, in the order they joined: one name for a view with a table of its
// own.
func (v *View) TableViews() []string {
	v.mu.RLock()
	defer v.mu.RUnlock()
	names := make([]string, len(v.members))
	for i, m := range v.members {
		names[i] = m.def.Name
	}
	return names
}

// SharesTable reports whether v and o read their groups from one table.
func (v *View) SharesTable(o *View) bool { return v.table == o.table }

// TableEmpty reports whether v's table holds no group, published or
// pending: whether a view could still Join it.
func (v *View) TableEmpty() bool {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.empty()
}

// empty is TableEmpty for a caller that holds mu.
func (t *table) empty() bool { return t.store.count.Load() == 0 && len(t.store.pending) == 0 }

// own reports whether v's columns are the whole of its table's layout, in
// order: the layout a view of def alone would have, which its images are
// written and read under.
func (v *View) own() bool {
	if len(v.cols) != len(v.sh.l.Specs()) {
		return false
	}
	for i, c := range v.cols {
		if c != i {
			return false
		}
	}
	return true
}

// alone reports whether v is its table's one view and owns its layout: a
// table that may page, or have its groups replaced by a restore.
func (v *View) alone() bool { return len(v.members) == 1 && v.own() }
