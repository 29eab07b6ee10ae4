package view

import (
	"reflect"
	"sync/atomic"
	"unsafe"

	"chronicledb/internal/aggregate"
)

// entry is one materialized view row: the group's states under the view's
// layout, whose word 0 is the row count that also serves as the contribution
// count for refcounted duplicate elimination in projection views. The group
// values (or projected tuple) are not kept here: the view's directory holds
// them once as the key (see Dir), and a reader decodes them from there (see
// rowOf). An entry is its shell — the group's words, then its string slots
// (see shape) — and *entry points at word 0; nothing else is kept per group.
// Whether a shell was carved from an arena is the store's to know (see
// store.carved), and only maintenance asks.
//
// An entry reachable by lock-free readers is frozen; maintenance changes a
// group by building a new version of its entry (shells.version), pending
// until the publication that swaps it in (store.publish).
type entry struct {
	w0 uint64
}

// count is the rows folded into the group.
func (e *entry) count() uint64 {
	return aggregate.Group{Words: unsafe.Slice(&e.w0, 1)}.Rows()
}

// group returns the states that make up e's shell, of shape sh.
func (e *entry) group(sh *shape) aggregate.Group {
	g := aggregate.Group{Words: unsafe.Slice(&e.w0, sh.l.Words())}
	if n := sh.l.Strs(); n > 0 {
		g.Strs = unsafe.Slice((*string)(unsafe.Add(unsafe.Pointer(e), 8*sh.l.Words())), n)
	}
	return g
}

// shape is how one view's groups sit in memory: a shell is the group's
// words, then its string slots, in one object whose Go type is built for the
// view's layout. A group is one object of exactly its size, and the type
// marks only the string slots as pointers, so the collector reads the words
// as plain data and does not scan a numeric shell at all.
type shape struct {
	l     *aggregate.Layout
	typ   reflect.Type
	bytes int
}

func newShape(l *aggregate.Layout) *shape {
	fields := []reflect.StructField{
		{Name: "W", Type: reflect.ArrayOf(l.Words(), reflect.TypeOf(uint64(0)))},
	}
	if l.Strs() > 0 {
		// Never a zero-length last field: the compiler pads one.
		fields = append(fields, reflect.StructField{Name: "S", Type: reflect.ArrayOf(l.Strs(), reflect.TypeOf(""))})
	}
	typ := reflect.StructOf(fields)
	return &shape{l: l, typ: typ, bytes: int(typ.Size())}
}

// newEntry is the one place view entries are built: the fold's new groups,
// decoded blocks and checkpoints, and the versions the view's free shells
// cannot serve. It carves a shell of shape sh from a (the heap when a is
// nil): fresh words are the empty group.
//
// With src set it builds the next version of src, copying the group.
// Versions are the collector's (a is nil), so that a publication that finds a
// reader can drop them. New groups may be carved: the view recycles a retired
// shell once no reader can hold it, and keeps a carved one that a reader
// might hold until then (see shells).
func newEntry(a *arena, sh *shape, src *entry) *entry {
	e := a.shell(sh)
	if src != nil {
		e.group(sh).CopyFrom(src.group(sh))
	}
	return e
}

// shells recycles the entry versions of one view, keeping carved shells and
// the collector's apart: the collector cannot take a carved shell back alone,
// so the view must never let go of one, while a heap shell it may drop. The
// store copies a published entry into pending before its first change in a
// call and retires the version it replaced, telling which kind it is; the
// publication that ends the call settles what was retired
// (View.publishLocked). Guarded by the view's mu.
type shells struct {
	sh *shape // the view's, which every shell has
	// Versions replaced since the last publication: carved, and the
	// collector's.
	retired, retiredHeap []*entry
	// Shells no reader can hold, for version: carved, and the collector's.
	free, freeHeap []*entry
	limbo          []*entry // carved shells retired under a reader, awaiting a reader-free publication
	// most is the most versions one publication has retired, and the bound
	// of the free shells, which only carved ones pass.
	most int
}

// version returns a private copy of a published entry and whether its shell
// is carved: in a free shell when there is one, carved first (an in-place
// copy of its words — the allocation-free warm path), else the collector's.
func (s *shells) version(src *entry) (e *entry, carved bool) {
	list := &s.free
	if len(*list) == 0 {
		list = &s.freeHeap
	}
	n := len(*list)
	if n == 0 {
		return newEntry(nil, s.sh, src), false
	}
	e = (*list)[n-1]
	(*list)[n-1] = nil
	*list = (*list)[:n-1]
	e.group(s.sh).CopyFrom(src.group(s.sh))
	return e, list == &s.free
}

// retire records that e, a published version, was replaced.
func (s *shells) retire(e *entry, carved bool) {
	if carved {
		s.retired = append(s.retired, e)
	} else {
		s.retiredHeap = append(s.retiredHeap, e)
	}
}

// settle ends a publication's reclamation. quiet reports that no reader was
// counted once the publication was stored: a reader counted then may hold a
// retired version, one that arrives later can reach none. So with quiet set,
// every retired shell — this publication's and those waiting in limbo — is
// free for reuse. Without it none is: a carved shell waits in limbo for the
// next reader-free publication (dropped, a piece of a chunk is never
// collected), a collector-owned one is dropped, so that a reader that never
// leaves costs the collector work, not the store memory.
func (s *shells) settle(quiet bool) {
	s.most = max(s.most, len(s.retired)+len(s.retiredHeap))
	if quiet {
		s.free = append(s.free, s.limbo...)
		clear(s.limbo)
		s.limbo = s.limbo[:0]
		s.free = append(s.free, s.retired...)
		s.freeHeap = append(s.freeHeap, s.retiredHeap...)
	} else {
		s.limbo = append(s.limbo, s.retired...)
	}
	clear(s.retired)
	s.retired = s.retired[:0]
	clear(s.retiredHeap)
	s.retiredHeap = s.retiredHeap[:0]
	// Past the bound the collector's shells go; carved ones stay, for the
	// reason limbo keeps them.
	if keep := max(s.most-len(s.free), 0); len(s.freeHeap) > keep {
		clear(s.freeHeap[keep:])
		s.freeHeap = s.freeHeap[:keep]
	}
}

// pend is one entry a call has created or versioned and not yet published:
// e is the mutable entry of id, old the published version it was built from
// (nil for a group new to the view), and each one's shell carved or not.
type pend struct {
	id                uint32
	carved, oldCarved bool
	e, old            *entry
}

// pslot is one slot of the pending index; it is empty unless gen is the
// store's current generation, so starting a new publication resets every
// slot by bumping that.
type pslot struct {
	gen, idx uint32
}

// store is a view's group store, with lock-free readers. Its keys live in
// the directory it shares with the views that fold the same delta by the same
// columns (Dir), and so does their order; what the store holds is an
// id-indexed array of its published entries, frozen, where a nil slot or an
// id past the array's end is a group the view does not have (or, paged, does
// not have resident). A call's fold versions each touched group once — the
// directory hands it the call's distinct ids — into pending, and publish
// stores each pending entry into its slot: one version and one store per
// touched group per call. A point read probes the directory, then the array,
// each atomically; a window read walks the directory's order over the array
// and validates what it gathered against seq (see View.Scan).
//
// Versions come from the view's shells and go back to them when publish
// retires them, so nothing reachable is ever mutated in place and the warm
// maintenance path allocates nothing.
type store struct {
	dir   *Dir
	pub   paged[atomic.Pointer[entry]]
	count atomic.Int64  // published entries, for lock-free len
	seq   atomic.Uint64 // publish sequence: odd while a publish runs
	lsn   atomic.Uint64 // LSN the published entries have reached

	// Maintenance state, guarded by the owning view's mu. index finds a
	// pending entry by id; it is kept only while a publication spans more than
	// one fold (a long call's chunks), since one fold meets each id once.
	pending []pend
	fresh   int // how many pending entries are new groups
	index   []pslot
	gen     uint32
	sh      *shells
	// carved holds a bit per id, set when the published entry of id is a
	// shell carved from an arena; readers never ask.
	carved []uint64
}

// published returns the published entry of id, or nil. Lock-free.
func (h *store) published(id uint32) *entry {
	if p := h.pub.at(id); p != nil {
		return p.Load()
	}
	return nil
}

// rget is the lock-free reader probe: the directory, then the published
// array. It returns the directory's copy of key with the entry, nil when the
// view does not have the group. Callers count themselves in the view's
// readers across the call and any use of the entry.
func (h *store) rget(key []byte) (string, *entry) {
	id, ok := h.dir.lookup(key)
	if !ok {
		return "", nil
	}
	return h.dir.key(id), h.published(id)
}

// live returns the entry of id to fold into: the version pending since the
// last publication, a new version of the published entry, or — for a group
// new to the view, which it reports — a new entry carved from a. The caller
// folds each id once a fold; indexed says an earlier fold of this publication
// may have met it.
func (h *store) live(id uint32, a *arena, indexed bool) (e *entry, isNew bool) {
	if indexed {
		if i := h.find(id); i >= 0 {
			return h.pending[i].e, false
		}
	}
	p := pend{id: id, old: h.published(id)}
	if p.old != nil {
		p.oldCarved = h.isCarved(id)
		p.e, p.carved = h.sh.version(p.old)
	} else {
		p.e, p.carved = newEntry(a, h.sh.sh, nil), a != nil
		h.fresh++
	}
	h.pending = append(h.pending, p)
	if indexed {
		h.indexAt(len(h.pending) - 1)
	}
	return p.e, p.old == nil
}

// isCarved reports whether the published entry of id is a carved shell.
func (h *store) isCarved(id uint32) bool {
	w := int(id / 64)
	return w < len(h.carved) && h.carved[w]&(1<<(id%64)) != 0
}

// markCarved records whether the published entry of id is a carved shell.
func (h *store) markCarved(id uint32, carved bool) {
	w := int(id / 64)
	if w >= len(h.carved) {
		if !carved {
			return
		}
		h.carved = append(h.carved, make([]uint64, w+1-len(h.carved))...)
	}
	if carved {
		h.carved[w] |= 1 << (id % 64)
	} else {
		h.carved[w] &^= 1 << (id % 64)
	}
}

// beginFold prepares a fold: the first of a publication needs no index, a
// later one indexes what the earlier ones left pending. It reports whether
// live must consult the index.
func (h *store) beginFold() (indexed bool) {
	if len(h.pending) == 0 {
		return false
	}
	if n := max(16, 4*len(h.pending)); len(h.index) < n {
		h.index = make([]pslot, 1<<bitsFor(n))
		h.gen = 0
	}
	if h.gen++; h.gen == 0 {
		clear(h.index)
		h.gen = 1
	}
	for i := range h.pending {
		h.indexAt(i)
	}
	return true
}

// bitsFor returns the bits of the smallest power of two ≥ n.
func bitsFor(n int) uint {
	b := uint(0)
	for 1<<b < n {
		b++
	}
	return b
}

func (h *store) find(id uint32) int {
	mask := uint32(len(h.index) - 1)
	for i := id * 0x9E3779B1 & mask; ; i = (i + 1) & mask {
		s := h.index[i]
		if s.gen != h.gen {
			return -1
		}
		if h.pending[s.idx].id == id {
			return int(s.idx)
		}
	}
}

func (h *store) indexAt(idx int) {
	if len(h.pending)*2 > len(h.index) {
		h.index = make([]pslot, 2*len(h.index))
		h.gen = 1
		for i := range h.pending[:idx] {
			h.indexAt(i)
		}
	}
	mask := uint32(len(h.index) - 1)
	i := h.pending[idx].id * 0x9E3779B1 & mask
	for h.index[i].gen == h.gen {
		i = (i + 1) & mask
	}
	h.index[i] = pslot{gen: h.gen, idx: uint32(idx)}
}

// publish stores the pending entries into their slots and stamps the array
// with the LSN it now reflects, inside one odd-seq window; then it retires
// the versions it replaced, for the view to settle. Runs under the view's
// exclusive lock.
func (h *store) publish(lsn uint64) {
	h.seq.Add(1)
	for _, p := range h.pending {
		h.pub.slot(p.id).Store(p.e)
	}
	h.count.Add(int64(h.fresh))
	h.lsn.Store(lsn)
	h.seq.Add(1)
	for _, p := range h.pending {
		h.markCarved(p.id, p.carved)
		if p.old != nil {
			h.sh.retire(p.old, p.oldCarved)
		}
	}
	h.resetPending()
}

// keepPending is the largest pending list whose buffer the store keeps
// whatever the calls look like. Larger ones are a bulk load's: they serve its
// next call, and go when a call that does not need them ends, or every view
// would hold room for its largest call ever.
const keepPending = 256

func (h *store) resetPending() {
	h.fresh = 0
	if cap(h.pending) > keepPending && len(h.pending) <= keepPending {
		h.pending, h.index = nil, nil
		return
	}
	clear(h.pending)
	h.pending = h.pending[:0]
}

// adopt replaces the published state with another store's, in place,
// so concurrent lock-free readers never observe a dangling store pointer.
// Runs under the view's exclusive lock; o must be fully published.
func (h *store) adopt(o *store) {
	h.seq.Add(1)
	h.pub.pages.Store(o.pub.pages.Load())
	h.count.Store(o.count.Load())
	h.seq.Add(1)
	h.carved = o.carved
	h.resetPending()
}

// each visits the published entries of [lo, hi) in key order, until fn
// returns false. Callers exclude publication (they hold the view's lock) or
// validate against seq.
func (h *store) each(lo, hi []byte, fn func(id uint32, e *entry) bool) {
	h.dir.walk(lo, hi, false, func(id uint32) bool {
		if e := h.published(id); e != nil {
			return fn(id, e)
		}
		return true
	})
}
