package view

import (
	"reflect"
	"sync/atomic"
	"unsafe"

	"chronicledb/internal/aggregate"
)

// entry is one materialized view row: the group's states under the view's
// layout and the contribution count used for refcounted duplicate
// elimination in projection views, which is the group's word 0. The group
// values (or projected tuple) are not kept here: the view's directory holds
// them once as the key (see Dir), and a reader decodes them from there (see
// rowOf). The states are not fields either: an entry is the head of a shell,
// and its group's words and string slots follow it in the same object (see
// shape).
//
// An entry reachable by lock-free readers is frozen; maintenance changes a
// group by building a new version of its entry (shells.version), pending
// until the publication that swaps it in (store.publish).
//
// stamp is carvedBit or zero.
type entry struct {
	stamp uint64
}

// entrySize is where a shell's words begin.
const entrySize = int(unsafe.Sizeof(entry{}))

// carvedBit marks an entry whose shell was carved from an arena chunk: the
// collector cannot take it back alone, so the view must never let go of it
// (see shells.settle).
const carvedBit = 1 << 63

// count is the group's word 0: the rows folded into it.
func (e *entry) count() int64 { return *(*int64)(unsafe.Add(unsafe.Pointer(e), entrySize)) }

// group returns the states that follow e in its shell, of shape sh.
func (e *entry) group(sh *shape) aggregate.Group {
	words := unsafe.Add(unsafe.Pointer(e), entrySize)
	g := aggregate.Group{Words: unsafe.Slice((*uint64)(words), sh.l.Words())}
	if n := sh.l.Strs(); n > 0 {
		g.Strs = unsafe.Slice((*string)(unsafe.Add(words, 8*sh.l.Words())), n)
	}
	return g
}

// shape is how one view's groups sit in memory: a shell is the entry, then
// the group's words, then its string slots, in one object whose Go type is
// built for the view's layout. The entry a probe reaches and the words the
// fold steps share cache lines, and a group is one object of exactly its
// size; the type marks only the string slots as pointers, so the collector
// reads the words as plain data and does not scan a numeric shell at all.
type shape struct {
	l     *aggregate.Layout
	typ   reflect.Type
	bytes int
}

func newShape(l *aggregate.Layout) *shape {
	fields := []reflect.StructField{
		{Name: "E", Type: reflect.TypeOf(entry{})},
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
	if a != nil {
		e.stamp = carvedBit
	}
	if src != nil {
		e.group(sh).CopyFrom(src.group(sh))
	}
	return e
}

// shells recycles the entry versions of one view. The store copies a
// published entry into pending before its first change in a call and
// retires the version it replaced; the publication that ends the call
// settles what was retired (View.publishLocked). Guarded by the view's mu.
type shells struct {
	sh      *shape   // the view's, which every shell has
	retired []*entry // versions replaced since the last publication
	free    []*entry // shells no reader can hold, for version
	limbo   []*entry // carved shells retired under a reader, awaiting a reader-free publication
	// most is the most versions one publication has retired, and the bound
	// of free, which only carved shells pass.
	most int
}

// version returns a private copy of a published entry, in a free shell when
// there is one (an in-place copy of its words — the allocation-free warm
// path). The copy's stamp keeps its own shell's carvedBit.
func (s *shells) version(src *entry) *entry {
	n := len(s.free)
	if n == 0 {
		return newEntry(nil, s.sh, src)
	}
	c := s.free[n-1]
	s.free[n-1] = nil
	s.free = s.free[:n-1]
	c.group(s.sh).CopyFrom(src.group(s.sh))
	c.stamp &= carvedBit
	return c
}

// retire records that e, a published version, was replaced.
func (s *shells) retire(e *entry) { s.retired = append(s.retired, e) }

// settle ends a publication's reclamation. quiet reports that no reader was
// counted once the publication was stored: a reader counted then may hold a
// retired version, one that arrives later can reach none. So with quiet set,
// every retired shell — this publication's and those waiting in limbo — is
// free for reuse. Without it none is: a carved shell waits in limbo for the
// next reader-free publication (dropped, a piece of a chunk is never
// collected), a collector-owned one is dropped, so that a reader that never
// leaves costs the collector work, not the store memory.
func (s *shells) settle(quiet bool) {
	s.most = max(s.most, len(s.retired))
	if quiet {
		s.free = append(s.free, s.limbo...)
		clear(s.limbo)
		s.limbo = s.limbo[:0]
		s.free = append(s.free, s.retired...)
	} else {
		for _, e := range s.retired {
			if e.stamp&carvedBit != 0 {
				s.limbo = append(s.limbo, e)
			}
		}
	}
	clear(s.retired)
	s.retired = s.retired[:0]
	if len(s.free) > s.most {
		// Past the bound the collector's shells go; carved ones stay, for the
		// reason limbo keeps them.
		kept := s.free[:s.most]
		for _, e := range s.free[s.most:] {
			if e.stamp&carvedBit != 0 {
				kept = append(kept, e)
			}
		}
		clear(s.free[len(kept):])
		s.free = kept
	}
}

// pend is one entry a call has created or versioned and not yet published:
// e is the mutable entry of id, old the published version it was built from
// (nil for a group new to the view).
type pend struct {
	id     uint32
	e, old *entry
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
	old := h.published(id)
	if old != nil {
		e = h.sh.version(old)
	} else {
		e = newEntry(a, h.sh.sh, nil)
		h.fresh++
	}
	h.pending = append(h.pending, pend{id: id, e: e, old: old})
	if indexed {
		h.indexAt(len(h.pending) - 1)
	}
	return e, old == nil
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
		if p.old != nil {
			h.sh.retire(p.old)
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
