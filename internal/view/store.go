package view

import (
	"bytes"
	"hash/maphash"
	"slices"
	"sort"
	"sync/atomic"

	"chronicledb/internal/aggregate"
	"chronicledb/internal/btree"
)

// entry is one materialized view row: the per-group aggregation states and
// a contribution count used for refcounted duplicate elimination in
// projection views. The group values (or projected tuple) are not kept
// apart: the store holds them once, as the entry's encoded key, and a reader
// decodes them from it (see rowOf).
//
// An entry reachable by lock-free readers is frozen; maintenance changes a
// group by building a new version of its entry (shells.version) and swapping
// that in. key is written once, when the group is created, and shared by
// every version.
//
// stamp's top bit is carvedBit; the rest belongs to the store. The ordered
// store keeps the write epoch the entry was created (or last copied) in: it
// publishes an immutable snapshot at the end of every append call, and an
// entry whose epoch predates the view's current write epoch is reachable
// from a published snapshot and must be copied before mutation. The hash
// store keeps the key's hash tag in the low half — computed once when a row
// first meets the key, carried through pending and install.
//
// key holds the encoded group key for hash-store entries, which the table
// compares after a tag match (the ordered store keys its nodes instead and
// leaves key empty).
type entry struct {
	states []aggregate.State
	count  int64
	stamp  uint64
	key    string
}

// carvedBit marks an entry whose shell (the entry and its states) was carved
// from an arena chunk: the collector cannot take it back alone, so the view
// must never let go of it (see shells.settle).
const carvedBit = 1 << 63

func (e *entry) tag() uint32 { return uint32(e.stamp) }

// epoch is the write epoch an ordered-store entry was made in.
func (e *entry) epoch() uint64 { return e.stamp &^ carvedBit }

// newEntry is the one place view entries are built: the fold's new groups,
// decoded blocks and checkpoints, and the copy-on-write versions the view's
// free shells cannot serve.
//
// With src nil it builds a new group with one fresh state per spec, carved
// from a (the heap when a is nil). Either store may carve it: the view
// recycles a retired shell once no reader can hold it, and keeps a carved one
// that a reader might hold until then (see shells).
//
// With src set it builds the next version of src on the heap, sharing key and
// copying count and states. Versions are the collector's, so that a
// publication that finds a reader can drop them.
func newEntry(a *arena, aggs []aggregate.Spec, src *entry) *entry {
	if src != nil {
		return &entry{count: src.count, key: src.key, states: slices.Clone(src.states)}
	}
	e := a.entry()
	e.states = a.stateVec(len(aggs))
	aggregate.InitStates(e.states, aggs)
	if a != nil {
		e.stamp = carvedBit
	}
	return e
}

// shells recycles the entry versions of one view, for both stores. A store
// copies a published entry before its first change in a call — the ordered
// store into the live tree, the hash store into pending — and retires the
// version it replaced; the publication that ends the call settles what was
// retired (View.publishLocked). Guarded by the view's mu.
type shells struct {
	retired []*entry // versions replaced since the last publication
	free    []*entry // shells no reader can hold, for version
	limbo   []*entry // carved shells retired under a reader, awaiting a reader-free publication
	// most is the most versions one publication has retired, and the bound
	// of free, which only carved shells pass.
	most int
}

// version returns a private copy of a published entry, in a free shell when
// there is one (an in-place copy of every state — the allocation-free warm
// path). The copy's stamp holds only its own shell's carvedBit; the caller
// stamps the rest.
func (s *shells) version(src *entry) *entry {
	n := len(s.free)
	if n == 0 {
		return newEntry(nil, nil, src)
	}
	c := s.free[n-1]
	s.free[n-1] = nil
	s.free = s.free[:n-1]
	c.count, c.key = src.count, src.key
	copy(c.states, src.states)
	c.stamp &= carvedBit
	return c
}

// retire records that e, a published version, was replaced in the live
// store.
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

// StoreKind selects the view's group store. The paper's Theorem 4.4 bound,
// O(t·log|V|), corresponds to the ordered B-tree store; the hash store is
// the "modulo index look ups" fast path with O(t) expected time. E10 counts
// both: the tree's height against the log bound, the hash store's hashes,
// probes and key comparisons per row.
type StoreKind uint8

const (
	// StoreHash is an unordered hash store: O(1) expected per touch.
	StoreHash StoreKind = iota
	// StoreBTree is an ordered B-tree store: O(log|V|) per touch, ordered
	// scans, range queries.
	StoreBTree
)

// String names the store kind.
func (k StoreKind) String() string {
	if k == StoreHash {
		return "hash"
	}
	return "btree"
}

// store is the minimal interface view maintenance needs. Keys are encoded
// key bytes owned by the caller: get probes without copying (the hot path
// reuses one buffer per view), put copies the key, from the arena it is
// given, before retaining it.
//
// get and put are maintenance-side and run under the view's exclusive
// lock; the hash store's get returns a pending mutable version so published
// entries stay frozen for its lock-free readers (the ordered store leaves
// versioning to the view).
type store interface {
	// get returns the entry to mutate for key, or nil, and the store's hash
	// tag of key, which a put that follows the miss hands back so the key is
	// hashed once.
	get(key []byte) (e *entry, tag uint32)
	// put inserts e, a new group, under key, which get has just missed.
	put(a *arena, key []byte, tag uint32, e *entry)
	len() int
	// ascend visits entries; the B-tree store visits in key order, the hash
	// store sorts keys on demand (acceptable: scans are query-side).
	ascend(fn func(key []byte, e *entry) bool)
}

// newStore returns an empty store of the given kind; a hash store makes its
// versions from sh. An ordered store's tree recycles its nodes: it becomes
// the view's live tree, the only one that retires.
func newStore(kind StoreKind, sh *shells) store {
	if kind == StoreBTree {
		return &treeStore{t: btree.NewRecycling[[]byte, *entry](func(a, b []byte) bool { return bytes.Compare(a, b) < 0 })}
	}
	return newHashStore(sh)
}

// hashSeed is the process-wide seed of the hash view index.
var hashSeed = maphash.MakeSeed()

// tagOf hashes a key to its 32-bit tag — the one hash a row costs a view.
// The tag is everything the table knows of a key without following a
// pointer: its high bits are the key's home slot at any table size and the
// whole of it is compared before an entry is dereferenced. Zero marks an
// empty slot, so the low bit (never part of a home slot: tables stay far
// below 2³¹ slots) is forced on.
func tagOf(key []byte) uint32 {
	return uint32(maphash.Bytes(hashSeed, key)) | 1
}

// installHook, when set, runs between the two stores that publish a new slot.
// TestHashLockFreeThroughGrowth sets it to yield the processor there, so that
// its readers meet the half-published slot the store order exists for.
var installHook func()

// htab is one immutable-size open-addressing table: a power-of-two slot
// array probed linearly, with each slot's tag in a parallel array, so a
// probe walks four-byte tags — sixteen to a cache line — and dereferences an
// entry only where the full tag matches. Slots are written only under the
// view's exclusive lock and read by lock-free readers through atomic loads.
// The table never deletes (views are insert-only), so an empty tag
// terminates every probe.
//
// Publication order: the writer stores a slot's pointer, then its tag; a
// reader loads the tag, then the pointer. A reader that sees a tag therefore
// sees a fully built entry behind it, and a slot only ever goes empty →
// entry → newer version of the same key (same tag), so a probe observes
// either an entry of the key or a consistent absence.
type htab struct {
	tags  []atomic.Uint32
	slots []atomic.Pointer[entry]
	shift uint8 // home slot of a tag = tag >> shift
}

func newHtab(logSize uint8) *htab {
	n := 1 << logSize
	return &htab{tags: make([]atomic.Uint32, n), slots: make([]atomic.Pointer[entry], n), shift: 32 - logSize}
}

// probe finds the published entry for key, or nil, and reports how many keys
// it compared (each one an entry dereference). Safe for concurrent lock-free
// readers.
func (t *htab) probe(tag uint32, key []byte) (e *entry, compares int) {
	mask := uint32(len(t.tags) - 1)
	for i := tag >> t.shift; ; i = (i + 1) & mask {
		switch t.tags[i].Load() {
		case 0:
			return nil, compares
		case tag:
			compares++
			if e := t.slots[i].Load(); e.key == string(key) { // compiler-optimized: no string alloc
				return e, compares
			}
		}
	}
}

// install publishes e: over old, the published version of the same key it
// was built from (found by tag and pointer, never by key), or, with old nil,
// as a new key into the first empty slot of its run — get missed the key
// and pending holds it once, so the run cannot contain it. No entry is
// dereferenced either way. Callers hold the view's exclusive lock and have
// sized the table below full (see hashStore.publish).
func (t *htab) install(e, old *entry) {
	tag := e.tag()
	mask := uint32(len(t.tags) - 1)
	for i := tag >> t.shift; ; i = (i + 1) & mask {
		switch t.tags[i].Load() {
		case 0:
			t.slots[i].Store(e)
			if installHook != nil {
				installHook()
			}
			t.tags[i].Store(tag)
			return
		case tag:
			if old != nil && t.slots[i].Load() == old {
				t.slots[i].Store(e)
				return
			}
		}
	}
}

// grown returns a table of 1<<logSize slots holding t's entries. A tag's
// home slot is its high bits, so slot order is tag order up to probe
// displacement and one sequential sweep of t fills the new table front to
// back: no key is hashed, no entry dereferenced. The new table is private
// until the caller publishes it.
func (t *htab) grown(logSize uint8) *htab {
	nt := newHtab(logSize)
	mask := uint32(len(nt.tags) - 1)
	for i := range t.tags {
		tag := t.tags[i].Load()
		if tag == 0 {
			continue
		}
		j := tag >> nt.shift
		for nt.tags[j].Load() != 0 {
			j = (j + 1) & mask
		}
		nt.slots[j].Store(t.slots[i].Load())
		nt.tags[j].Store(tag)
	}
	return nt
}

// pend is one entry an append call has created or versioned and not yet
// published: e is the mutable entry, old the published version it was built
// from (nil for a new key).
type pend struct {
	e, old *entry
}

// pslot is one slot of the pending index; it is empty unless gen is the
// store's current generation, so starting a new call resets every slot by
// bumping that.
type pslot struct {
	gen, idx uint32
}

// hashStore is the unordered group store with lock-free readers. Published
// state lives in an atomically swapped open-addressing table of frozen
// entries; maintenance accumulates an append call's mutations in pending
// (guarded by the view's exclusive lock) — new keys and versions of
// published entries, in arrival order — and installs them slot by slot at
// publish: one version and one install per touched entry per call, however
// many of the call's rows hit it. A point probe is atomic per entry; a scan
// validates its gather against seq (see collect).
//
// Versions come from the view's shells and go back to them when publish
// retires them, so nothing reachable is ever mutated in place and the warm
// maintenance path allocates nothing.
type hashStore struct {
	tab   atomic.Pointer[htab]
	count atomic.Int64  // published entries, for lock-free len
	seq   atomic.Uint64 // publish sequence: odd while an install pass runs
	lsn   atomic.Uint64 // LSN the published table has reached

	// Maintenance state, guarded by the owning view's mu.
	pending []pend  // this call's entries, in arrival order
	fresh   int     // how many of them are new keys, for the growth check
	index   []pslot // pending by tag, for a call's repeat touches of a key
	gen     uint32  // current generation of index; never 0
	used    int     // published slots, for the growth check
	sh      *shells // the view's, for versions

	// The fold's work in the store's own units: key hashes, table probes and
	// key comparisons (entry dereferences, in the table or in pending).
	// Guarded by the view's mu like the rest; readers' probes are not
	// counted.
	hashes, probes, compares int64
}

const minLogSize = 4

func newHashStore(sh *shells) *hashStore {
	h := &hashStore{gen: 1, sh: sh}
	h.tab.Store(newHtab(minLogSize))
	return h
}

// find returns the position in pending of the entry for key, or -1.
func (h *hashStore) find(tag uint32, key []byte) int {
	if len(h.index) == 0 {
		return -1
	}
	mask := uint32(len(h.index) - 1)
	for i := tag >> 1 & mask; ; i = (i + 1) & mask {
		s := h.index[i]
		if s.gen != h.gen {
			return -1
		}
		if e := h.pending[s.idx].e; e.tag() == tag {
			if h.compares++; e.key == string(key) {
				return int(s.idx)
			}
		}
	}
}

// add appends e to pending and indexes it, keeping the index at most half
// full.
func (h *hashStore) add(e, old *entry) {
	h.pending = append(h.pending, pend{e: e, old: old})
	if len(h.pending)*2 > len(h.index) {
		h.index = make([]pslot, max(16, 2*len(h.index)))
		h.gen = 1
		for i := range h.pending[:len(h.pending)-1] {
			h.indexAt(i)
		}
	}
	h.indexAt(len(h.pending) - 1)
}

func (h *hashStore) indexAt(idx int) {
	mask := uint32(len(h.index) - 1)
	i := h.pending[idx].e.tag() >> 1 & mask
	for h.index[i].gen == h.gen {
		i = (i + 1) & mask
	}
	h.index[i] = pslot{gen: h.gen, idx: uint32(idx)}
}

// get returns the mutable entry for key. A published entry is versioned into
// pending on first touch so readers of the current table never see a
// half-applied state; repeat touches before the next publish hit the
// version.
func (h *hashStore) get(key []byte) (*entry, uint32) {
	h.hashes++
	tag := tagOf(key)
	if i := h.find(tag, key); i >= 0 {
		return h.pending[i].e, tag
	}
	old, n := h.tab.Load().probe(tag, key)
	h.probes++
	h.compares += int64(n)
	if old == nil {
		return nil, tag
	}
	c := h.sh.version(old)
	c.stamp |= uint64(tag)
	h.add(c, old)
	return c, tag
}

func (h *hashStore) put(a *arena, key []byte, tag uint32, e *entry) {
	e.key = a.keyString(key)
	e.stamp |= uint64(tag)
	h.fresh++
	h.add(e, nil)
}

func (h *hashStore) len() int { return int(h.count.Load()) }

// publish installs the pending entries into the table (growing it first if
// the new keys would take it past 3/4 full) and stamps the table with the
// LSN it now reflects, all inside one odd-seq window; then it retires the
// versions the installs replaced, for the view to settle. Runs under the
// view's exclusive lock.
func (h *hashStore) publish(lsn uint64) {
	h.seq.Add(1)
	if len(h.pending) > 0 {
		t := h.tab.Load()
		if need := h.used + h.fresh; need*4 > len(t.slots)*3 {
			logSize := 32 - t.shift
			for need*4 > 3<<logSize {
				logSize++
			}
			t = t.grown(logSize)
			h.tab.Store(t)
		}
		for _, p := range h.pending {
			t.install(p.e, p.old)
		}
		h.used += h.fresh
		h.count.Add(int64(h.fresh))
	}
	h.lsn.Store(lsn)
	h.seq.Add(1)
	for _, p := range h.pending {
		if p.old != nil {
			h.sh.retire(p.old)
		}
	}
	h.resetPending()
}

// keepPending is the largest pending list whose buffers the store keeps
// whatever the calls look like. Larger ones are a bulk load's: they serve its
// next call, and go when a call that does not need them ends, or every view
// would hold room for its largest call ever.
const keepPending = 256

// resetPending empties pending and, by moving to the next generation, its
// index.
func (h *hashStore) resetPending() {
	h.fresh = 0
	if cap(h.pending) > keepPending && len(h.pending) <= keepPending {
		h.pending, h.index = nil, nil
		return
	}
	clear(h.pending)
	h.pending = h.pending[:0]
	if h.gen++; h.gen == 0 {
		clear(h.index)
		h.gen = 1
	}
}

// rget is the lock-free reader probe: published entries only, never the
// pending set. Callers count themselves in the view's readers across the
// call and any use of the entry.
func (h *hashStore) rget(key []byte) (*entry, bool) {
	e, _ := h.tab.Load().probe(tagOf(key), key)
	return e, e != nil
}

// adopt replaces the published state with another hash store's, in place,
// so concurrent lock-free readers never observe a dangling store pointer.
// Runs under the view's exclusive lock; o must be fully published.
func (h *hashStore) adopt(o *hashStore) {
	h.seq.Add(1)
	h.tab.Store(o.tab.Load())
	h.count.Store(o.count.Load())
	h.seq.Add(1)
	h.used = o.used
	h.resetPending()
}

// collect gathers the published entries, unordered, with the LSN the table
// carries. stable reports that no publication overlapped the gather, so
// the entries and the LSN belong to one publication; a caller that needs
// that retries, or excludes publication with the view's read lock. It reads
// the table once and only through atomic loads; read-path callers count
// themselves in the view's readers across it and their use of the entries.
func (h *hashStore) collect() (entries []*entry, lsn uint64, stable bool) {
	seq := h.seq.Load()
	t := h.tab.Load()
	entries = make([]*entry, 0, h.count.Load())
	for i := range t.slots {
		if e := t.slots[i].Load(); e != nil {
			entries = append(entries, e)
		}
	}
	lsn = h.lsn.Load()
	return entries, lsn, seq&1 == 0 && h.seq.Load() == seq
}

// ascend visits published entries in key order. Callers hold the view's
// lock (checkpoint, restore), so no publication can overlap the gather.
func (h *hashStore) ascend(fn func([]byte, *entry) bool) {
	entries, _, _ := h.collect()
	sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })
	for _, e := range entries {
		if !fn([]byte(e.key), e) {
			return
		}
	}
}

type treeStore struct {
	t *btree.Tree[[]byte, *entry]
}

func (t *treeStore) get(key []byte) (*entry, uint32) {
	e, _ := t.t.Get(key)
	return e, 0
}

func (t *treeStore) put(a *arena, key []byte, _ uint32, e *entry) {
	t.t.Set(a.keyBytes(key), e)
}

// replace overwrites the value under an existing key. The tree keeps the
// key bytes it stored at insert time (Set does not retain the probe key
// when the key is already present), so the caller's scratch buffer is
// safe to pass without copying.
func (t *treeStore) replace(key []byte, e *entry) {
	t.t.Set(key, e)
}

func (t *treeStore) len() int { return t.t.Len() }

func (t *treeStore) ascend(fn func([]byte, *entry) bool) {
	t.t.Ascend(fn)
}
