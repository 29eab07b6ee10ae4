package view

import (
	"bytes"
	"hash/maphash"
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
// group by building a new version of its entry (newEntry with src set) and
// swapping that in. key is written once, when the group is created, and
// shared by every version.
//
// stamp belongs to the store. The ordered store keeps the write epoch the
// entry was created (or last copied) in: it publishes an immutable snapshot
// at the end of every append call, and an entry whose epoch predates the
// view's current write epoch is reachable from a published snapshot and must
// be copied before mutation. The hash store keeps the key's hash tag in the
// low half — computed once when a row first meets the key, carried through
// pending and install — and carvedBit above it.
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

// carvedBit marks a hash-store entry whose shell (the entry and its states)
// was carved from an arena chunk: the collector cannot take it back alone,
// so the store must never let go of it (see hashStore.publish).
const carvedBit = 1 << 32

func (e *entry) tag() uint32 { return uint32(e.stamp) }

// newEntry is the one place view entries are built: the fold's new groups,
// decoded blocks and checkpoints, and every copy-on-write version.
//
// With src nil it builds a new group with one fresh state per spec, carved
// from a. Only what lives as long as the group is carved under gcShell: the
// ordered store replaces a shell on the group's first touch in each epoch
// and cannot know when the last snapshot reader lets go of the old one, so
// its shells stay with the collector.
//
// With src set it builds the next version of src, sharing key and copying
// count and states. Versions are always the collector's — the hash store
// recycles them itself while it can (see mutableClone) and needs to be able
// to drop them when it cannot.
func newEntry(a *arena, gcShell bool, aggs []aggregate.Spec, src *entry) *entry {
	shell := a
	if gcShell || src != nil {
		shell = nil
	}
	e := shell.entry()
	if src != nil {
		e.count, e.key = src.count, src.key
		e.states = shell.stateVec(len(src.states))
		copy(e.states, src.states)
		return e
	}
	e.states = shell.stateVec(len(aggs))
	aggregate.InitStates(e.states, aggs)
	if shell != nil {
		e.stamp = carvedBit
	}
	return e
}

// StoreKind selects the view's group store. The paper's Theorem 4.4 bound,
// O(t·log|V|), corresponds to the ordered B-tree store; the hash store is
// the "modulo index look ups" fast path with O(t) expected time. E10
// measures the difference.
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
// entries stay frozen for its lock-free readers.
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

func newStore(kind StoreKind) store {
	if kind == StoreBTree {
		return &treeStore{t: btree.New[[]byte, *entry](func(a, b []byte) bool { return bytes.Compare(a, b) < 0 })}
	}
	return newHashStore()
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
	noteHash()
	return uint32(maphash.Bytes(hashSeed, key)) | 1
}

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

// probe finds the published entry for key, or nil. Safe for concurrent
// lock-free readers.
func (t *htab) probe(tag uint32, key []byte) *entry {
	noteProbe()
	mask := uint32(len(t.tags) - 1)
	for i := tag >> t.shift; ; i = (i + 1) & mask {
		switch t.tags[i].Load() {
		case 0:
			return nil
		case tag:
			noteKeyCompare()
			if e := t.slots[i].Load(); e.key == string(key) { // compiler-optimized: no string alloc
				return e
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
			installGap()
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
// Readers announce themselves through the readers counter, and the store
// reuses a retired version's shell only after a publish that found no reader
// in flight: nothing reachable is ever mutated in place, and the warm
// maintenance path allocates nothing.
type hashStore struct {
	tab     atomic.Pointer[htab]
	count   atomic.Int64  // published entries, for lock-free len
	readers atomic.Int64  // in-flight lock-free readers
	seq     atomic.Uint64 // publish sequence: odd while an install pass runs
	lsn     atomic.Uint64 // LSN the published table has reached

	// Maintenance state, guarded by the owning view's mu.
	pending []pend   // this call's entries, in arrival order
	fresh   int      // how many of them are new keys, for the growth check
	index   []pslot  // pending by tag, for a call's repeat touches of a key
	gen     uint32   // current generation of index; never 0
	free    []*entry // shells no reader can hold, for mutableClone
	limbo   []*entry // carved shells retired under a reader, awaiting a reader-free publish
	used    int      // published slots, for the growth check
}

const minLogSize = 4

func newHashStore() *hashStore {
	h := &hashStore{gen: 1}
	h.tab.Store(newHtab(minLogSize))
	return h
}

// mutableClone returns a private version of a published entry, reusing a
// freelist shell when there is one (an in-place copy of every state — the
// allocation-free warm path).
func (h *hashStore) mutableClone(src *entry) *entry {
	n := len(h.free)
	if n == 0 {
		return newEntry(nil, false, nil, src)
	}
	c := h.free[n-1]
	h.free[n-1] = nil
	h.free = h.free[:n-1]
	c.count, c.key = src.count, src.key
	copy(c.states, src.states)
	return c
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
		if e := h.pending[s.idx].e; e.tag() == tag && e.key == string(key) {
			return int(s.idx)
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
	tag := tagOf(key)
	if i := h.find(tag, key); i >= 0 {
		return h.pending[i].e, tag
	}
	old := h.tab.Load().probe(tag, key)
	if old == nil {
		return nil, tag
	}
	c := h.mutableClone(old)
	c.stamp = c.stamp&carvedBit | uint64(tag)
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
// LSN it now reflects, all inside one odd-seq window; then it settles the
// versions the installs retired. Runs under the view's exclusive lock.
//
// A reader counted when the installs are done may hold a retired version, or
// a pointer into the previous table; one that arrives later can reach
// neither. So with no reader counted, every retired shell — this publish's
// and those waiting in limbo — is free for reuse. With one counted, none is:
// a carved shell waits in limbo for the next reader-free publish (dropped, a
// piece of a chunk is never collected), a collector-owned one is dropped, so
// that a reader that never leaves costs the collector work, not the store
// memory.
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

	quiet := h.readers.Load() == 0
	if quiet {
		h.free = append(h.free, h.limbo...)
		clear(h.limbo)
		h.limbo = h.limbo[:0]
	}
	for _, p := range h.pending {
		switch {
		case p.old == nil:
		case quiet:
			h.free = append(h.free, p.old)
		case p.old.stamp&carvedBit != 0:
			h.limbo = append(h.limbo, p.old)
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
// pending set. Callers bracket the call (through any derived
// entry use) with readers.Add(1) / Add(-1).
func (h *hashStore) rget(key []byte) (*entry, bool) {
	e := h.tab.Load().probe(tagOf(key), key)
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
	// The shells belong to the arena the replaced entries were carved from,
	// which goes with them.
	h.free, h.limbo = nil, nil
}

// collect gathers the published entries, unordered, with the LSN the table
// carries. stable reports that no publication overlapped the gather, so
// the entries and the LSN belong to one publication; a caller that needs
// that retries, or excludes publication with the view's read lock. It reads
// the table once and only through atomic loads; read-path callers bracket
// it (and their use of the entries) with the readers counter.
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
