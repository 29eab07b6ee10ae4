package view

import (
	"bytes"
	"hash/maphash"
	"sort"
	"sync/atomic"

	"chronicledb/internal/aggregate"
	"chronicledb/internal/btree"
	"chronicledb/internal/value"
)

// entry is one materialized view row: the group values (or projected
// tuple), the per-group aggregation states, and a contribution count used
// for refcounted duplicate elimination in projection views.
//
// epoch stamps the publication epoch the entry was created (or last
// copied) in. B-tree stores publish an immutable snapshot at the end of
// every append call; an entry whose epoch predates the view's current
// write epoch is reachable from a published snapshot and must be cloned
// before mutation so lock-free readers never observe a partial update.
//
// key holds the encoded group key for hash-store entries, which double as
// the table slots of the lock-free hash index (the B-tree store keys its
// nodes instead and leaves key empty). A published hash entry is frozen
// exactly like a snapshot-reachable tree entry: maintenance mutates a
// pending clone and re-installs it atomically at publish.
type entry struct {
	vals   value.Tuple
	states []aggregate.State
	count  int64
	epoch  uint64
	key    string
}

// clone returns a mutable copy of the entry stamped with the given epoch.
// vals is shared: it is assigned once at entry creation and never mutated
// in place, so snapshot readers and the live store can alias it safely.
func (e *entry) clone(epoch uint64) *entry {
	c := &entry{vals: e.vals, count: e.count, epoch: epoch, key: e.key}
	if e.states != nil {
		c.states = aggregate.CloneStates(e.states)
	}
	return c
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
// reuses one buffer per view), set copies the key before retaining it.
//
// get/set/replace are maintenance-side and run under the view's exclusive
// lock; the hash store's get returns a pending mutable clone so published
// entries stay frozen for its lock-free readers.
type store interface {
	get(key []byte) (*entry, bool)
	set(key []byte, e *entry)
	// replace re-points an existing key at a new entry without copying the
	// key (the COW path swaps entries on every first touch per epoch). The
	// key must already be present.
	replace(key []byte, e *entry)
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

// hashSeed is the process-wide seed of the hash view index. maphash.Bytes
// and maphash.String agree on identical content, so byte-slice probes and
// string installs land in the same slot run.
var hashSeed = maphash.MakeSeed()

// htab is one immutable-size open-addressing table: a power-of-two slot
// array probed linearly. Slots hold published entries directly (the entry
// carries its own key), are written only under the view's exclusive lock,
// and are read by lock-free readers through atomic loads. The table never
// deletes (views are insert-only), so a nil slot terminates every probe.
type htab struct {
	slots []atomic.Pointer[entry]
	mask  uint64
}

func newHtab(n uint64) *htab {
	return &htab{slots: make([]atomic.Pointer[entry], n), mask: n - 1}
}

// probe finds the published entry for key, or nil. Safe for concurrent
// lock-free readers: slots only transition nil→entry or entry→newer entry
// for the same key, so a probe observes either the entry or a consistent
// absence.
func (t *htab) probe(key []byte) *entry {
	h := maphash.Bytes(hashSeed, key)
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		e := t.slots[i].Load()
		if e == nil {
			return nil
		}
		if e.key == string(key) { // compiler-optimized: no string alloc
			return e
		}
	}
}

// install publishes e under its key: into an empty slot (insert) or over
// the previous version of the same key (replace, returning the retired
// entry). Callers must hold the view's exclusive lock and must have sized
// the table below full (see hashStore.publish).
func (t *htab) install(e *entry) (old *entry, inserted bool) {
	h := maphash.String(hashSeed, e.key)
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		cur := t.slots[i].Load()
		if cur == nil {
			t.slots[i].Store(e)
			return nil, true
		}
		if cur.key == e.key {
			t.slots[i].Store(e)
			return cur, false
		}
	}
}

// hashStore is the unordered group store with lock-free readers. Published
// state lives in an atomically swapped open-addressing table of frozen
// entries; maintenance accumulates an append call's mutations as clones in
// pending (guarded by the view's exclusive lock) and installs them
// slot-by-slot at publish — one clone and one install per touched entry
// per call, however many of the call's rows hit it. A point probe is
// atomic per entry; a scan validates its gather against seq (see collect).
// Readers announce themselves through the readers counter so the
// store only recycles a retired entry version into the freelist when no
// reader could still hold it — which keeps the warm maintenance path
// allocation-free without ever mutating a reachable entry in place.
type hashStore struct {
	tab     atomic.Pointer[htab]
	count   atomic.Int64  // published entries, for lock-free len
	readers atomic.Int64  // in-flight lock-free readers
	seq     atomic.Uint64 // publish sequence: odd while an install pass runs
	lsn     atomic.Uint64 // LSN the published table has reached

	// Maintenance state, guarded by the owning view's mu.
	pending map[string]*entry // unpublished mutable clones and inserts
	free    []*entry          // recycled entry shells for mutableClone
	retired []*entry          // versions replaced at this publish, pending recycle
	used    int               // published slots, for the growth check
}

func newHashStore() *hashStore {
	h := &hashStore{pending: make(map[string]*entry)}
	h.tab.Store(newHtab(16))
	return h
}

// mutableClone returns a private copy of a published entry, reusing
// a freelist shell when one fits (an in-place struct copy of every state —
// the allocation-free warm path).
func (h *hashStore) mutableClone(src *entry) *entry {
	if n := len(h.free); n > 0 {
		c := h.free[n-1]
		h.free[n-1] = nil
		h.free = h.free[:n-1]
		if len(c.states) == len(src.states) && aggregate.CopyStates(c.states, src.states) {
			c.vals, c.count, c.key, c.epoch = src.vals, src.count, src.key, 0
			return c
		}
	}
	c := &entry{vals: src.vals, count: src.count, key: src.key}
	if src.states != nil {
		c.states = aggregate.CloneStates(src.states)
	}
	return c
}

// get returns the mutable entry for key. A published entry is cloned into
// pending on first touch so readers of the current table never see a
// half-applied state; repeat touches before the next publish hit the clone.
func (h *hashStore) get(key []byte) (*entry, bool) {
	if e, ok := h.pending[string(key)]; ok {
		return e, true
	}
	e := h.tab.Load().probe(key)
	if e == nil {
		return nil, false
	}
	c := h.mutableClone(e)
	h.pending[c.key] = c
	return c, true
}

func (h *hashStore) set(key []byte, e *entry) {
	k := string(key)
	e.key = k
	h.pending[k] = e
}

func (h *hashStore) replace(key []byte, e *entry) { h.set(key, e) }

func (h *hashStore) len() int { return int(h.count.Load()) }

// publish installs the pending entries into the table (growing it first if
// the insert load would cross 3/4 full) and stamps the table with the LSN it
// now reflects, all inside one odd-seq window, then recycles retired entry
// versions when no lock-free reader is in flight. Runs under the view's
// exclusive lock.
func (h *hashStore) publish(lsn uint64) {
	h.seq.Add(1)
	if len(h.pending) > 0 {
		t := h.tab.Load()
		if (h.used+len(h.pending))*4 > len(t.slots)*3 {
			n := uint64(len(t.slots))
			for int(n)*3 <= (h.used+len(h.pending))*4 {
				n <<= 1
			}
			nt := newHtab(n)
			for i := range t.slots {
				if e := t.slots[i].Load(); e != nil {
					nt.install(e)
				}
			}
			h.tab.Store(nt)
			t = nt
		}
		for _, e := range h.pending {
			old, inserted := t.install(e)
			if inserted {
				h.used++
				h.count.Add(1)
			} else if old != nil {
				h.retired = append(h.retired, old)
			}
		}
		clear(h.pending)
	}
	h.lsn.Store(lsn)
	h.seq.Add(1)
	if len(h.retired) > 0 {
		// A reader counted here may hold pointers into the previous table
		// or the retired versions; dropping them to the GC is always safe,
		// recycling is only safe when nobody is reading.
		if h.readers.Load() == 0 {
			h.free = append(h.free, h.retired...)
		}
		for i := range h.retired {
			h.retired[i] = nil
		}
		h.retired = h.retired[:0]
	}
}

// rget is the lock-free reader probe: published entries only, never the
// pending set. Callers bracket the call (through any derived
// entry use) with readers.Add(1) / Add(-1).
func (h *hashStore) rget(key []byte) (*entry, bool) {
	e := h.tab.Load().probe(key)
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
	clear(h.pending)
	h.free = h.free[:0]
	h.retired = h.retired[:0]
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

func (t *treeStore) get(key []byte) (*entry, bool) { return t.t.Get(key) }

func (t *treeStore) set(key []byte, e *entry) {
	t.t.Set(append([]byte(nil), key...), e)
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
