package view

import (
	"encoding/binary"
	"hash/maphash"
	"sync"
	"sync/atomic"
	"unsafe"

	"chronicledb/internal/algebra"
	"chronicledb/internal/chronicle"
	"chronicledb/internal/keyenc"
)

// Dir is a key directory: an append-only table from an encoded group key to
// a dense id, holding each key's bytes once for every view that shares it,
// and the order of those keys (see order). Views whose keys are read from the
// same columns of one chronicle, through any σ and Π (algebra.KeySource),
// encode the same keys — the paper's many summaries of one chronicle by one
// attribute — so the engine hands them one directory: a key is held once and
// ordered once when it is new, and each view keeps only an id-indexed array
// of its published entries (see store). Each member encodes its rows with its
// own key columns, which may sit at other positions of its expression's
// output than a sibling's; the members that fold one delta by the same
// columns resolve it once per call for all of them (see resolve).
//
// Readers are lock-free: a probe loads the table and each slot atomically,
// and a key is written before the slot that names it is published and before
// the order links it. Writers (a call's resolution, a block fault, a
// checkpoint restore) hold mu. Ids are never reused and keys never removed,
// so an id a reader found stays that key's.
type Dir struct {
	mu   sync.Mutex
	tab  atomic.Pointer[dtab]
	n    uint32       // ids handed out
	size atomic.Int64 // ids handed out, for lock-free readers of the count
	refs atomic.Int32 // views sharing the directory (engine-managed)
	name string

	// A key is kept once, in a chunk of key bytes behind its length
	// (uvarint); where is its chunk (high half) and offset (low half) by id.
	// Both are pointer-free. Chunks are written only past the keys already
	// cut from them, and the chunk list only past the length readers see.
	where  paged[uint64]
	chunks atomic.Pointer[[][]byte]
	used   int // bytes used of the last chunk
	kept   int // key bytes kept so far, which sizes the next chunk

	// The current round's resolutions, one for each table key folded in it,
	// shared by the members that fold it (see resolve), and the scratch that
	// builds them: groupOf is an open-addressing table of a resolution's ids,
	// each slot id+1 in the high half and its group in the low, empty between
	// resolutions.
	resolved []*resolved
	groupOf  []uint64
	keyBuf   []byte

	ord order

	// The writer's work: key hashes, table probes and key comparisons (each
	// an id's key read back). Guarded by mu; readers' probes are not counted.
	hashes, probes, compares int64
}

// resolved is a resolution and the fold it resolves: a round, the table key
// (Def.TableKey) of the member that paid for it, and its slice of the
// round's delta, named by its first row and length.
type resolved struct {
	call     uint64
	tableKey string
	first    *chronicle.Row
	nrows    int
	res      resolution
}

// resolution is one call's delta as a directory hands it to its members:
// the distinct ids in first-appearance order and, for each, its rows in SN
// order — the rows of ids[g] are order[ends[g-1]:ends[g]] (from 0 for g = 0).
type resolution struct {
	ids   []uint32
	ends  []int32
	order []int32
	group []int32 // scratch: each row's group
}

// rows returns the indices of the rows of group g.
func (r *resolution) rows(g int) []int32 {
	lo := int32(0)
	if g > 0 {
		lo = r.ends[g-1]
	}
	return r.order[lo:r.ends[g]]
}

// DirStats is a directory's writer work since it was made.
type DirStats struct {
	Hashes      int64 // keys hashed: one per delta row per resolution, one per restored entry
	Probes      int64 // table probes: one per hash
	KeyCompares int64 // keys read back after a tag match
	OrderVisits int64 // keys read to order the new ones: none for a key the directory held
}

// NewDir returns an empty directory. name labels it in EXPLAIN and SHOW
// VIEWS.
func NewDir(name string) *Dir {
	d := &Dir{name: name}
	d.tab.Store(newDtab(minLogSize))
	return d
}

// Name returns the directory's label.
func (d *Dir) Name() string { return d.name }

// Acquire counts one more view sharing d.
func (d *Dir) Acquire() { d.refs.Add(1) }

// Release counts one view fewer and returns how many remain.
func (d *Dir) Release() int { return int(d.refs.Add(-1)) }

// Members returns how many views share d.
func (d *Dir) Members() int { return int(d.refs.Load()) }

// Len returns how many keys d holds.
func (d *Dir) Len() int { return int(d.size.Load()) }

// Stats returns the directory's counts.
func (d *Dir) Stats() DirStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return DirStats{Hashes: d.hashes, Probes: d.probes, KeyCompares: d.compares, OrderVisits: d.ord.visits}
}

// hashSeed is the process-wide seed of the key directories.
var hashSeed = maphash.MakeSeed()

// tagOf hashes a key to its 32-bit tag — the one hash a row costs a
// directory. The tag is everything the table knows of a key without reading
// the key back: its high bits are the key's home slot at any table size and
// the whole of it is compared before a key is. A slot is zero only when
// empty, so the low bit (never part of a home slot: tables stay far below
// 2³¹ slots) is forced on.
func tagOf(key []byte) uint32 {
	return uint32(maphash.Bytes(hashSeed, key)) | 1
}

// installHook, when set, runs between a new key's write and the store of the
// slot that publishes it. TestHashLockFreeThroughGrowth sets it to yield the
// processor there, so that its readers meet keys in flight.
var installHook func()

// dtab is one immutable-size open-addressing table: a power-of-two array of
// slots probed linearly, each the key's tag in the high half and its id in
// the low half, so a probe walks eight slots to a cache line and reads a key
// back only where the full tag matches. A slot is written once, from empty,
// under the directory's lock, with one atomic store; lock-free readers load
// it atomically. The table never deletes, so an empty slot ends every probe.
type dtab struct {
	slots []atomic.Uint64
	shift uint8 // home slot of a tag = tag >> shift
}

const minLogSize = 4

func newDtab(logSize uint8) *dtab {
	return &dtab{slots: make([]atomic.Uint64, 1<<logSize), shift: 32 - logSize}
}

// probe finds key's id, or the slot where it would go, and reports how many
// keys it read back. Safe for concurrent lock-free readers.
func (t *dtab) probe(d *Dir, tag uint32, key []byte) (id uint32, at int, found bool, compares int) {
	mask := len(t.slots) - 1
	for i := int(tag >> t.shift); ; i = (i + 1) & mask {
		s := t.slots[i].Load()
		if s == 0 {
			return 0, i, false, compares
		}
		if uint32(s>>32) == tag {
			compares++
			if id := uint32(s); d.key(id) == string(key) { // compiler-optimized: no string alloc
				return id, i, true, compares
			}
		}
	}
}

// grown returns a table of 1<<logSize slots holding t's. A tag's home slot
// is its high bits, so slot order is tag order up to probe displacement and
// one sequential sweep of t fills the new table front to back: no key is
// hashed or read. The new table is private until the caller publishes it.
func (t *dtab) grown(logSize uint8) *dtab {
	nt := newDtab(logSize)
	mask := len(nt.slots) - 1
	for i := range t.slots {
		s := t.slots[i].Load()
		if s == 0 {
			continue
		}
		j := int(uint32(s>>32) >> nt.shift)
		for nt.slots[j].Load() != 0 {
			j = (j + 1) & mask
		}
		nt.slots[j].Store(s)
	}
	return nt
}

// lookup is the lock-free reader probe: the id of key, if d holds it.
func (d *Dir) lookup(key []byte) (uint32, bool) {
	id, _, ok, _ := d.tab.Load().probe(d, tagOf(key), key)
	return id, ok
}

// key returns the key of id, which a reader found in d or in a view's
// published entries.
func (d *Dir) key(id uint32) string {
	w := *d.where.at(id)
	c := (*d.chunks.Load())[w>>32][uint32(w):]
	n, sz := binary.Uvarint(c)
	return unsafe.String(unsafe.SliceData(c[sz:sz+int(n)]), n)
}

// intern returns key's id, adding the key if d does not hold it: one hash
// and one table probe, and for a new key its place in the order. Callers
// hold mu.
func (d *Dir) intern(key []byte) uint32 {
	d.hashes++
	d.probes++
	tag := tagOf(key)
	t := d.tab.Load()
	if need := int(d.n) + 1; need*4 > len(t.slots)*3 {
		// Grow before probing, so the probe's empty slot is where the key
		// goes if it is new.
		logSize := 32 - t.shift
		for need*4 > 3<<logSize {
			logSize++
		}
		t = t.grown(logSize)
		d.tab.Store(t)
	}
	id, at, found, n := t.probe(d, tag, key)
	d.compares += int64(n)
	if found {
		return id
	}
	id = d.n
	*d.where.slot(id) = d.keep(key)
	if installHook != nil {
		installHook()
	}
	t.slots[at].Store(uint64(tag)<<32 | uint64(id))
	d.n++
	d.size.Store(int64(d.n))
	d.insert(id)
	return id
}

// keep copies key, behind its length, into the current chunk and returns
// where it is. A key is written once, before the slot naming its id is
// published, and never again: a reader sees a string over its bytes.
func (d *Dir) keep(key []byte) uint64 {
	need := len(key) + 1
	for n := len(key); n >= 0x80; n >>= 7 {
		need++
	}
	var chunks [][]byte
	if cur := d.chunks.Load(); cur != nil {
		chunks = *cur
	}
	if len(chunks) == 0 || len(chunks[len(chunks)-1])-d.used < need {
		// Appending past the length readers see writes nothing they read.
		chunks = append(chunks, make([]byte, max(need, min(maxChunkBytes, max(256, d.kept)))))
		d.chunks.Store(&chunks)
		d.used = 0
	}
	c := chunks[len(chunks)-1]
	w := uint64(len(chunks)-1)<<32 | uint64(d.used)
	d.used += binary.PutUvarint(c[d.used:], uint64(len(key)))
	d.used += copy(c[d.used:], key)
	d.kept += len(key)
	return w
}

// resolve hands member m the resolution of rows, one fold's delta: each
// row's key encoded with m's key columns, hashed and looked up (added when
// new) once, the rows grouped by id. call names the maintenance round, whose
// rows stay put until it ends, so a round's slice of one delta is named by
// its first row and length, and the delta by m's table key: the members of d
// folding the same slice of the same delta by the same columns in one round —
// every view of a table key its whole delta, a periodic family's instances a
// run of it (calendar.PeriodicView.Fold) — get the resolution the first of
// them paid for, in whatever order the round folds its members. A member of
// another table key folds another delta, or the same one by other columns,
// and resolves its own, wherever its rows sit. Zero never matches — a fold
// outside the engine's rounds resolves its own rows. Callers hold mu; the
// resolution is valid until the next resolve for m's table key.
func (d *Dir) resolve(call uint64, m *View, rows []chronicle.Row) *resolution {
	var first *chronicle.Row
	if len(rows) > 0 {
		first = &rows[0]
	}
	rs := d.resolvedFor(call, m.tableKey)
	if call != 0 && call == rs.call && first == rs.first && len(rows) == rs.nrows {
		return &rs.res
	}
	rs.call, rs.tableKey, rs.first, rs.nrows = call, m.tableKey, first, len(rows)
	r := &rs.res
	r.ids, r.ends = algebra.Reuse(r.ids, len(rows)), algebra.Reuse(r.ends, len(rows))
	r.group = grow(r.group, len(rows))
	// The call's ids, at most half the table: a row's id finds its group.
	bits := bitsFor(2 * len(rows))
	d.groupOf = grow(d.groupOf, 1<<bits)
	tab, mask := d.groupOf, uint32(1<<bits-1)
	for i := range rows {
		d.keyBuf = keyenc.AppendCols(d.keyBuf[:0], rows[i].Vals, m.keyCols)
		id := d.intern(d.keyBuf)
		j := id * 0x9E3779B1 >> (32 - bits) & mask
		for tab[j] != 0 && uint32(tab[j]>>32) != id+1 {
			j = (j + 1) & mask
		}
		if tab[j] == 0 {
			r.ids = append(r.ids, id)
			r.ends = append(r.ends, 0)
			tab[j] = uint64(id+1)<<32 | uint64(len(r.ids)-1)
		}
		g := int32(uint32(tab[j]))
		r.group[i] = g
		r.ends[g]++
	}
	clear(tab)
	// Counts to starts, scatter the rows in SN order, and the starts have
	// become ends.
	at := int32(0)
	for g, n := range r.ends {
		r.ends[g] = at
		at += n
	}
	r.order = grow(r.order, len(rows))
	for i, g := range r.group {
		r.order[r.ends[g]] = int32(i)
		r.ends[g]++
	}
	return r
}

// resolvedFor returns the resolution kept for tableKey, else one no fold of
// this round holds — of an earlier round, or new. A directory keeps as many
// as the most table keys one round has folded.
func (d *Dir) resolvedFor(call uint64, tableKey string) *resolved {
	var spare *resolved
	for _, rs := range d.resolved {
		if rs.tableKey == tableKey {
			return rs
		}
		if rs.call != call || call == 0 {
			spare = rs
		}
	}
	if spare == nil {
		spare = &resolved{}
		d.resolved = append(d.resolved, spare)
	}
	return spare
}

// grow returns s resized to n, reusing its array when algebra.Reuse keeps it
// and it holds n. What it reuses is zero only where the caller cleared it.
func grow[T any](s []T, n int) []T {
	if s = algebra.Reuse(s, n); cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// pageLen is how many elements one page of a paged array holds.
const pageLen = 128

// paged is an append-only array addressed by id, in fixed pages allocated
// on first write, so that ids nobody stored cost one nil pointer a page and
// growth never copies an element. The page list is replaced whole when it
// grows; an element is written by one writer, and a lock-free reader reaches
// it only through a publication that followed the write.
type paged[T any] struct {
	pages atomic.Pointer[[]*[pageLen]T]
}

// at returns the element of id, or nil if its page was never written.
func (p *paged[T]) at(id uint32) *T {
	pages := p.pages.Load()
	if pages == nil || int(id/pageLen) >= len(*pages) {
		return nil
	}
	pg := (*pages)[id/pageLen]
	if pg == nil {
		return nil
	}
	return &pg[id%pageLen]
}

// slot returns the element of id for writing, allocating its page. Writers
// are serialized by the caller.
func (p *paged[T]) slot(id uint32) *T {
	i := int(id / pageLen)
	cur := p.pages.Load()
	if cur != nil && i < len(*cur) && (*cur)[i] != nil {
		return &(*cur)[i][id%pageLen]
	}
	var pages []*[pageLen]T
	if cur != nil {
		pages = *cur
	}
	if i >= len(pages) {
		// Appending past the length readers see writes no element they
		// read, so the array may be shared with the published list.
		pages = append(pages, make([]*[pageLen]T, i+1-len(pages))...)
	} else {
		pages = append([]*[pageLen]T(nil), pages...)
	}
	pages[i] = new([pageLen]T)
	p.pages.Store(&pages)
	return &pages[i][id%pageLen]
}

// each visits the elements of every written page with their ids.
func (p *paged[T]) each(fn func(id uint32, e *T)) {
	pages := p.pages.Load()
	if pages == nil {
		return
	}
	for i, pg := range *pages {
		if pg == nil {
			continue
		}
		for j := range pg {
			fn(uint32(i*pageLen+j), &pg[j])
		}
	}
}
