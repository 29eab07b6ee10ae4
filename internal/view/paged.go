package view

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"chronicledb/internal/keyenc"
	"chronicledb/internal/value"
)

// The pager turns a view's store into a blocked persistent store: the key
// space is partitioned into fixed-target-size blocks bounded by
// memcomparable separator keys, each block independently dirty-tracked,
// checkpointed, evicted, and faulted back in. A block is a key range of the
// directory's order; the store's array holds the entries of resident blocks
// only, and a read that may reach a cold block plans which blocks it needs,
// faults exactly those from the checkpoint chain, and reads them under the
// view's lock (pagedLookup, pagedScan). Keys are not paged: once a block
// has been faulted its keys stay in the directory, shared with the
// directory's other views, and eviction drops the view's entries only.
//
// Invariants (all block state transitions happen under the view's mu):
//
//   - resident ⇒ published: a fault stores the block's entries into the
//     store's array before it lowers nonResident, and an eviction raises
//     nonResident before it clears them, each inside one odd-seq window, so a
//     reader that misses an entry while nonResident is 0 and seq did not move
//     may conclude the key does not exist.
//   - dirty ⇒ resident: a write faults the covering block first, so a
//     dirty block's entries are always in memory and a checkpoint can
//     re-encode it.
//   - evictable ⇒ clean with a durable ref: eviction only drops entries
//     that the checkpoint chain can reproduce byte-for-byte.
//   - blocks[0].lo == nil (-∞); blocks ascend strictly by lo, so every
//     key maps to exactly one block (the greatest lo ≤ key).

// blockMeta is the in-memory descriptor of one block.
type blockMeta struct {
	lo        []byte // inclusive lower bound; nil on the first block = -∞
	n         int    // logical entries attributed to the block
	bytes     int64  // encoded size: exact after a checkpoint, estimated between
	resident  bool   // entries present in the store
	dirtyMark uint64 // pager clock at last write into the block
	ckptMark  uint64 // pager clock at last durably committed encode
	ref       *BlockRef
	hot       atomic.Bool // CLOCK reference bit: set by writes and by point, range and limit reads, not by a scan of the whole view
}

// dirty reports whether the block changed since its last committed
// checkpoint image (a block with no durable image at all is dirty).
func (b *blockMeta) dirty() bool { return b.ref == nil || b.dirtyMark > b.ckptMark }

// pager is the per-view paging state. blocks, total and every blockMeta
// field except hot are guarded by the owning view's mu; index, nonResident
// and published are atomics so the read paths can consult them without
// locks.
type pager struct {
	blockBytes int64
	fetch      FetchFunc
	cache      *Cache
	blocks     []*blockMeta
	// index is blocks as last installed, for lock-free readers: the slice is
	// never written after it is stored, and a block's lower bound never
	// changes, which is all the lock-free hit path wants of it — the
	// covering block's reference bit.
	index       atomic.Pointer[[]*blockMeta]
	mark        uint64 // monotonic write clock feeding dirtyMark/ckptMark
	nonResident atomic.Int64
	total       int64        // logical entries across all blocks, live
	published   atomic.Int64 // total as of the last publication (View.Len)
}

// setBlocks installs a new block list. Caller holds the view's mu.
func (p *pager) setBlocks(blocks []*blockMeta) {
	p.blocks = blocks
	p.index.Store(&blocks)
}

// touch tells the CLOCK that the block covering key was read. Lock-free.
func (p *pager) touch(key []byte) {
	blocks := *p.index.Load()
	// Load before store: a hot block's bit is already set, and the common
	// hit must not bounce its cache line between readers.
	if b := blocks[blockIndex(blocks, bytesString(key))]; !b.hot.Load() {
		b.hot.Store(true)
	}
}

// blockFor returns the index of the block covering key.
func (p *pager) blockFor(key string) int { return blockIndex(p.blocks, key) }

// blockIndex returns the index of the block of a block list that covers key:
// the greatest blocks[i].lo ≤ key. Hand-written binary search — the write
// hot path calls this per group and must not allocate a closure.
func blockIndex(blocks []*blockMeta, key string) int {
	i, j := 1, len(blocks)
	for i < j {
		m := int(uint(i+j) >> 1)
		if string(blocks[m].lo) <= key {
			i = m + 1
		} else {
			j = m
		}
	}
	return i - 1
}

// bounds returns the key range of block i: its lo and the next block's, nil
// for +∞.
func (p *pager) bounds(i int) (lo, hi []byte) {
	if i+1 < len(p.blocks) {
		hi = p.blocks[i+1].lo
	}
	return p.blocks[i].lo, hi
}

// estEntryBytes is the insert-time estimate of the encoded size of the entry
// stored under key; each checkpoint replaces estimates with exact encoded
// sizes.
func (v *View) estEntryBytes(key string) int64 {
	return int64(len(key) + 8 + 10*len(v.sh.l.Specs()))
}

// EnablePaging makes the view a blocked persistent store with the given
// target block size (≤0 selects DefaultBlockBytes), block fetcher, and
// shared cache. Must be called before the view is visible to concurrent
// readers (the engine calls it at CreateView, before backfill); no-op for
// views already paged.
func (v *View) EnablePaging(blockBytes int64, fetch FetchFunc, cache *Cache) {
	if fetch == nil || cache == nil {
		return
	}
	if blockBytes <= 0 {
		blockBytes = DefaultBlockBytes
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.pg.Load() != nil {
		return
	}
	if !v.alone() {
		panic(fmt.Sprintf("view %s: paging a shared table", v.def.Name))
	}
	p := &pager{blockBytes: blockBytes, fetch: fetch, cache: cache}
	p.setBlocks([]*blockMeta{v.wholeBlock(p)})
	cache.addResident(v, p.blocks[0])
	v.pg.Store(p)
}

// wholeBlock returns one resident dirty block spanning the key space and
// holding the store's entries, for a view that starts paging. Caller holds
// v.mu.
func (v *View) wholeBlock(p *pager) *blockMeta {
	b := &blockMeta{resident: true}
	v.store.each(nil, nil, func(id uint32, e *entry) bool {
		b.n++
		b.bytes += v.estEntryBytes(v.store.dir.key(id))
		return true
	})
	p.mark++
	b.dirtyMark = p.mark
	b.hot.Store(true)
	p.nonResident.Store(0)
	p.total = int64(b.n)
	p.published.Store(p.total)
	return b
}

// Paged reports whether the view runs on a blocked persistent store.
func (v *View) Paged() bool { return v.pg.Load() != nil }

// ReleasePaging detaches the view from its cache (DropView).
func (v *View) ReleasePaging() {
	v.mu.Lock()
	if p := v.pg.Load(); p != nil {
		p.cache.dropView(v)
		v.pg.Store(nil)
	}
	v.mu.Unlock()
}

// ensureWrite faults in the block covering key (writes require residency
// so checkpoint can re-encode from memory) and stamps it dirty and hot.
// Caller holds v.mu and the directory's lock.
func (v *View) ensureWrite(p *pager, key string) *blockMeta {
	b := p.blocks[p.blockFor(key)]
	if !b.resident {
		v.faultInLocked(p, true, b)
	}
	p.mark++
	b.dirtyMark = p.mark
	b.hot.Store(true)
	return b
}

// noteInsert attributes the fresh entry under key to its covering block.
// Caller holds v.mu.
func (v *View) noteInsert(p *pager, b *blockMeta, key string) {
	est := v.estEntryBytes(key)
	b.n++
	b.bytes += est
	p.total++
	p.cache.grow(est)
}

// faultIn loads cold blocks from the checkpoint chain into the store, with
// the reference bit hot. Caller holds v.mu, not the directory's lock.
func (v *View) faultIn(p *pager, hot bool, cold ...*blockMeta) {
	d := v.store.dir
	d.mu.Lock()
	v.faultInLocked(p, hot, cold...)
	d.mu.Unlock()
}

// faultInLocked is faultIn for a caller that holds the directory's lock too.
// A cold block is clean — a write faults its block first — so its durable
// image is its content before and after any call in progress: its entries
// go straight into the published array, inside one odd-seq window, under
// the LSN the last publication carried, and an open call's pending versions
// stay apart.
func (v *View) faultInLocked(p *pager, hot bool, cold ...*blockMeta) {
	h := v.store
	h.seq.Add(1)
	for _, b := range cold {
		v.pageIn(p, b)
		b.hot.Store(hot)
	}
	h.seq.Add(1)
	// After the entries: a reader that sees the lowered count also sees them.
	p.nonResident.Add(-int64(len(cold)))
}

// pageIn loads one block from the checkpoint chain into the store, interning
// its keys. Caller holds v.mu and the directory's lock. A failure here
// panics: the manifest invariant keeps every referenced chain file on disk
// until a newer image replaces it, so a failed fetch means the store is gone
// or corrupted underneath us — and on the write path the WAL record was
// already durable before ApplyRows, so there is no caller that could
// meaningfully continue.
func (v *View) pageIn(p *pager, b *blockMeta) {
	data, err := p.fetch(*b.ref)
	if err != nil {
		panic(fmt.Sprintf("view %s: block fault %s@%d+%d: %v",
			v.def.Name, b.ref.File, b.ref.Off, b.ref.Len, err))
	}
	entries, err := decodeBlock(data, len(v.keyKinds), v.sh)
	if err != nil {
		panic(fmt.Sprintf("view %s: block %s@%d+%d corrupt: %v",
			v.def.Name, b.ref.File, b.ref.Off, b.ref.Len, err))
	}
	h := v.store
	for _, ke := range entries {
		h.pub.slot(h.dir.intern(ke.key)).Store(ke.e)
	}
	h.count.Add(int64(len(entries)))
	b.resident = true
	p.cache.misses.Add(1)
	p.cache.addResident(v, b)
}

// dropRange clears the store's entries in [lo, hi), inside one odd-seq
// window, and returns how many there were. Caller holds v.mu.
func (v *View) dropRange(lo, hi []byte) {
	h := v.store
	h.seq.Add(1)
	h.each(lo, hi, func(id uint32, _ *entry) bool {
		h.pub.at(id).Store(nil)
		h.markCarved(id, false)
		h.count.Add(-1)
		return true
	})
	h.seq.Add(1)
}

// evictBlock drops a clean block's entries from the store, returning the
// bytes freed (0 when the block turns out to be stale, dirty, or already
// evicted — the cache's CLOCK sweep calls this without holding any lock and
// re-verifies here). A view with folded-but-unpublished rows gives up
// nothing: its own Publish runs the sweep again. The entries are the
// collector's (a paged view carves none), so a reader still holding one
// keeps it alive.
func (v *View) evictBlock(b *blockMeta) int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	p := v.pg.Load()
	if p == nil || v.unpublished || !b.resident || b.dirty() {
		return 0
	}
	idx := p.blockFor(string(b.lo))
	if p.blocks[idx] != b {
		return 0 // replaced by a split or a restore since it was picked
	}
	// Before the entries go: a reader that misses one sees the raised count.
	p.nonResident.Add(1)
	v.dropRange(p.bounds(idx))
	b.resident = false
	p.cache.dropResident(b)
	return b.bytes
}

// pagedLookup is the read slow path: the key missed the published entries
// while some blocks are cold, so fault the covering block and probe again.
func (v *View) pagedLookup(key []byte) (value.Tuple, bool) {
	p := v.pg.Load()
	v.mu.Lock()
	b := p.blocks[p.blockFor(bytesString(key))]
	if !b.resident {
		v.faultIn(p, true, b)
	} else {
		// Another reader faulted it since the probe, or the key is genuinely
		// absent from a warm block.
		p.cache.hits.Add(1)
		b.hot.Store(true)
	}
	var row value.Tuple
	k, e := v.store.rget(key)
	ok := e != nil && e.count() != 0
	if ok {
		row = rowOf(v, k, e)
	}
	v.mu.Unlock()
	p.cache.maintain()
	return row, ok
}

// pagedScan is Scan on a view with cold blocks. Each round plans a block
// window under the view's lock, faults the cold blocks inside it and gathers
// the rows of the part of the window they cover, so the read costs the blocks
// it reaches, not the view. When the window's key bounds decide the plan the
// round is final. When only the limit does — the plan is the blocks from the
// walk's starting end whose entry counts add up to it — the counts can
// promise more rows than the walk finds (Keep turns rows down; the window
// starts inside its first block): a round that runs dry short of the limit is
// thrown away and the next plans for twice as many entries. fn sees the rows
// of the round that sufficed and of no other, so a read never mixes two
// publications.
func (v *View) pagedScan(p *pager, w Window, fn func(value.Tuple) bool) uint64 {
	rows := getRows()
	defer putRows(rows)
	for need := w.Limit; ; need *= 2 {
		lsn, final := v.planScan(p, w, need, rows)
		if final || len(*rows) == w.Limit {
			deliver(*rows, fn)
			return lsn
		}
	}
}

// planScan runs one round of pagedScan: of the blocks that overlap w, those
// the walk needs to find need entries from its starting end (all of them with
// need 0). It faults the cold ones among them, gathers into rows the rows of
// w in the key range the planned blocks cover, and returns the LSN they carry
// and whether that range is all of w. A read that names part of the view
// references the blocks it plans; a scan of the whole view does not, and the
// blocks it faults come in unreferenced — the sweep takes them back first,
// and the recency the CLOCK had survives a WATCH catch-up or a verification
// scan.
func (v *View) planScan(p *pager, w Window, need int, rows *[]value.Tuple) (lsn uint64, final bool) {
	v.mu.Lock()
	blocks := p.blocks
	i0, i1, a, b := p.plan(w, need)
	hot := w.bounded()
	var cold []*blockMeta
	for _, blk := range blocks[a:b] {
		switch {
		case !blk.resident:
			cold = append(cold, blk)
		case hot:
			blk.hot.Store(true)
		}
	}
	p.cache.hits.Add(int64(b - a - len(cold)))
	if len(cold) > 0 {
		v.faultIn(p, hot, cold...)
	}
	lo, hi := w.Lo, w.Hi
	if a > i0 {
		lo = blocks[a].lo
	}
	if b < i1 {
		hi = blocks[b].lo
	}
	*rows = v.collect(w, lo, hi, (*rows)[:0])
	lsn = v.store.lsn.Load()
	v.mu.Unlock()
	if len(cold) > 0 {
		p.cache.maintain()
	}
	return lsn, a == i0 && b == i1
}

// plan picks blocks for a read of w: [i0, i1) are the blocks that overlap the
// window, [a, b) those of them, taken from the walk's starting end, whose
// entry counts first add up to need (all of them with need 0). Caller holds
// the view's mu.
func (p *pager) plan(w Window, need int) (i0, i1, a, b int) {
	i0, i1 = 0, len(p.blocks)
	if len(w.Lo) > 0 {
		i0 = p.blockFor(bytesString(w.Lo))
	}
	if len(w.Hi) > 0 {
		if i1 = p.blockFor(bytesString(w.Hi)); bytes.Compare(p.blocks[i1].lo, w.Hi) < 0 {
			i1++ // the block covering Hi holds keys below it
		}
		i1 = max(i1, i0) // Hi ≤ Lo: an empty window
	}
	a, b = i0, i1
	if need > 0 {
		sum := 0
		if w.Desc {
			for a = i1; a > i0 && sum < need; sum += p.blocks[a].n {
				a--
			}
		} else {
			for b = i0; b < i1 && sum < need; b++ {
				sum += p.blocks[b].n
			}
		}
	}
	return i0, i1, a, b
}

// PlannedBlocks reports how many blocks a Scan of w plans in its first round
// and how many the view has, for EXPLAIN; zeros for an unpaged view.
func (v *View) PlannedBlocks(w Window) (planned, total int) {
	p := v.pg.Load()
	if p == nil {
		return 0, 0
	}
	v.mu.RLock()
	defer v.mu.RUnlock()
	_, _, a, b := p.plan(w, w.Limit)
	return b - a, len(p.blocks)
}

// PendingBlock records where one block payload sits inside a blocked
// checkpoint image. Once the image's file is durable and the manifest flip
// has made it authoritative, the storage layer calls CommitBlockRefs to turn
// these into the blocks' durable refs; until then the blocks stay dirty, so
// a failed checkpoint simply retries.
type PendingBlock struct {
	b      *blockMeta
	Off    int64 // payload offset relative to the image start
	Len    int64
	CRC    uint32
	markAt uint64 // block's dirtyMark when encoded; becomes ckptMark at commit
}

// The blocked image is the shared header (checkpoint.go), then runs:
//
//	run count (uvarint), then per run:
//	  hi: 0 for +∞, else len(hi)+1 (uvarint) and hi
//	  block count (uvarint, ≥ 1), then per block, ascending and below hi:
//	    len(lo) (uvarint) and lo (empty only for the -∞ block)
//	    entry count (uvarint), len(payload) (uvarint), payload (block.go)
//
// A run replaces the key range from its first block's lo up to hi. An
// incremental cut writes the maximal runs of adjacent dirty blocks; a full
// cut is the one run that spans (-∞, +∞).

// CheckpointBlocked serializes the view's blocked image: the blocks that
// changed since their last committed image — every block when full is set —
// in maximal runs of adjacent blocks, each stamped with the exclusive upper
// bound of the key range it covers (the next block's lo, or +∞). Restore
// splices each run over that range of the index earlier chain images built,
// so an incremental cut costs the dirty set alone, and a full cut, whose one
// run spans (-∞, +∞), replaces the index and lets older chain files fold away.
// Resident blocks in a run are re-encoded from the store (splitting any
// that outgrew the target size); a cold block is clean, so only a full cut
// carries one, copied forward raw after a CRC check, never decoded. Returns
// the image, the pending ref commits, and the dirty/total block counts for
// observability.
//
// Run bounds are always boundaries the restorer already knows: block
// boundaries only ever split (encodeBlockRun never merges adjacent blocks),
// an uncommitted split stays dirty and is swallowed by its run, and a clean
// neighbor's lo was committed with the image that made it clean. A view
// whose blocks were never committed is all dirty, so its first incremental
// image is one -∞..+∞ run too.
func (v *View) CheckpointBlocked(full bool) (img []byte, pend []PendingBlock, dirtyBlocks, totalBlocks int, err error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	p := v.pg.Load()
	if p == nil {
		return nil, nil, 0, 0, fmt.Errorf("view %s: not paged", v.def.Name)
	}
	in := func(i int) bool { return i < len(p.blocks) && (full || p.blocks[i].dirty()) }
	runs := 0
	for i := range p.blocks {
		if in(i) && (i == 0 || !in(i-1)) {
			runs++
		}
	}
	img = v.appendHeader(img, blockedVersion)
	img = binary.AppendUvarint(img, uint64(runs))

	type seg struct {
		b       *blockMeta
		payload []byte
	}
	var segs []seg
	newBlocks := make([]*blockMeta, 0, len(p.blocks))
	for i := 0; i < len(p.blocks); {
		if !in(i) {
			newBlocks = append(newBlocks, p.blocks[i])
			i++
			continue
		}
		segs = segs[:0]
		j := i
		for ; in(j); j++ {
			b := p.blocks[j]
			if !b.resident {
				data, ferr := p.fetch(*b.ref)
				if ferr == nil && (len(data) < 4 || binary.LittleEndian.Uint32(data[len(data)-4:]) != b.ref.CRC) {
					ferr = errors.New("CRC mismatch")
				}
				if ferr != nil {
					return nil, nil, 0, 0, fmt.Errorf("view %s: copy-forward %s@%d: %w",
						v.def.Name, b.ref.File, b.ref.Off, ferr)
				}
				segs = append(segs, seg{b: b, payload: data})
				continue
			}
			if b.dirty() {
				dirtyBlocks++
			}
			_, hi := p.bounds(j)
			subs, payloads := v.encodeBlockRun(p, b, hi)
			if len(subs) == 1 && subs[0] == b {
				p.cache.updateBytes(b, int64(len(payloads[0])))
			} else {
				p.cache.replaceBlock(v, b, subs)
			}
			for k, sb := range subs {
				segs = append(segs, seg{b: sb, payload: payloads[k]})
			}
		}
		if j < len(p.blocks) {
			img = binary.AppendUvarint(img, uint64(len(p.blocks[j].lo))+1)
			img = append(img, p.blocks[j].lo...)
		} else {
			img = binary.AppendUvarint(img, 0) // +∞
		}
		img = binary.AppendUvarint(img, uint64(len(segs)))
		for _, s := range segs {
			img = binary.AppendUvarint(img, uint64(len(s.b.lo)))
			img = append(img, s.b.lo...)
			img = binary.AppendUvarint(img, uint64(s.b.n))
			img = binary.AppendUvarint(img, uint64(len(s.payload)))
			pend = append(pend, PendingBlock{
				b:      s.b,
				Off:    int64(len(img)),
				Len:    int64(len(s.payload)),
				CRC:    binary.LittleEndian.Uint32(s.payload[len(s.payload)-4:]),
				markAt: s.b.dirtyMark,
			})
			img = append(img, s.payload...)
			newBlocks = append(newBlocks, s.b)
		}
		i = j
	}
	if len(newBlocks) != len(p.blocks) {
		// Blocks only ever split, so a list of the old length is the old list.
		p.setBlocks(newBlocks)
	}
	return img, pend, dirtyBlocks, len(newBlocks), nil
}

// encodeBlockRun re-encodes one dirty (hence resident) block's entries —
// the store's entries in [b.lo, hi), hi nil for +∞ — cutting the run into
// ≤blockBytes payloads. A run that still fits reuses the block's own meta;
// an overgrown run splits into fresh metas whose boundaries are short keyenc
// separators. Caller holds v.mu.
func (v *View) encodeBlockRun(p *pager, b *blockMeta, hi []byte) ([]*blockMeta, [][]byte) {
	type cut struct {
		first, last []byte
		ents        []byte
		n           int
	}
	var cuts []cut
	cur := cut{}
	var entBuf []byte
	d := v.store.dir
	v.store.each(b.lo, hi, func(id uint32, e *entry) bool {
		k := d.key(id)
		entBuf = appendBlockEntry(entBuf[:0], k, e, v.sh)
		if cur.n > 0 && int64(len(cur.ents)+len(entBuf)) > p.blockBytes {
			cuts = append(cuts, cur)
			cur = cut{}
		}
		if cur.n == 0 {
			cur.first = append([]byte(nil), k...)
		}
		cur.last = append(cur.last[:0], k...)
		cur.ents = append(cur.ents, entBuf...)
		cur.n++
		return true
	})
	cuts = append(cuts, cur) // possibly empty: an empty block still encodes

	payloads := make([][]byte, len(cuts))
	for i, c := range cuts {
		payloads[i] = sealBlock(nil, c.ents, c.n)
	}
	if len(cuts) == 1 {
		b.n = cuts[0].n
		return []*blockMeta{b}, payloads
	}
	subs := make([]*blockMeta, len(cuts))
	for i, c := range cuts {
		m := &blockMeta{n: c.n, bytes: int64(len(payloads[i])), resident: true, dirtyMark: b.dirtyMark}
		if i == 0 {
			m.lo = b.lo
		} else {
			m.lo = keyenc.Separator(nil, cuts[i-1].last, c.first)
		}
		m.hot.Store(true)
		subs[i] = m
	}
	return subs, payloads
}

// CommitBlockRefs installs the durable refs of a just-flipped checkpoint:
// file is the chain file the image was written to and base the image's
// offset within it. Marks committed this way are monotonic, so a block
// re-dirtied between build and flip stays dirty.
func (v *View) CommitBlockRefs(file string, base int64, pend []PendingBlock) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, pb := range pend {
		pb.b.ref = &BlockRef{File: file, Off: base + pb.Off, Len: pb.Len, CRC: pb.CRC}
		if pb.markAt > pb.b.ckptMark {
			pb.b.ckptMark = pb.markAt
		}
	}
}

// cmpBound compares two block lower bounds, where nil means -∞.
func cmpBound(a, b []byte) int {
	switch {
	case a == nil && b == nil:
		return 0
	case a == nil:
		return -1
	case b == nil:
		return 1
	}
	return bytes.Compare(a, b)
}

// RestoreBlocked splices a blocked image that lives at base within file into
// the block index earlier chain images built: each run's blocks replace, cold,
// the blocks of the key range the run covers. A full image's one run covers
// (-∞, +∞) and replaces the whole index. Only the index is built — every
// block faults in on first touch, so recovery cost is flat in view
// cardinality — and nothing changes unless the whole image parses. Only a
// paged view has an index to splice into.
func (v *View) RestoreBlocked(data []byte, file string, base int64) error {
	p := v.pg.Load()
	if p == nil {
		return fmt.Errorf("view %s: blocked image for a view that does not page", v.def.Name)
	}
	off, err := v.checkHeader(data, blockedVersion)
	if err != nil {
		return err
	}
	// next reads a uvarint and take the next n bytes; both fail past the end.
	next := func() (uint64, bool) {
		x, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return 0, false
		}
		off += n
		return x, true
	}
	take := func(n uint64) ([]byte, bool) {
		if n > uint64(len(data)-off) {
			return nil, false
		}
		off += int(n)
		return data[off-int(n) : off], true
	}
	type run struct {
		hi     []byte // exclusive upper bound; nil + !hasHi = +∞
		hasHi  bool
		blocks []*blockMeta
	}
	nRuns, ok := next()
	if !ok || nRuns > uint64(len(data)) {
		return fmt.Errorf("view %s: bad blocked run count", v.def.Name)
	}
	runs := make([]run, nRuns)
	for i := range runs {
		r := &runs[i]
		hiLen, ok := next()
		if ok && hiLen > 0 {
			r.hi, ok = take(hiLen - 1)
			r.hi, r.hasHi = bytes.Clone(r.hi), true
		}
		nBlocks, ok2 := next()
		if !ok || !ok2 || nBlocks == 0 || nBlocks > uint64(len(data)) {
			return fmt.Errorf("view %s: run %d: bad hi or block count", v.def.Name, i)
		}
		for b := uint64(0); b < nBlocks; b++ {
			loLen, ok1 := next()
			lo, ok2 := take(loLen)
			cnt, ok3 := next()
			plen, ok4 := next()
			at := off
			payload, ok5 := take(plen)
			if !ok1 || !ok2 || !ok3 || !ok4 || !ok5 || plen < 4 || cnt > plen {
				return fmt.Errorf("view %s: run %d block %d: bad block", v.def.Name, i, b)
			}
			if len(lo) == 0 {
				lo = nil // -∞
			}
			m := &blockMeta{lo: bytes.Clone(lo), n: int(cnt), bytes: int64(plen), ref: &BlockRef{
				File: file,
				Off:  base + int64(at),
				Len:  int64(plen),
				CRC:  binary.LittleEndian.Uint32(payload[plen-4:]),
			}}
			// Blocks ascend strictly, and a run starts at or past the bound of
			// the one before it, or the spliced index loses its order.
			switch {
			case b > 0 && cmpBound(r.blocks[b-1].lo, m.lo) >= 0:
				return fmt.Errorf("view %s: run %d: blocks out of order", v.def.Name, i)
			case b == 0 && i > 0 && (!runs[i-1].hasHi || cmpBound(m.lo, runs[i-1].hi) < 0):
				return fmt.Errorf("view %s: run %d: runs out of order", v.def.Name, i)
			}
			r.blocks = append(r.blocks, m)
		}
		if r.hasHi && cmpBound(r.blocks[len(r.blocks)-1].lo, r.hi) >= 0 {
			return fmt.Errorf("view %s: run %d: block at or past run bound", v.def.Name, i)
		}
	}
	if off != len(data) {
		return fmt.Errorf("view %s: %d trailing blocked-checkpoint bytes", v.def.Name, len(data)-off)
	}

	v.mu.Lock()
	defer v.mu.Unlock()
	blocks := p.blocks
	for _, r := range runs {
		lo := r.blocks[0].lo
		// Drop the covered range from the store (resident entries of
		// replaced blocks; a no-op when everything is cold).
		v.dropRange(lo, r.hi)
		s := 0
		for s < len(blocks) && cmpBound(blocks[s].lo, lo) < 0 {
			s++
		}
		e := s
		for ; e < len(blocks) && (!r.hasHi || cmpBound(blocks[e].lo, r.hi) < 0); e++ {
			if b := blocks[e]; b.resident {
				p.cache.dropResident(b)
			} else {
				p.nonResident.Add(-1)
			}
			p.total -= int64(blocks[e].n)
		}
		for _, b := range r.blocks {
			p.total += int64(b.n)
		}
		p.nonResident.Add(int64(len(r.blocks)))
		blocks = slices.Concat(blocks[:s], r.blocks, blocks[e:])
	}
	if len(blocks) == 0 || blocks[0].lo != nil {
		return fmt.Errorf("view %s: blocked image left the index without a -∞ block", v.def.Name)
	}
	p.setBlocks(blocks)
	v.publishLocked()
	return nil
}

// BlockStats reports the pager's block counts for observability: total
// blocks, dirty blocks, and resident blocks.
func (v *View) BlockStats() (total, dirty, resident int) {
	p := v.pg.Load()
	if p == nil {
		return 0, 0, 0
	}
	v.mu.RLock()
	defer v.mu.RUnlock()
	for _, b := range p.blocks {
		total++
		if b.dirty() {
			dirty++
		}
		if b.resident {
			resident++
		}
	}
	return total, dirty, resident
}
