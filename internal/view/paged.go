package view

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"chronicledb/internal/btree"
	"chronicledb/internal/keyenc"
	"chronicledb/internal/value"
)

// The pager turns a B-tree view store into a blocked persistent store:
// the key space is partitioned into fixed-target-size blocks bounded by
// memcomparable separator keys, each block independently dirty-tracked,
// checkpointed, evicted, and faulted back in. The live tree only holds
// resident blocks' entries; the published COW snapshot therefore covers
// the resident set, and a read that may reach a cold block plans which
// blocks it needs, faults exactly those from the checkpoint chain, and reads
// one snapshot that holds them (pagedLookup, pagedScan).
//
// Invariants (all block state transitions happen under the view's mu):
//
//   - resident ⇒ in the published snapshot: every fault ends by publishing
//     the block (faultIn), and eviction by publishing its absence, so a
//     reader that misses the snapshot while nonResident is 0 may conclude
//     the key does not exist.
//   - dirty ⇒ resident: a write faults the covering block first, so a
//     dirty block's entries are always in the live tree and a checkpoint
//     can re-encode it from memory.
//   - evictable ⇒ clean with a durable ref: eviction only drops entries
//     that the checkpoint chain can reproduce byte-for-byte.
//   - blocks[0].lo == nil (-∞); blocks ascend strictly by lo, so every
//     key maps to exactly one block (the greatest lo ≤ key).

// blockMeta is the in-memory descriptor of one block.
type blockMeta struct {
	lo        []byte // inclusive lower bound; nil on the first block = -∞
	n         int    // logical entries attributed to the block
	bytes     int64  // encoded size: exact after a checkpoint, estimated between
	resident  bool   // entries present in the live tree
	dirtyMark uint64 // pager clock at last write into the block
	ckptMark  uint64 // pager clock at last durably committed encode
	ref       *BlockRef
	hot       atomic.Bool // CLOCK reference bit: set by writes and by point, range and limit reads, not by a scan of the whole view
	// arena is where the block's keys and its new groups' values are carved
	// from while it is resident (created on first need). Eviction drops it
	// with the entries, so a cold block pins no chunk.
	arena *arena
}

// dirty reports whether the block changed since its last committed
// checkpoint image (a block with no durable image at all is dirty).
func (b *blockMeta) dirty() bool { return b.ref == nil || b.dirtyMark > b.ckptMark }

// pager is the per-view paging state. blocks, total and every blockMeta
// field except hot are guarded by the owning view's mu; nonResident and
// published are atomics so the read paths can consult them without locks.
type pager struct {
	blockBytes  int64
	fetch       FetchFunc
	cache       *Cache
	blocks      []*blockMeta
	mark        uint64 // monotonic write clock feeding dirtyMark/ckptMark
	nonResident atomic.Int64
	total       int64        // logical entries across all blocks, live
	published   atomic.Int64 // total as of the last publication (View.Len)
}

// blockFor returns the index of the block covering key.
func (p *pager) blockFor(key []byte) int { return blockIndex(p.blocks, key) }

// blockIndex returns the index of the block of a block list that covers key:
// the greatest blocks[i].lo ≤ key. Hand-written binary search — the write
// hot path calls this per row and must not allocate a closure.
func blockIndex(blocks []*blockMeta, key []byte) int {
	i, j := 1, len(blocks)
	for i < j {
		m := int(uint(i+j) >> 1)
		if bytes.Compare(blocks[m].lo, key) <= 0 {
			i = m + 1
		} else {
			j = m
		}
	}
	return i - 1
}

// estEntryBytes is the insert-time estimate of an entry's encoded size;
// each checkpoint replaces estimates with exact encoded sizes.
func estEntryBytes(key []byte, e *entry) int64 {
	return int64(len(key) + 8 + 10*len(e.states))
}

// EnablePaging converts a B-tree view into a blocked persistent store
// with the given target block size (≤0 selects DefaultBlockBytes), block
// fetcher, and shared cache. Must be called before the view is visible to
// concurrent readers (the engine calls it at CreateView, before
// backfill); no-op for hash views and views already paged.
func (v *View) EnablePaging(blockBytes int64, fetch FetchFunc, cache *Cache) {
	ts, ok := v.store.(*treeStore)
	if !ok || fetch == nil || cache == nil {
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
	p := &pager{blockBytes: blockBytes, fetch: fetch, cache: cache}
	b := &blockMeta{resident: true}
	ts.t.Ascend(func(k []byte, e *entry) bool {
		b.n++
		b.bytes += estEntryBytes(k, e)
		return true
	})
	p.mark++
	b.dirtyMark = p.mark
	b.hot.Store(true)
	p.blocks = []*blockMeta{b}
	p.total = int64(b.n)
	p.published.Store(int64(b.n))
	cache.addResident(v, b)
	v.pg.Store(p)
	v.restampLocked(p)
}

// installBlocksLocked makes a checkpoint's re-cut block list the pager's.
// Blocks only ever split, so a list of the old length is the old list and
// the one already published stays. Caller holds v.mu.
func (v *View) installBlocksLocked(p *pager, blocks []*blockMeta) {
	if len(blocks) != len(p.blocks) {
		p.blocks = blocks
		v.restampLocked(p)
	}
}

// restampLocked republishes the current snapshot's tree under the pager's
// current block list, after the list was replaced without a publication (a
// checkpoint split a block; paging was switched on). Caller holds v.mu.
func (v *View) restampLocked(p *pager) {
	s := v.snap.Load()
	v.snap.Store(&snapshot{tree: s.tree, at: s.at, lsn: s.lsn, blocks: p.blocks})
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
// so checkpoint can re-encode from memory), stamps it dirty and hot, and
// sees that it has an arena for what the write may insert. Caller holds v.mu.
func (v *View) ensureWrite(p *pager, key []byte) *blockMeta {
	b := p.blocks[p.blockFor(key)]
	if !b.resident {
		v.faultIn(p, true, b)
	}
	if b.arena == nil {
		b.arena = new(arena)
	}
	p.mark++
	b.dirtyMark = p.mark
	b.hot.Store(true)
	return b
}

// noteInsert attributes a fresh entry to its covering block. Caller holds
// v.mu.
func (v *View) noteInsert(p *pager, b *blockMeta, key []byte, e *entry) {
	est := estEntryBytes(key, e)
	b.n++
	b.bytes += est
	p.total++
	p.cache.grow(est)
}

// faultIn loads cold blocks from the checkpoint chain into the live tree
// and publishes them, so the snapshot keeps covering the resident set.
// Caller holds v.mu. With nothing folded since the last publication the
// live tree is the published state plus those blocks, and it is published
// as usual. Inside an append call it is not: the live tree already holds
// rows no reader may see yet. A cold block is clean — a write faults its
// block first — so its durable image is its content before and after the
// call so far, and it is added to a copy of the published tree instead,
// under the LSN that publication already carried. hot is the reference bit
// the blocks come in with.
func (v *View) faultIn(p *pager, hot bool, cold ...*blockMeta) {
	var pub *btree.Tree[[]byte, *entry]
	if v.unpublished {
		// Clone re-tags its receiver; the published tree is never written
		// through, so that is invisible to its readers.
		pub = v.snap.Load().tree.Clone()
	}
	for _, b := range cold {
		v.pageIn(p, b, pub)
		b.hot.Store(hot)
	}
	if pub == nil {
		v.publishLocked()
	} else {
		s := v.snap.Load()
		v.snap.Store(&snapshot{tree: pub, at: s.at, lsn: s.lsn, blocks: s.blocks})
	}
	// After the publication: a reader that sees the lowered count also sees
	// the snapshot that made it true (Lookup re-checks the snapshot).
	p.nonResident.Add(-int64(len(cold)))
}

// pageIn loads one block from the checkpoint chain into the live tree and,
// when pub is set, into that tree too (the two share keys and entries).
// Caller holds v.mu. A failure here panics: the manifest invariant keeps
// every referenced chain file on disk until a newer image replaces it, so
// a failed fetch means the store is gone or corrupted underneath us — and
// on the write path the WAL record was already durable before ApplyRows,
// so there is no caller that could meaningfully continue.
func (v *View) pageIn(p *pager, b *blockMeta, pub *btree.Tree[[]byte, *entry]) {
	data, err := p.fetch(*b.ref)
	if err != nil {
		panic(fmt.Sprintf("view %s: block fault %s@%d+%d: %v",
			v.def.Name, b.ref.File, b.ref.Off, b.ref.Len, err))
	}
	entries, err := decodeBlock(data, v.def.Mode, v.def.Aggs)
	if err != nil {
		panic(fmt.Sprintf("view %s: block %s@%d+%d corrupt: %v",
			v.def.Name, b.ref.File, b.ref.Off, b.ref.Len, err))
	}
	ts := v.store.(*treeStore)
	b.arena = new(arena)
	b.arena.reserve(len(entries))
	var keyBuf []byte
	for _, e := range entries {
		// A decoded entry's stamp is epoch 0, which predates every write
		// epoch: the entry is about to be published, so the first write to
		// it must copy.
		keyBuf = keyenc.AppendTuple(keyBuf[:0], e.vals)
		key := b.arena.keyBytes(keyBuf)
		ts.t.Set(key, e)
		if pub != nil {
			pub.Set(key, e)
		}
	}
	b.resident = true
	p.cache.misses.Add(1)
	p.cache.addResident(v, b)
}

// evictBlock drops a clean block's entries from the live tree and
// publishes the shrunken snapshot, returning the bytes freed (0 when the
// block turns out to be stale, dirty, or already evicted — the cache's
// CLOCK sweep calls this without holding any lock and re-verifies here).
// A view with folded-but-unpublished rows gives up nothing: publishing its
// live tree now would expose part of an append call. Its own Publish runs
// the sweep again.
func (v *View) evictBlock(b *blockMeta) int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	p := v.pg.Load()
	if p == nil || v.unpublished || !b.resident || b.dirty() {
		return 0
	}
	probe := b.lo
	if probe == nil {
		probe = []byte{}
	}
	idx := p.blockFor(probe)
	if idx < 0 || idx >= len(p.blocks) || p.blocks[idx] != b {
		return 0 // replaced by a split or a restore since it was picked
	}
	var hi []byte
	hasHi := idx+1 < len(p.blocks)
	if hasHi {
		hi = p.blocks[idx+1].lo
	}
	ts := v.store.(*treeStore)
	ts.t.DeleteRange(b.lo, hi, b.lo != nil, hasHi)
	b.resident = false
	b.arena = nil
	p.nonResident.Add(1)
	p.cache.dropResident(b)
	v.publishLocked()
	return b.bytes
}

// pagedLookup is the read slow path: the key missed the published
// snapshot while some blocks are cold, so fault the covering block and
// probe the snapshot that now covers it.
func (v *View) pagedLookup(key []byte) (value.Tuple, bool) {
	p := v.pg.Load()
	v.mu.Lock()
	b := p.blocks[p.blockFor(key)]
	if !b.resident {
		v.faultIn(p, true, b)
	} else {
		// Another reader faulted it between our snapshot load and here,
		// or the key is genuinely absent from a warm block.
		p.cache.hits.Add(1)
		b.hot.Store(true)
	}
	var row value.Tuple
	e, ok := v.snap.Load().tree.Get(key)
	if ok && e.count != 0 {
		row = v.rowOf(e)
	} else {
		ok = false
	}
	v.mu.Unlock()
	p.cache.maintain()
	return row, ok
}

// pagedScan is Scan on a view with cold blocks. Each round plans a block
// window under the view's lock, faults the cold blocks inside it and walks
// one snapshot restricted to it, so the read costs the blocks it reaches, not
// the view. When the window's key bounds decide the plan it is final and the
// rows stream to fn. When only the limit does — the plan is the blocks from
// the walk's starting end whose entry counts add up to it — the counts can
// promise more rows than the walk finds (Keep turns rows down; the window
// starts inside its first block), so the rows are held back: a walk that runs
// dry short of the limit is thrown away and the next round plans for twice as
// many entries and walks a fresh snapshot. fn sees the rows of the round that
// sufficed and of no other, so a read never mixes two publications.
func (v *View) pagedScan(p *pager, w Window, fn func(value.Tuple) bool) uint64 {
	for need := w.Limit; ; need *= 2 {
		s, lo, hi, final := v.planScan(p, w, need)
		if final {
			v.walk(s, w, lo, hi, fn)
			return s.lsn
		}
		var rows []value.Tuple
		if v.walk(s, w, lo, hi, func(t value.Tuple) bool { rows = append(rows, t); return true }) == w.Limit {
			for _, t := range rows {
				if !fn(t) {
					break
				}
			}
			return s.lsn
		}
	}
}

// planScan plans one round of pagedScan: of the blocks that overlap w, those
// the walk needs to find need entries from its starting end (all of them with
// need 0). It faults the cold ones among them and returns the snapshot that
// now holds the planned blocks, the key range they cover within w, and whether
// that is all of w. A read that names part of the view references the blocks
// it plans; a scan of the whole view does not, and the blocks it faults come
// in unreferenced — the sweep takes them back first, and the recency the
// CLOCK had survives a WATCH catch-up or a verification scan.
func (v *View) planScan(p *pager, w Window, need int) (s *snapshot, lo, hi []byte, final bool) {
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
	s = v.snap.Load()
	lo, hi = w.Lo, w.Hi
	if a > i0 {
		lo = blocks[a].lo
	}
	if b < i1 {
		hi = blocks[b].lo
	}
	v.mu.Unlock()
	if len(cold) > 0 {
		p.cache.maintain()
	}
	return s, lo, hi, a == i0 && b == i1
}

// plan picks blocks for a read of w: [i0, i1) are the blocks that overlap the
// window, [a, b) those of them, taken from the walk's starting end, whose
// entry counts first add up to need (all of them with need 0). Caller holds
// the view's mu.
func (p *pager) plan(w Window, need int) (i0, i1, a, b int) {
	i0, i1 = 0, len(p.blocks)
	if len(w.Lo) > 0 {
		i0 = p.blockFor(w.Lo)
	}
	if len(w.Hi) > 0 {
		if i1 = p.blockFor(w.Hi); bytes.Compare(p.blocks[i1].lo, w.Hi) < 0 {
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

// PendingBlock records where one inline block payload sits inside a
// blocked checkpoint image. Once the image's file is durable and the
// manifest flip has made it authoritative, the storage layer calls
// CommitBlockRefs to turn these into the blocks' durable refs; until
// then the blocks stay dirty, so a failed checkpoint simply retries.
type PendingBlock struct {
	b      *blockMeta
	Off    int64 // payload offset relative to the image start
	Len    int64
	CRC    uint32
	markAt uint64 // block's dirtyMark when encoded; becomes ckptMark at commit
}

const (
	blockedVersion = 2 // "CDBV" version byte for blocked view images
)

// CheckpointBlocked serializes the view's blocked image. Dirty blocks are
// re-encoded from the live tree (splitting any that outgrew the target
// size); clean blocks are written as refs to their existing chain
// location — unless full is set, in which case every block is inlined
// (resident blocks re-encoded, cold clean blocks copied forward raw,
// without decoding) so the image is self-contained and older chain files
// can be folded away. Returns the image, the pending ref commits, and the
// dirty/total block counts for observability.
func (v *View) CheckpointBlocked(full bool) (img []byte, pend []PendingBlock, dirtyBlocks, totalBlocks int, err error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	p := v.pg.Load()
	if p == nil {
		return nil, nil, 0, 0, fmt.Errorf("view %s: not paged", v.def.Name)
	}
	ts := v.store.(*treeStore)

	// Pass 1: decide each block's fate and re-encode the dirty ones,
	// installing any splits into a fresh block list as we go.
	type seg struct {
		b       *blockMeta
		payload []byte // inline payload; nil ⇒ emit the existing ref
	}
	var segs []seg
	newBlocks := make([]*blockMeta, 0, len(p.blocks))
	for i, b := range p.blocks {
		var hi []byte
		hasHi := i+1 < len(p.blocks)
		if hasHi {
			hi = p.blocks[i+1].lo
		}
		switch {
		case b.dirty() || (full && b.resident):
			if b.dirty() {
				dirtyBlocks++
			}
			subs, payloads := v.encodeBlockRun(ts, p, b, hi, hasHi)
			if len(subs) == 1 && subs[0] == b {
				p.cache.updateBytes(b, int64(len(payloads[0])))
			} else {
				p.cache.replaceBlock(v, b, subs)
			}
			for j, sb := range subs {
				segs = append(segs, seg{b: sb, payload: payloads[j]})
				newBlocks = append(newBlocks, sb)
			}
		case full:
			// Clean and cold: copy the durable payload forward unparsed.
			data, ferr := p.fetch(*b.ref)
			if ferr != nil {
				return nil, nil, 0, 0, fmt.Errorf("view %s: copy-forward %s@%d: %w",
					v.def.Name, b.ref.File, b.ref.Off, ferr)
			}
			if len(data) < 4 || binary.LittleEndian.Uint32(data[len(data)-4:]) != b.ref.CRC {
				return nil, nil, 0, 0, fmt.Errorf("view %s: copy-forward %s@%d: CRC mismatch",
					v.def.Name, b.ref.File, b.ref.Off)
			}
			segs = append(segs, seg{b: b, payload: data})
			newBlocks = append(newBlocks, b)
		default:
			segs = append(segs, seg{b: b})
			newBlocks = append(newBlocks, b)
		}
	}
	v.installBlocksLocked(p, newBlocks)
	totalBlocks = len(newBlocks)

	// Pass 2: assemble the image.
	img = append(img, checkpointMagic...)
	img = append(img, blockedVersion)
	img = binary.LittleEndian.AppendUint64(img, v.def.Expr.Schema().Fingerprint())
	img = append(img, byte(v.def.Mode))
	img = binary.AppendUvarint(img, uint64(len(v.def.Aggs)))
	img = binary.AppendUvarint(img, uint64(len(segs)))
	for _, s := range segs {
		img = binary.AppendUvarint(img, uint64(len(s.b.lo)))
		img = append(img, s.b.lo...)
		img = binary.AppendUvarint(img, uint64(s.b.n))
		if s.payload == nil {
			img = append(img, 0) // ref
			img = binary.AppendUvarint(img, uint64(len(s.b.ref.File)))
			img = append(img, s.b.ref.File...)
			img = binary.AppendUvarint(img, uint64(s.b.ref.Off))
			img = binary.AppendUvarint(img, uint64(s.b.ref.Len))
			img = binary.LittleEndian.AppendUint32(img, s.b.ref.CRC)
			continue
		}
		img = append(img, 1) // inline
		img = binary.AppendUvarint(img, uint64(len(s.payload)))
		off := int64(len(img))
		img = append(img, s.payload...)
		pend = append(pend, PendingBlock{
			b:      s.b,
			Off:    off,
			Len:    int64(len(s.payload)),
			CRC:    binary.LittleEndian.Uint32(s.payload[len(s.payload)-4:]),
			markAt: s.b.dirtyMark,
		})
	}
	return img, pend, dirtyBlocks, totalBlocks, nil
}

// CheckpointBlockedDelta serializes an incremental blocked image carrying
// only the dirty blocks, grouped into maximal runs of adjacent dirty
// blocks together with the exclusive upper bound of the key range each
// run covers (the next clean block's lo, or +∞). Restore merges each run
// into the block index accumulated from earlier chain images, so the cost
// of an incremental cut is proportional to the dirty set alone — clean
// blocks contribute nothing to the image, not even ref records. A view
// whose blocks were never committed (created since the last cut) is all
// dirty, so its first delta is a single run covering -∞..+∞ and merges
// cleanly into an empty index.
//
// Run bounds are always boundaries the restorer already knows: block
// boundaries only ever split (encodeBlockRun never merges adjacent
// blocks), an uncommitted split stays dirty and is swallowed by its run,
// and a clean neighbor's lo was committed with the image that made it
// clean.
func (v *View) CheckpointBlockedDelta() (img []byte, pend []PendingBlock, dirtyBlocks, totalBlocks int, err error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	p := v.pg.Load()
	if p == nil {
		return nil, nil, 0, 0, fmt.Errorf("view %s: not paged", v.def.Name)
	}
	ts := v.store.(*treeStore)

	// Pass 1: gather maximal dirty runs, re-encoding each block (splits
	// land inside the run, whose covering range is unaffected).
	type seg struct {
		b       *blockMeta
		payload []byte
	}
	type drun struct {
		hi    []byte // exclusive upper bound; nil + !hasHi = +∞
		hasHi bool
		segs  []seg
	}
	var runs []drun
	newBlocks := make([]*blockMeta, 0, len(p.blocks))
	for i := 0; i < len(p.blocks); {
		if !p.blocks[i].dirty() {
			newBlocks = append(newBlocks, p.blocks[i])
			i++
			continue
		}
		j := i
		for j < len(p.blocks) && p.blocks[j].dirty() {
			j++
		}
		r := drun{hasHi: j < len(p.blocks)}
		if r.hasHi {
			r.hi = p.blocks[j].lo
		}
		for k := i; k < j; k++ {
			b := p.blocks[k]
			dirtyBlocks++
			var hi []byte
			hasHi := k+1 < len(p.blocks)
			if hasHi {
				hi = p.blocks[k+1].lo
			}
			subs, payloads := v.encodeBlockRun(ts, p, b, hi, hasHi)
			if len(subs) == 1 && subs[0] == b {
				p.cache.updateBytes(b, int64(len(payloads[0])))
			} else {
				p.cache.replaceBlock(v, b, subs)
			}
			for s, sb := range subs {
				r.segs = append(r.segs, seg{b: sb, payload: payloads[s]})
				newBlocks = append(newBlocks, sb)
			}
		}
		runs = append(runs, r)
		i = j
	}
	v.installBlocksLocked(p, newBlocks)
	totalBlocks = len(newBlocks)

	// Pass 2: assemble the image — shared header, then the runs.
	img = append(img, checkpointMagic...)
	img = append(img, blockedVersion)
	img = binary.LittleEndian.AppendUint64(img, v.def.Expr.Schema().Fingerprint())
	img = append(img, byte(v.def.Mode))
	img = binary.AppendUvarint(img, uint64(len(v.def.Aggs)))
	img = binary.AppendUvarint(img, uint64(len(runs)))
	for _, r := range runs {
		if r.hasHi {
			img = binary.AppendUvarint(img, uint64(len(r.hi))+1)
			img = append(img, r.hi...)
		} else {
			img = binary.AppendUvarint(img, 0) // +∞
		}
		img = binary.AppendUvarint(img, uint64(len(r.segs)))
		for _, s := range r.segs {
			img = binary.AppendUvarint(img, uint64(len(s.b.lo)))
			img = append(img, s.b.lo...)
			img = binary.AppendUvarint(img, uint64(s.b.n))
			img = binary.AppendUvarint(img, uint64(len(s.payload)))
			off := int64(len(img))
			img = append(img, s.payload...)
			pend = append(pend, PendingBlock{
				b:      s.b,
				Off:    off,
				Len:    int64(len(s.payload)),
				CRC:    binary.LittleEndian.Uint32(s.payload[len(s.payload)-4:]),
				markAt: s.b.dirtyMark,
			})
		}
	}
	return img, pend, dirtyBlocks, totalBlocks, nil
}

// encodeBlockRun re-encodes one dirty (hence resident) block's entries
// from the live tree, cutting the run into ≤blockBytes payloads. A run
// that still fits reuses the block's own meta; an overgrown run splits
// into fresh metas whose boundaries are short keyenc separators. Caller
// holds v.mu.
func (v *View) encodeBlockRun(ts *treeStore, p *pager, b *blockMeta, hi []byte, hasHi bool) ([]*blockMeta, [][]byte) {
	type cut struct {
		first, last []byte
		ents        []byte
		n           int
	}
	var cuts []cut
	cur := cut{}
	var entBuf []byte
	visit := func(k []byte, e *entry) bool {
		entBuf = appendBlockEntry(entBuf[:0], e, v.def.Aggs)
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
	}
	switch {
	case b.lo == nil && !hasHi:
		ts.t.Ascend(visit)
	case b.lo == nil:
		ts.t.AscendLessThan(hi, visit)
	case !hasHi:
		ts.t.AscendGreaterOrEqual(b.lo, visit)
	default:
		ts.t.AscendRange(b.lo, hi, visit)
	}
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

// RestoreBlocked replaces the view's state from a blocked image that
// lives at base within file. Paged views restore lazily: only the block
// index is materialized — every block starts cold and faults in on first
// touch, so recovery cost is flat in view cardinality. Unpaged views
// restore eagerly through fetch — no database has one since a durable B-tree
// view always pages, but the golden and delta-merge tests compare the lazy
// path against it.
func (v *View) RestoreBlocked(data []byte, file string, base int64, fetch FetchFunc) error {
	rest, err := v.checkBlockedHeader(data)
	if err != nil {
		return err
	}
	blockCount, n := binary.Uvarint(rest)
	if n <= 0 {
		return fmt.Errorf("view %s: bad block count", v.def.Name)
	}
	off := len(data) - len(rest) + n

	type rec struct {
		lo      []byte
		n       int
		ref     BlockRef
		payload []byte // inline payload slice into data (eager decode)
	}
	maxRecs := int(blockCount)
	if maxRecs > len(data) {
		maxRecs = len(data)
	}
	recs := make([]rec, 0, maxRecs)
	for i := uint64(0); i < blockCount; i++ {
		loLen, n := binary.Uvarint(data[off:])
		if n <= 0 || off+n+int(loLen) > len(data) {
			return fmt.Errorf("view %s: block %d: bad lo", v.def.Name, i)
		}
		off += n
		var lo []byte
		if loLen > 0 {
			lo = append([]byte(nil), data[off:off+int(loLen)]...)
		}
		off += int(loLen)
		cnt, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return fmt.Errorf("view %s: block %d: bad entry count", v.def.Name, i)
		}
		off += n
		if off >= len(data) {
			return fmt.Errorf("view %s: block %d: truncated", v.def.Name, i)
		}
		flag := data[off]
		off++
		r := rec{lo: lo, n: int(cnt)}
		switch flag {
		case 0: // ref
			fl, n := binary.Uvarint(data[off:])
			if n <= 0 || off+n+int(fl) > len(data) {
				return fmt.Errorf("view %s: block %d: bad ref file", v.def.Name, i)
			}
			off += n
			r.ref.File = string(data[off : off+int(fl)])
			off += int(fl)
			o, n := binary.Uvarint(data[off:])
			if n <= 0 {
				return fmt.Errorf("view %s: block %d: bad ref off", v.def.Name, i)
			}
			off += n
			l, n := binary.Uvarint(data[off:])
			if n <= 0 {
				return fmt.Errorf("view %s: block %d: bad ref len", v.def.Name, i)
			}
			off += n
			if off+4 > len(data) {
				return fmt.Errorf("view %s: block %d: truncated ref", v.def.Name, i)
			}
			r.ref.Off, r.ref.Len = int64(o), int64(l)
			r.ref.CRC = binary.LittleEndian.Uint32(data[off:])
			off += 4
		case 1: // inline
			pl, n := binary.Uvarint(data[off:])
			if n <= 0 || off+n+int(pl) > len(data) {
				return fmt.Errorf("view %s: block %d: bad inline payload", v.def.Name, i)
			}
			off += n
			if pl < 4 {
				return fmt.Errorf("view %s: block %d: inline payload too short", v.def.Name, i)
			}
			r.payload = data[off : off+int(pl)]
			r.ref = BlockRef{
				File: file,
				Off:  base + int64(off),
				Len:  int64(pl),
				CRC:  binary.LittleEndian.Uint32(r.payload[pl-4:]),
			}
			off += int(pl)
		default:
			return fmt.Errorf("view %s: block %d: unknown flag %d", v.def.Name, i, flag)
		}
		recs = append(recs, r)
	}
	if off != len(data) {
		return fmt.Errorf("view %s: %d trailing blocked-checkpoint bytes", v.def.Name, len(data)-off)
	}
	if len(recs) == 0 || recs[0].lo != nil {
		return fmt.Errorf("view %s: blocked image missing -∞ block", v.def.Name)
	}

	if p := v.pg.Load(); p != nil {
		// Lazy: install the block index only; every block starts cold.
		v.mu.Lock()
		p.cache.dropView(v)
		v.store = newStore(StoreBTree)
		blocks := make([]*blockMeta, len(recs))
		var total int64
		for i, r := range recs {
			blocks[i] = &blockMeta{lo: r.lo, n: r.n, bytes: r.ref.Len, ref: &BlockRef{}}
			*blocks[i].ref = r.ref
			total += int64(r.n)
		}
		p.blocks = blocks
		p.nonResident.Store(int64(len(blocks)))
		p.total = total
		v.publishLocked()
		v.mu.Unlock()
		return nil
	}

	// Eager: materialize everything (the view runs unpaged).
	fresh := newStore(storeKindOf(v.store))
	a := new(arena)
	var keyBuf []byte
	for i, r := range recs {
		payload := r.payload
		if payload == nil {
			if fetch == nil {
				return fmt.Errorf("view %s: block %d needs a fetcher to restore eagerly", v.def.Name, i)
			}
			var err error
			payload, err = fetch(r.ref)
			if err != nil {
				return fmt.Errorf("view %s: block %d: %w", v.def.Name, i, err)
			}
		}
		entries, err := decodeBlock(payload, v.def.Mode, v.def.Aggs)
		if err != nil {
			return fmt.Errorf("view %s: block %d: %w", v.def.Name, i, err)
		}
		a.reserve(len(entries))
		for _, e := range entries {
			keyBuf = keyenc.AppendTuple(keyBuf[:0], e.vals)
			dup, tag := fresh.get(keyBuf)
			if dup != nil {
				return fmt.Errorf("view %s: block %d repeats a group", v.def.Name, i)
			}
			fresh.put(a, keyBuf, tag, e)
		}
	}
	v.mu.Lock()
	if cur, ok := v.store.(*hashStore); ok {
		f := fresh.(*hashStore)
		f.publish(0)
		cur.adopt(f)
	} else {
		v.store = fresh
	}
	v.arena = a
	v.publishLocked()
	v.mu.Unlock()
	return nil
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

// RestoreBlockedDelta merges a delta image (CheckpointBlockedDelta) that
// lives at base within file into the state restored from earlier chain
// images: each run replaces exactly the key range it covers. Paged views
// splice the runs' blocks into the block index cold; unpaged views
// materialize the runs' entries into the live store after deleting the
// covered ranges.
func (v *View) RestoreBlockedDelta(data []byte, file string, base int64) error {
	rest, err := v.checkBlockedHeader(data)
	if err != nil {
		return err
	}
	off := len(data) - len(rest)
	runCount, n := binary.Uvarint(data[off:])
	if n <= 0 {
		return fmt.Errorf("view %s: bad delta run count", v.def.Name)
	}
	off += n

	type rec struct {
		lo      []byte
		n       int
		ref     BlockRef
		payload []byte // slice into data
	}
	type drun struct {
		hi    []byte
		hasHi bool
		recs  []rec
	}
	maxRuns := int(runCount)
	if maxRuns > len(data) {
		maxRuns = len(data)
	}
	runs := make([]drun, 0, maxRuns)
	for i := uint64(0); i < runCount; i++ {
		hiLen, n := binary.Uvarint(data[off:])
		if n <= 0 || hiLen > 0 && off+n+int(hiLen-1) > len(data) {
			return fmt.Errorf("view %s: run %d: bad hi", v.def.Name, i)
		}
		off += n
		var r drun
		if hiLen > 0 {
			hl := int(hiLen - 1)
			r.hasHi = true
			r.hi = append([]byte(nil), data[off:off+hl]...)
			off += hl
		}
		blockCount, n := binary.Uvarint(data[off:])
		if n <= 0 || blockCount == 0 || blockCount > uint64(len(data)) {
			return fmt.Errorf("view %s: run %d: bad block count", v.def.Name, i)
		}
		off += n
		r.recs = make([]rec, 0, blockCount)
		for b := uint64(0); b < blockCount; b++ {
			loLen, n := binary.Uvarint(data[off:])
			if n <= 0 || off+n+int(loLen) > len(data) {
				return fmt.Errorf("view %s: run %d block %d: bad lo", v.def.Name, i, b)
			}
			off += n
			var lo []byte
			if loLen > 0 {
				lo = append([]byte(nil), data[off:off+int(loLen)]...)
			}
			off += int(loLen)
			cnt, n := binary.Uvarint(data[off:])
			if n <= 0 {
				return fmt.Errorf("view %s: run %d block %d: bad entry count", v.def.Name, i, b)
			}
			off += n
			pl, n := binary.Uvarint(data[off:])
			if n <= 0 || off+n+int(pl) > len(data) || pl < 4 {
				return fmt.Errorf("view %s: run %d block %d: bad payload", v.def.Name, i, b)
			}
			off += n
			payload := data[off : off+int(pl)]
			r.recs = append(r.recs, rec{
				lo: lo, n: int(cnt), payload: payload,
				ref: BlockRef{
					File: file,
					Off:  base + int64(off),
					Len:  int64(pl),
					CRC:  binary.LittleEndian.Uint32(payload[pl-4:]),
				},
			})
			off += int(pl)
		}
		// Blocks within a run must ascend strictly and stay below hi, or
		// the merged index would lose its ordering invariant.
		for b := 1; b < len(r.recs); b++ {
			if cmpBound(r.recs[b-1].lo, r.recs[b].lo) >= 0 {
				return fmt.Errorf("view %s: run %d: blocks out of order", v.def.Name, i)
			}
		}
		if r.hasHi && cmpBound(r.recs[len(r.recs)-1].lo, r.hi) >= 0 {
			return fmt.Errorf("view %s: run %d: block at or past run bound", v.def.Name, i)
		}
		runs = append(runs, r)
	}
	if off != len(data) {
		return fmt.Errorf("view %s: %d trailing delta bytes", v.def.Name, len(data)-off)
	}

	v.mu.Lock()
	defer v.mu.Unlock()
	ts, ok := v.store.(*treeStore)
	if !ok {
		return fmt.Errorf("view %s: blocked delta into non-tree store", v.def.Name)
	}
	p := v.pg.Load()
	for _, r := range runs {
		lo := r.recs[0].lo
		// Drop the covered range from the live tree (resident entries of
		// replaced blocks; a no-op when everything is cold).
		ts.t.DeleteRange(lo, r.hi, lo != nil, r.hasHi)
		if p == nil {
			// Eager: the view runs unpaged, materialize the run's entries.
			var keyBuf []byte
			for i, rc := range r.recs {
				entries, derr := decodeBlock(rc.payload, v.def.Mode, v.def.Aggs)
				if derr != nil {
					return fmt.Errorf("view %s: delta block %d: %w", v.def.Name, i, derr)
				}
				for _, e := range entries {
					keyBuf = keyenc.AppendTuple(keyBuf[:0], e.vals)
					ts.put(v.arena, keyBuf, 0, e)
				}
			}
			continue
		}
		// Lazy: splice the run's cold blocks over the index span [lo, hi).
		s := 0
		for s < len(p.blocks) && cmpBound(p.blocks[s].lo, lo) < 0 {
			s++
		}
		e := s
		for e < len(p.blocks) && (!r.hasHi || cmpBound(p.blocks[e].lo, r.hi) < 0) {
			b := p.blocks[e]
			if b.resident {
				p.cache.dropResident(b)
			} else {
				p.nonResident.Add(-1)
			}
			p.total -= int64(b.n)
			e++
		}
		ins := make([]*blockMeta, len(r.recs))
		for i, rc := range r.recs {
			m := &blockMeta{lo: rc.lo, n: rc.n, bytes: rc.ref.Len, ref: &BlockRef{}}
			*m.ref = rc.ref
			p.total += int64(rc.n)
			ins[i] = m
		}
		p.nonResident.Add(int64(len(ins)))
		nb := make([]*blockMeta, 0, len(p.blocks)-(e-s)+len(ins))
		nb = append(nb, p.blocks[:s]...)
		nb = append(nb, ins...)
		nb = append(nb, p.blocks[e:]...)
		p.blocks = nb
	}
	if p != nil && (len(p.blocks) == 0 || p.blocks[0].lo != nil) {
		return fmt.Errorf("view %s: blocked delta left index without -∞ block", v.def.Name)
	}
	v.publishLocked()
	return nil
}

// checkBlockedHeader validates the blocked image's fixed header and
// returns the remainder starting at the block count.
func (v *View) checkBlockedHeader(data []byte) ([]byte, error) {
	if len(data) < len(checkpointMagic)+1+8+1+1 {
		return nil, fmt.Errorf("view %s: blocked checkpoint truncated", v.def.Name)
	}
	if string(data[:4]) != checkpointMagic {
		return nil, fmt.Errorf("view %s: bad blocked checkpoint magic", v.def.Name)
	}
	if data[4] != blockedVersion {
		return nil, fmt.Errorf("view %s: unsupported blocked checkpoint version %d", v.def.Name, data[4])
	}
	off := 5
	if fp := binary.LittleEndian.Uint64(data[off:]); fp != v.def.Expr.Schema().Fingerprint() {
		return nil, fmt.Errorf("view %s: blocked checkpoint schema drift", v.def.Name)
	}
	off += 8
	if Summarize(data[off]) != v.def.Mode {
		return nil, fmt.Errorf("view %s: blocked checkpoint mode mismatch", v.def.Name)
	}
	off++
	nAggs, n := binary.Uvarint(data[off:])
	if n <= 0 {
		return nil, fmt.Errorf("view %s: bad aggregation count", v.def.Name)
	}
	off += n
	if int(nAggs) != len(v.def.Aggs) {
		return nil, fmt.Errorf("view %s: blocked checkpoint has %d aggregations, definition has %d",
			v.def.Name, nAggs, len(v.def.Aggs))
	}
	return data[off:], nil
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
