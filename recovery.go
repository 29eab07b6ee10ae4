package chronicledb

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"chronicledb/internal/chronicle"
	"chronicledb/internal/dedup"
	"chronicledb/internal/engine"
	"chronicledb/internal/sqlparse"
	"chronicledb/internal/value"
	"chronicledb/internal/view"
	"chronicledb/internal/wal"
)

// Durability layout under Options.Dir:
//
//	catalog.sql          — every DDL statement, in order (schema is replayed
//	                       through the normal planner at recovery)
//	wal.manifest         — version-2 manifest: the live WAL segments of every
//	                       stream plus the checkpoint chain; the single source
//	                       of truth for which files recovery reads
//	<stream>-NNNNNNNN.wal — size-capped WAL segments; appends rotate to a
//	                       fresh segment at the cap
//	checkpoint-NNNNNNNN.bin — checkpoint chain: a full image followed by
//	                       incremental images holding only objects dirtied
//	                       since the previous cut
//
// Recovery order: catalog → checkpoint chain → WAL tail. Checkpoint and
// manifest files are only ever replaced atomically (write-temp, fsync,
// rename, dirsync), so a crash mid-flip leaves the previous complete
// image. The logs are never truncated; instead replay skips records at or
// below the chain's tip LSN, and the compactor deletes segments wholly
// below it — recovery work and disk stay proportional to the write rate
// since the last checkpoint (E12, E20).

const (
	ckptMagic   = "CDBC"
	ckptVersion = 6 // the only image format read or written
)

// recover rebuilds in-memory state from disk. Called by Open before the
// WAL is reopened for appending. It replays every live segment the manifest
// lists, merged into global LSN order, so the streams on disk need not
// match the kernel being opened (shard counts may change across restarts).
// A directory without a manifest has no checkpoint and no WAL: the zero
// Manifest recovers the catalog alone.
func (db *DB) recover(m wal.Manifest) error {
	// 1. Catalog: replay DDL. A power cut can tear the final statement
	// mid-write; every *acked* statement was fully written and fsynced, so
	// trimming to the last statement terminator drops only unacked bytes.
	// A catalog with no terminator at all is corruption, not a torn tail
	// (the file's dir entry only becomes durable after the first acked
	// statement), and still fails the parse below.
	if src, err := db.fs.ReadFile(db.catalogPath); err == nil && len(src) > 0 {
		text := string(src)
		if i := strings.LastIndex(text, ";"); i >= 0 {
			text = text[:i+1]
		}
		stmts, err := sqlparse.Parse(text)
		if err != nil {
			return fmt.Errorf("chronicledb: corrupt catalog: %w", err)
		}
		if len(text) < len(src) {
			// Repair the torn tail now: the file is opened in append
			// mode for future DDL, which must land after the last valid
			// statement, not after the garbage.
			if err := wal.WriteFileAtomicFS(db.fs, db.catalogPath, []byte(text)); err != nil {
				return fmt.Errorf("chronicledb: repairing torn catalog: %w", err)
			}
		}
		for _, s := range stmts {
			if _, err := db.execOne(s, execRecovery); err != nil {
				return fmt.Errorf("chronicledb: replaying catalog: %w", err)
			}
		}
	} else if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("chronicledb: catalog: %w", err)
	}

	// 2. Checkpoint chain: a full image plus incremental images holding only
	// the objects dirtied since the previous cut. The chain restores in
	// ascending sequence order — each file *replaces* the state of the
	// objects it contains — and the tip's LSN is the replay skip threshold.
	// The manifest invariant (files are fsynced before the flip that
	// references them, deleted only after the flip that drops them) makes a
	// referenced-but-missing chain file genuine corruption, not a crash
	// artifact.
	var ckptLSN uint64
	refs := append([]wal.CheckpointRef(nil), m.Checkpoints...)
	sort.Slice(refs, func(i, j int) bool { return refs[i].Seq < refs[j].Seq })
	for _, c := range refs {
		data, err := db.fs.ReadFile(filepath.Join(db.opts.Dir, c.Name))
		if err != nil {
			return fmt.Errorf("chronicledb: checkpoint chain %s: %w", c.Name, err)
		}
		lsn, err := db.restoreCheckpoint(data, c.Name)
		if err != nil {
			return fmt.Errorf("chronicledb: checkpoint chain %s: %w", c.Name, err)
		}
		ckptLSN = lsn
	}
	if len(refs) > 0 {
		// Every restored view reflects exactly the mutations at or below
		// the checkpoint LSN; stamp that cursor so changefeed snapshot
		// splices anchor correctly, and raise the feed horizon — deltas
		// inside the checkpoint are not individually replayable.
		for _, name := range db.eng.Names(engine.Views) {
			if v, ok := db.eng.View(name); ok {
				v.SetAppliedLSN(ckptLSN)
			}
		}
		if db.hub != nil {
			db.hub.SetBase(ckptLSN)
		}
	}

	// 3. WAL tail: every live segment, merged by global LSN so relation
	// updates interleave with appends exactly as they did live (§2.3
	// proactive ordering). Records at or below the checkpoint LSN are
	// already inside the checkpoint, and applying them twice would
	// double-count appends and resurrect stale relation versions. Skipping
	// them also keeps the LSN allocator aligned: replay re-assigns LSNs
	// starting from the checkpoint LSN, so each surviving record re-acquires
	// exactly the LSN it carried live.
	_, err := wal.ReplayMergedFS(db.fs, db.opts.Dir, liveSegmentNames(m.Live), ckptLSN, func(r wal.Record) error {
		if r.Kind == wal.RecDDL {
			s, err := sqlparse.ParseOne(r.Stmt)
			if err != nil {
				return err
			}
			_, err = db.execOne(s, execRecovery)
			return err
		}
		return db.applyRecord(r)
	})
	if err != nil {
		return fmt.Errorf("chronicledb: WAL replay: %w", err)
	}
	return nil
}

// Checkpoint atomically persists the database state: it appends a (usually
// incremental) image to the checkpoint chain and flips the manifest; the
// logs are never truncated — replay skips records at or below the chain
// tip, and the compactor reclaims segments wholly below it. The snapshot is
// cut with mutations quiesced under the router's epoch barrier, so the
// image is exactly the state at its header LSN. It is a no-op (with an
// error) for in-memory databases.
func (db *DB) Checkpoint() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.opts.Dir == "" {
		return fmt.Errorf("chronicledb: checkpoint requires a durable database (Options.Dir)")
	}
	if err := db.writeGate(); err != nil {
		return err
	}
	return db.eng.Barrier(db.writeSegmentedCheckpoint)
}

// liveSegmentNames lists a manifest's live segments in (stream, seq) order,
// the order ReplayMergedFS's stable LSN sort preserves within a stream.
func liveSegmentNames(live []wal.Segment) []string {
	live = append([]wal.Segment(nil), live...)
	sort.Slice(live, func(i, j int) bool {
		if live[i].Stream != live[j].Stream {
			return live[i].Stream < live[j].Stream
		}
		return live[i].Seq < live[j].Seq
	})
	names := make([]string, len(live))
	for i, s := range live {
		names[i] = s.Name
	}
	return names
}

// blockCommit carries one paged view's pending block refs out of
// buildCheckpointImage: once the image's chain file is durable and the
// manifest flip has made it authoritative, the storage layer calls
// CommitBlockRefs so the blocks' durable locations (and clean marks) point
// at the new file. base is the view's blocked image offset within the
// checkpoint image (== within the chain file, which holds the image at
// offset 0). dirty/total are the block counts at the cut, for stats.
type blockCommit struct {
	v     *view.View
	base  int64
	pend  []view.PendingBlock
	dirty int
	total int
}

// buildCheckpointImage serializes database state into db.ckptBuf, which it
// reuses across checkpoints (callers hold db.mu, and the image is fully
// consumed — written to disk — before the next checkpoint starts).
//
// The image is version 5: magic, version byte, a flags byte (bit 0 = full),
// the LSN, then one section per object kind. When full is false,
// chronicles, relations, views, and periodic views are included only if
// their dirty marker moved since db.ckptMarks was captured (an absent
// marker means dirty, which covers objects created since the last cut).
// Groups (8 bytes each) and the dedup table (bounded by capacity) are
// always included. The returned marks are the markers observed at this cut;
// the caller installs them as db.ckptMarks only once the image is durably
// referenced. dirty counts the objects an incremental image includes, so an
// unchanged database can skip the chain entry entirely.
//
// Each view payload is prefixed by a subformat byte — 0 for a whole image
// (unpaged views), 1 for a blocked image: runs of blocks, each replacing the
// key range it covers in the index earlier chain images built. A full cut is
// the one run that spans the key space, so the chain can fold; an
// incremental cut carries only the dirty runs, so its cost is flat in view
// cardinality. wholeViews forces subformat 0 for every view: the
// replication bootstrap image travels to a follower that cannot fault
// blocks from this database's chain files. The returned commits must be
// applied after the manifest flip that makes the image authoritative.
//
// The markers are monotonic mutation counters, recomputed from the objects
// themselves: chronicle Total+Dropped (either moves on any append or
// retention drop), relation Updates, view Applies, periodic-view Applies.
// DDL (drop, or drop-and-recreate, which could leave a fresh object behind
// an unchanged marker) is handled by the caller forcing a full image via
// db.ddlDirty instead.
func (db *DB) buildCheckpointImage(full, wholeViews bool) (data []byte, lsn uint64, marks map[string]uint64, dirty int, commits []blockCommit, err error) {
	old := db.ckptMarks
	marks = make(map[string]uint64)
	include := func(key string, cur uint64) bool {
		marks[key] = cur
		if full {
			return true
		}
		prev, ok := old[key]
		if !ok || prev != cur {
			dirty++
			return true
		}
		return false
	}

	lsn = db.eng.LSN()
	b := db.ckptBuf[:0]
	b = append(b, ckptMagic...)
	var flags byte
	if full {
		flags = 1
	}
	b = append(b, ckptVersion, flags)
	b = binary.LittleEndian.AppendUint64(b, lsn)

	groups := db.eng.Names(engine.Groups)
	b = binary.AppendUvarint(b, uint64(len(groups)))
	for _, name := range groups {
		g, _ := db.eng.Group(name)
		b = appendName(b, name)
		b = binary.LittleEndian.AppendUint64(b, uint64(g.LastSN()))
	}

	var incl []string
	chrons := db.eng.Names(engine.Chronicles)
	for _, name := range chrons {
		c, _ := db.eng.Chronicle(name)
		if include("c:"+name, uint64(c.Total()+c.Dropped())) {
			incl = append(incl, name)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(incl)))
	for _, name := range incl {
		c, _ := db.eng.Chronicle(name)
		b = appendName(b, name)
		b = binary.LittleEndian.AppendUint64(b, uint64(c.Dropped()))
		rows := c.Rows()
		b = binary.AppendUvarint(b, uint64(len(rows)))
		for _, r := range rows {
			b = binary.LittleEndian.AppendUint64(b, uint64(r.SN))
			b = binary.LittleEndian.AppendUint64(b, uint64(r.Chronon))
			b = binary.LittleEndian.AppendUint64(b, r.LSN)
			b = value.AppendTuple(b, r.Vals)
		}
	}

	incl = incl[:0]
	rels := db.eng.Names(engine.Relations)
	for _, name := range rels {
		r, _ := db.eng.Relation(name)
		if include("r:"+name, uint64(r.Updates())) {
			incl = append(incl, name)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(incl)))
	for _, name := range incl {
		r, _ := db.eng.Relation(name)
		b = r.AppendImage(appendName(b, name))
	}

	incl = incl[:0]
	views := db.eng.Names(engine.Views)
	for _, name := range views {
		v, _ := db.eng.View(name)
		if include("v:"+name, uint64(v.Stats().Applies)) {
			incl = append(incl, name)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(incl)))
	for _, name := range incl {
		v, _ := db.eng.View(name)
		b = appendName(b, name)
		if v.Paged() && !wholeViews {
			snap, pend, dirtyB, totalB, cerr := v.CheckpointBlocked(full)
			if cerr != nil {
				db.ckptBuf = b
				return nil, 0, nil, 0, nil, fmt.Errorf("chronicledb: checkpoint view %s: %w", name, cerr)
			}
			b = binary.AppendUvarint(b, uint64(len(snap)+1))
			b = append(b, 1) // subformat: blocked image
			commits = append(commits, blockCommit{
				v: v, base: int64(len(b)), pend: pend, dirty: dirtyB, total: totalB,
			})
			b = append(b, snap...)
			continue
		}
		snap := v.Checkpoint()
		b = binary.AppendUvarint(b, uint64(len(snap)+1))
		b = append(b, 0) // subformat: whole image
		b = append(b, snap...)
	}

	incl = incl[:0]
	pviews := db.eng.Names(engine.PeriodicViews)
	for _, name := range pviews {
		pv, _ := db.eng.PeriodicView(name)
		if include("p:"+name, uint64(pv.Applies())) {
			incl = append(incl, name)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(incl)))
	for _, name := range incl {
		pv, _ := db.eng.PeriodicView(name)
		snap := pv.Checkpoint()
		b = appendName(b, name)
		b = binary.AppendUvarint(b, uint64(len(snap)))
		b = append(b, snap...)
	}

	// Dedup table: the idempotency entries live inside the checkpoint
	// because replay skips records at or below its LSN — without this section a
	// retry arriving after checkpoint-and-crash would re-apply. The section
	// is bounded by the table capacity, so checkpoint size does not grow
	// with total request count. Restoring a chain re-Puts entries; Put
	// refreshes duplicates in place, so later chain files win.
	var entries []dedup.Entry
	db.eng.Each(func(_ int, e *engine.Engine) { entries = append(entries, e.DedupEntries()...) })
	b = dedup.AppendEntries(b, entries)
	db.ckptBuf = b
	return b, lsn, marks, dirty, commits, nil
}

// restoreCheckpoint rebuilds state from a checkpoint image and returns
// the LSN the checkpoint was cut at (the replay skip threshold). fileName
// is the chain file holding the image; blocked view sections resolve their
// inline block payloads relative to it.
func (db *DB) restoreCheckpoint(data []byte, fileName string) (uint64, error) {
	bad := func(what string) error {
		return fmt.Errorf("chronicledb: corrupt checkpoint (%s)", what)
	}
	if len(data) < 14 || string(data[:4]) != ckptMagic {
		return 0, bad("header")
	}
	if version := data[4]; version != ckptVersion {
		return 0, fmt.Errorf("%w: checkpoint image version %d (want %d)", ErrUnsupportedLayout, version, ckptVersion)
	}
	// data[5] is the flags byte: bit 0 marks a full image. Decoding doesn't
	// branch on it — every section carries its own object count, and an
	// incremental image simply lists fewer — but the byte keeps
	// full/incremental distinguishable for tooling.
	off := 6
	lsn := binary.LittleEndian.Uint64(data[off:])
	off += 8
	db.eng.RestoreLSN(lsn)

	// Groups.
	nGroups, n := binary.Uvarint(data[off:])
	if n <= 0 {
		return 0, bad("group count")
	}
	off += n
	for i := uint64(0); i < nGroups; i++ {
		name, used, err := readName(data[off:])
		if err != nil {
			return 0, bad("group name")
		}
		off += used
		if len(data)-off < 8 {
			return 0, bad("group sn")
		}
		lastSN := int64(binary.LittleEndian.Uint64(data[off:]))
		off += 8
		if g, ok := db.eng.Group(name); ok && lastSN >= 0 {
			g.RestoreLastSN(lastSN)
		}
	}

	// Chronicles.
	nChron, n := binary.Uvarint(data[off:])
	if n <= 0 {
		return 0, bad("chronicle count")
	}
	off += n
	for i := uint64(0); i < nChron; i++ {
		name, used, err := readName(data[off:])
		if err != nil {
			return 0, bad("chronicle name")
		}
		off += used
		if len(data)-off < 8 {
			return 0, bad("chronicle dropped")
		}
		dropped := int64(binary.LittleEndian.Uint64(data[off:]))
		off += 8
		nRows, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return 0, bad("chronicle rows")
		}
		off += n
		rows := make([]chronicle.Row, nRows)
		for j := range rows {
			if len(data)-off < 24 {
				return 0, bad("chronicle row header")
			}
			rows[j].SN = int64(binary.LittleEndian.Uint64(data[off:]))
			rows[j].Chronon = int64(binary.LittleEndian.Uint64(data[off+8:]))
			rows[j].LSN = binary.LittleEndian.Uint64(data[off+16:])
			off += 24
			t, used, err := value.DecodeTuple(data[off:])
			if err != nil {
				return 0, bad("chronicle row tuple")
			}
			rows[j].Vals = t
			off += used
		}
		c, ok := db.eng.Chronicle(name)
		if !ok {
			return 0, fmt.Errorf("chronicledb: checkpoint references unknown chronicle %q", name)
		}
		if err := c.Restore(rows, dropped); err != nil {
			return 0, err
		}
	}

	// Relations.
	nRels, n := binary.Uvarint(data[off:])
	if n <= 0 {
		return 0, bad("relation count")
	}
	off += n
	for i := uint64(0); i < nRels; i++ {
		name, used, err := readName(data[off:])
		if err != nil {
			return 0, bad("relation name")
		}
		off += used
		r, ok := db.eng.Relation(name)
		if !ok {
			return 0, fmt.Errorf("chronicledb: checkpoint references unknown relation %q", name)
		}
		// A chain restore can hit the same relation more than once; each
		// image's rows replace the previous one's, not merge in.
		if used, err = r.RestoreImage(lsn, data[off:]); err != nil {
			return 0, fmt.Errorf("chronicledb: corrupt checkpoint: %w", err)
		}
		off += used
	}

	// Views.
	nViews, n := binary.Uvarint(data[off:])
	if n <= 0 {
		return 0, bad("view count")
	}
	off += n
	for i := uint64(0); i < nViews; i++ {
		name, used, err := readName(data[off:])
		if err != nil {
			return 0, bad("view name")
		}
		off += used
		snapLen, n := binary.Uvarint(data[off:])
		if n <= 0 || uint64(len(data)-off-n) < snapLen {
			return 0, bad("view snapshot")
		}
		off += n
		v, ok := db.eng.View(name)
		if !ok {
			return 0, fmt.Errorf("chronicledb: checkpoint references unknown view %q", name)
		}
		// The payload carries a subformat byte: 0 = whole image, 1 = blocked
		// image (runs spliced into the block index earlier chain images
		// built).
		if snapLen == 0 {
			return 0, bad("view subformat")
		}
		sub, body := data[off], data[off+1:off+int(snapLen)]
		base := int64(off) + 1 // body's offset within the chain file
		switch sub {
		case 0:
			err = v.RestoreCheckpoint(body)
		case 1:
			err = v.RestoreBlocked(body, fileName, base)
		default:
			err = bad("view subformat")
		}
		if err != nil {
			return 0, err
		}
		off += int(snapLen)
	}

	// Periodic views.
	nPViews, n := binary.Uvarint(data[off:])
	if n <= 0 {
		return 0, bad("periodic view count")
	}
	off += n
	for i := uint64(0); i < nPViews; i++ {
		name, used, err := readName(data[off:])
		if err != nil {
			return 0, bad("periodic view name")
		}
		off += used
		snapLen, n := binary.Uvarint(data[off:])
		if n <= 0 || uint64(len(data)-off-n) < snapLen {
			return 0, bad("periodic view snapshot")
		}
		off += n
		pv, ok := db.eng.PeriodicView(name)
		if !ok {
			return 0, fmt.Errorf("chronicledb: checkpoint references unknown periodic view %q", name)
		}
		if err := pv.RestoreCheckpoint(data[off : off+int(snapLen)]); err != nil {
			return 0, err
		}
		off += int(snapLen)
	}

	// Dedup table.
	// Each entry goes back to its chronicle's home shard; entries whose
	// chronicle no longer resolves (dropped between checkpoint and crash) are
	// ignored — with no chronicle there is nothing a retry could double-apply.
	used, err := dedup.DecodeSnapshot(data[off:], func(ent dedup.Entry) error {
		if home, ok := db.eng.Home(ent.Chronicle); ok {
			home.RestoreDedupEntry(ent)
		}
		return nil
	})
	if err != nil {
		return 0, bad("dedup section")
	}
	off += used
	if off != len(data) {
		return 0, bad("trailing bytes")
	}
	return lsn, nil
}

func appendName(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func readName(b []byte) (string, int, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 || uint64(len(b)-sz) < n {
		return "", 0, fmt.Errorf("bad name")
	}
	return string(b[sz : sz+int(n)]), sz + int(n), nil
}
