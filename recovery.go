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

// Durability layout under Options.Dir (segmented, the default):
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
// The legacy layout (Options.WALSegmentBytes < 0) keeps one
// grow-until-checkpoint WAL per shard (chronicle.wal unsharded, a v1
// manifest's shard segments sharded) and full checkpoints in the
// fixed-name checkpoint.bin, truncating the logs after each one.
//
// Recovery order: catalog → checkpoint (chain) → WAL tail. Checkpoint and
// manifest files are only ever replaced atomically (write-temp, fsync,
// rename, dirsync), so a crash mid-flip leaves the previous complete
// image. In the segmented layout the logs are never truncated; instead
// replay skips records at or below the chain's tip LSN, and the compactor
// deletes segments wholly below it — recovery work and disk stay
// proportional to the write rate since the last checkpoint (E12, E20).

const ckptMagic = "CDBC"

// recover rebuilds in-memory state from disk. Called by Open before the
// WAL is reopened for appending. It replays every WAL segment present —
// the legacy single log and/or the manifest's shard segments — merged into
// global LSN order, so the layout on disk need not match the kernel being
// opened (shard counts may change across restarts).
func (db *DB) recover(m wal.Manifest, hadManifest bool) error {
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

	// 2. Checkpoint. A version-2 manifest carries a checkpoint chain: a
	// full image plus incremental images holding only the objects dirtied
	// since the previous cut. The chain restores in ascending sequence
	// order — each file *replaces* the state of the objects it contains —
	// and the tip's LSN is the replay skip threshold. The manifest
	// invariant (files are fsynced before the flip that references them,
	// deleted only after the flip that drops them) makes a referenced-but-
	// missing chain file genuine corruption, not a crash artifact.
	// Otherwise the legacy fixed-name checkpoint.bin holds one full image.
	var ckptLSN uint64
	restored := false
	if hadManifest && m.Version == 2 {
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
			restored = true
		}
	} else {
		ckptPath := filepath.Join(db.opts.Dir, "checkpoint.bin")
		if data, err := db.fs.ReadFile(ckptPath); err == nil {
			lsn, err := db.restoreCheckpoint(data, "checkpoint.bin")
			if err != nil {
				return err
			}
			ckptLSN = lsn
			restored = true
		} else if !os.IsNotExist(err) {
			return fmt.Errorf("chronicledb: checkpoint: %w", err)
		}
	}
	if restored {
		// Every restored view reflects exactly the mutations at or below
		// the checkpoint LSN; stamp that cursor so changefeed snapshot
		// splices anchor correctly, and raise the feed horizon — deltas
		// inside the checkpoint are not individually replayable.
		for _, name := range db.eng.ViewNames() {
			if v, ok := db.eng.View(name); ok {
				v.SetAppliedLSN(ckptLSN)
			}
		}
		if db.hub != nil {
			db.hub.SetBase(ckptLSN)
		}
	}

	// 3. WAL tail: every segment on disk, merged by global LSN so
	// relation updates interleave with appends exactly as they did live
	// (§2.3 proactive ordering). Records at or below the checkpoint LSN
	// are already inside the checkpoint — a crash between the checkpoint
	// replace and the WAL truncation leaves them in the log, and applying
	// them twice would double-count appends and resurrect stale relation
	// versions. Skipping them also keeps the LSN allocator aligned: replay
	// re-assigns LSNs starting from the checkpoint LSN, so each surviving
	// record re-acquires exactly the LSN it carried live.
	var segments []string
	if hadManifest && m.Version == 2 {
		// Rotated layout: replay every live segment the manifest lists, in
		// (stream, seq) order so the stable LSN sort keeps intra-stream
		// file order for any legacy zero-LSN records.
		live := append([]wal.Segment(nil), m.Live...)
		sort.Slice(live, func(i, j int) bool {
			if live[i].Stream != live[j].Stream {
				return live[i].Stream < live[j].Stream
			}
			return live[i].Seq < live[j].Seq
		})
		for _, s := range live {
			segments = append(segments, s.Name)
		}
	} else {
		segments = []string{"chronicle.wal"}
		if hadManifest {
			segments = append(segments, m.Segments...)
		}
	}
	_, err := wal.ReplayMergedFS(db.fs, db.opts.Dir, segments, ckptLSN, func(r wal.Record) error {
		switch r.Kind {
		case wal.RecDDL:
			s, err := sqlparse.ParseOne(r.Stmt)
			if err != nil {
				return err
			}
			_, err = db.execOne(s, execRecovery)
			return err
		case wal.RecAppend:
			parts := make([]engine.MutationPart, len(r.Parts))
			for i, p := range r.Parts {
				parts[i] = engine.MutationPart{Chronicle: p.Chronicle, Tuples: p.Tuples}
			}
			_, err := db.eng.AppendBatchAt(parts, r.SN, r.Chronon)
			return err
		case wal.RecAppendEach:
			// An idempotent bulk run: re-apply the tuples with their original
			// consecutive SNs and re-insert the dedup entry, so a client
			// retry after this recovery still gets the original ack.
			if len(r.Parts) != 1 {
				return fmt.Errorf("idempotent append record with %d parts", len(r.Parts))
			}
			p := r.Parts[0]
			return db.eng.AppendEachAt(p.Chronicle, r.SN, r.Chronon, p.Tuples, r.ClientID, r.RequestID)
		case wal.RecUpsert:
			return db.eng.Upsert(r.Relation, r.Tuple)
		case wal.RecDelete:
			_, err := db.eng.DeleteKey(r.Relation, r.Tuple)
			return err
		default:
			return fmt.Errorf("unknown WAL record kind %d", r.Kind)
		}
	})
	if err != nil {
		return fmt.Errorf("chronicledb: WAL replay: %w", err)
	}
	return nil
}

// Checkpoint atomically persists the database state. In the segmented
// layout it appends a (usually incremental) image to the checkpoint chain
// and flips the manifest; the logs are never truncated — replay skips
// records at or below the chain tip, and the compactor reclaims segments
// wholly below it. In the legacy layout it writes one full image to
// checkpoint.bin and truncates the logs. Either way the snapshot is cut
// with mutations quiesced — under the router's epoch barrier when sharded,
// under the engine's mutation lock otherwise — so the image is exactly the
// state at its header LSN. It is a no-op (with an error) for in-memory
// databases.
func (db *DB) Checkpoint() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.opts.Dir == "" {
		return fmt.Errorf("chronicledb: checkpoint requires a durable database (Options.Dir)")
	}
	if err := db.writeGate(); err != nil {
		return err
	}
	write := func() error {
		if db.segmented() {
			return db.writeSegmentedCheckpoint()
		}
		data, _, _, _, _, err := db.buildCheckpointImage(2, true)
		if err != nil {
			return fmt.Errorf("chronicledb: checkpoint: %w", err)
		}
		final := filepath.Join(db.opts.Dir, "checkpoint.bin")
		if err := wal.WriteFileAtomicFS(db.fs, final, data); err != nil {
			return fmt.Errorf("chronicledb: checkpoint: %w", err)
		}
		for _, l := range db.logs {
			if err := l.Reset(); err != nil {
				return fmt.Errorf("chronicledb: truncating WAL after checkpoint: %w", err)
			}
		}
		return nil
	}
	if db.router != nil {
		return db.router.Barrier(write)
	}
	if db.uno != nil {
		// Quiesce the engine for an exact cut. buildCheckpointImage only
		// uses lock-free accessors (published catalog, atomic LSN,
		// per-object locks), as Quiesce requires.
		return db.uno.Quiesce(write)
	}
	return write()
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
// version 2 is the legacy format: always a full image. version 3 prefixes
// a flags byte (bit 0 = full) and supports incremental images: when full
// is false, chronicles, relations, views, and periodic views are included
// only if their dirty marker moved since db.ckptMarks was captured (an
// absent marker means dirty, which covers objects created since the last
// cut). Groups (8 bytes each) and the dedup table (bounded by capacity)
// are always included. The returned marks are the markers observed at this
// cut; the caller installs them as db.ckptMarks only once the image is
// durably referenced. dirty counts the objects an incremental image
// includes, so an unchanged database can skip the chain entry entirely.
//
// version 4 keeps v3's framing and changes only the view payloads: each is
// prefixed by a subformat byte — 0 for a v1 whole image (unpaged views), 1
// for a self-contained blocked image (full cuts inline every block so the
// chain can fold), 2 for a blocked delta (incremental cuts carry only the
// dirty block runs; restore merges them into the index from earlier chain
// images, so incremental cost is flat in view cardinality). The returned
// commits must be applied after the manifest flip that makes the image
// authoritative.
//
// The markers are monotonic mutation counters, recomputed from the objects
// themselves: chronicle Total+Dropped (either moves on any append or
// retention drop), relation Updates, view Applies, periodic-view Applies.
// DDL (drop, or drop-and-recreate, which could leave a fresh object behind
// an unchanged marker) is handled by the caller forcing a full image via
// db.ddlDirty instead.
func (db *DB) buildCheckpointImage(version byte, full bool) (data []byte, lsn uint64, marks map[string]uint64, dirty int, commits []blockCommit, err error) {
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
	b = append(b, version)
	if version >= 3 {
		var flags byte
		if full {
			flags = 1
		}
		b = append(b, flags)
	}
	b = binary.LittleEndian.AppendUint64(b, lsn)

	groups := db.eng.GroupNames()
	b = binary.AppendUvarint(b, uint64(len(groups)))
	for _, name := range groups {
		g, _ := db.eng.Group(name)
		b = appendName(b, name)
		b = binary.LittleEndian.AppendUint64(b, uint64(g.LastSN()))
	}

	var incl []string
	chrons := db.eng.ChronicleNames()
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
	rels := db.eng.RelationNames()
	for _, name := range rels {
		r, _ := db.eng.Relation(name)
		if include("r:"+name, uint64(r.Updates())) {
			incl = append(incl, name)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(incl)))
	for _, name := range incl {
		r, _ := db.eng.Relation(name)
		b = appendName(b, name)
		var tuples []value.Tuple
		r.Scan(func(t value.Tuple) bool {
			tuples = append(tuples, t)
			return true
		})
		b = binary.AppendUvarint(b, uint64(len(tuples)))
		for _, t := range tuples {
			b = value.AppendTuple(b, t)
		}
	}

	incl = incl[:0]
	views := db.eng.ViewNames()
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
		if version >= 4 && v.Paged() {
			var (
				snap           []byte
				pend           []view.PendingBlock
				dirtyB, totalB int
				cerr           error
				sub            byte
			)
			if full {
				sub = 1 // self-contained blocked image: the chain can fold
				snap, pend, dirtyB, totalB, cerr = v.CheckpointBlocked(true)
			} else {
				sub = 2 // blocked delta: dirty runs only, merged at restore
				snap, pend, dirtyB, totalB, cerr = v.CheckpointBlockedDelta()
			}
			if cerr != nil {
				db.ckptBuf = b
				return nil, 0, nil, 0, nil, fmt.Errorf("chronicledb: checkpoint view %s: %w", name, cerr)
			}
			b = binary.AppendUvarint(b, uint64(len(snap)+1))
			b = append(b, sub)
			commits = append(commits, blockCommit{
				v: v, base: int64(len(b)), pend: pend, dirty: dirtyB, total: totalB,
			})
			b = append(b, snap...)
			continue
		}
		snap := v.Checkpoint()
		if version >= 4 {
			b = binary.AppendUvarint(b, uint64(len(snap)+1))
			b = append(b, 0) // subformat: v1 whole image
		} else {
			b = binary.AppendUvarint(b, uint64(len(snap)))
		}
		b = append(b, snap...)
	}

	incl = incl[:0]
	pviews := db.eng.PeriodicViewNames()
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

	// Dedup table (since v2): the idempotency entries live inside the
	// checkpoint because replay skips records at or below its LSN (and the
	// legacy layout truncates the log outright) — without this section a
	// retry arriving after checkpoint-and-crash would re-apply. The section
	// is bounded by the table capacity, so checkpoint size does not grow
	// with total request count. Restoring a chain re-Puts entries; Put
	// refreshes duplicates in place, so later chain files win.
	b = dedup.AppendEntries(b, db.eng.DedupEntries())
	db.ckptBuf = b
	return b, lsn, marks, dirty, commits, nil
}

// restoreCheckpoint rebuilds state from a checkpoint image and returns
// the LSN the checkpoint was cut at (the replay skip threshold). fileName
// is the chain file holding the image; version-4 blocked view sections
// resolve their inline block payloads relative to it.
func (db *DB) restoreCheckpoint(data []byte, fileName string) (uint64, error) {
	bad := func(what string) error {
		return fmt.Errorf("chronicledb: corrupt checkpoint (%s)", what)
	}
	if len(data) < 13 || string(data[:4]) != ckptMagic {
		return 0, bad("header")
	}
	version := data[4]
	if version < 1 || version > 4 {
		return 0, fmt.Errorf("chronicledb: unsupported checkpoint version %d", version)
	}
	off := 5
	if version >= 3 {
		// v3 (chain images) adds a flags byte: bit 0 marks a full image.
		// Decoding doesn't branch on it — every section carries its own
		// object count, and an incremental image simply lists fewer — but
		// the byte keeps full/incremental distinguishable for tooling.
		if len(data) < 14 {
			return 0, bad("header")
		}
		off++
	}
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
		nTuples, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return 0, bad("relation tuples")
		}
		off += n
		r, ok := db.eng.Relation(name)
		if !ok {
			return 0, fmt.Errorf("chronicledb: checkpoint references unknown relation %q", name)
		}
		// A chain restore can hit the same relation more than once; each
		// image's tuple set must replace the previous one, not merge in.
		r.Reset()
		for j := uint64(0); j < nTuples; j++ {
			t, used, err := value.DecodeTuple(data[off:])
			if err != nil {
				return 0, bad("relation tuple")
			}
			off += used
			if err := r.Upsert(lsn, t); err != nil {
				return 0, err
			}
		}
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
		payload := data[off : off+int(snapLen)]
		if version >= 4 {
			// v4 view payloads carry a subformat byte: 0 = v1 whole image,
			// 1 = blocked image (lazy block index for paged views, eager
			// fetch-and-decode for views reopened unpaged), 2 = blocked
			// delta (dirty runs merged into the index restored from earlier
			// chain images).
			if snapLen == 0 {
				return 0, bad("view subformat")
			}
			sub, body := payload[0], payload[1:]
			switch sub {
			case 0:
				if err := v.RestoreCheckpoint(body); err != nil {
					return 0, err
				}
			case 1:
				base := int64(off) + 1 // body's offset within the chain file
				if err := v.RestoreBlocked(body, fileName, base, db.blockFetch); err != nil {
					return 0, err
				}
			case 2:
				base := int64(off) + 1
				if err := v.RestoreBlockedDelta(body, fileName, base); err != nil {
					return 0, err
				}
			default:
				return 0, bad("view subformat")
			}
		} else if err := v.RestoreCheckpoint(payload); err != nil {
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

	// Dedup table (absent in v1 checkpoints, which predate idempotency).
	if version >= 2 {
		used, err := dedup.DecodeSnapshot(data[off:], func(e dedup.Entry) error {
			db.eng.RestoreDedupEntry(e)
			return nil
		})
		if err != nil {
			return 0, bad("dedup section")
		}
		off += used
	}
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
