package chronicledb

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"chronicledb/internal/chronicle"
	"chronicledb/internal/dedup"
	"chronicledb/internal/engine"
	"chronicledb/internal/shard"
	"chronicledb/internal/sqlparse"
	"chronicledb/internal/value"
	"chronicledb/internal/view"
	"chronicledb/internal/wal"
)

// Durability layout under Options.Dir:
//
//	catalog.sql          — every DDL statement, in order, as the client wrote
//	                       it (Statement.Text) and then ";\n"; the schema is
//	                       replayed through the normal planner at recovery
//	wal.manifest         — version-3 manifest: the live WAL segments of every
//	                       stream plus the checkpoint chain; the single source
//	                       of truth for which files recovery reads, and the
//	                       version of the whole directory's layout
//	<stream>-NNNNNNNN.wal — size-capped WAL segments; appends rotate to a
//	                       fresh segment at the cap
//	checkpoint-NNNNNNNN.bin — checkpoint chain: a full image followed by
//	                       incremental images holding only objects dirtied
//	                       since the previous cut
//
// Recovery order: the catalog prefix the checkpoint chain was cut against
// → the chain → the rest of the catalog → the WAL tail. Checkpoint and
// manifest files are only ever replaced atomically (write-temp, fsync,
// rename, dirsync), so a crash mid-flip leaves the previous complete
// image. The logs are never truncated; instead replay skips records at or
// below the chain's tip LSN, and the compactor deletes segments wholly
// below it — recovery work and disk stay proportional to the write rate
// since the last checkpoint (E12, E20).

const (
	ckptMagic   = "CDBC"
	ckptVersion = 8 // the only image format read or written
)

// recover rebuilds in-memory state from disk. Called by Open before the
// WAL is reopened for appending. It replays every live segment the manifest
// lists, merged into global LSN order, so the streams on disk need not
// match the kernel being opened (shard counts may change across restarts).
// A directory without a manifest has no checkpoint and no WAL: the zero
// Manifest recovers the catalog alone.
func (db *DB) recover(m wal.Manifest) error {
	// 1. Catalog: parse the DDL.
	stmts, text, torn, err := db.readCatalog()
	if err != nil {
		return err
	}
	if torn {
		// Repair the torn tail now: the file is opened in append mode for
		// future DDL, which must land after the last valid statement, not
		// after the garbage.
		if err := wal.WriteFileAtomicFS(db.fs, db.catalogPath, []byte(text)); err != nil {
			return fmt.Errorf("chronicledb: repairing torn catalog: %w", err)
		}
	}
	replay := func(stmts []sqlparse.Statement) error {
		for _, s := range stmts {
			if _, err := db.execOne(s, execRecovery); err != nil {
				return fmt.Errorf("chronicledb: replaying catalog: %w", err)
			}
		}
		return nil
	}

	// 2. The catalog prefix the chain was cut against, the chain, then the
	// rest of the catalog: each image restores into exactly the objects it
	// was cut from, and DDL after the cut applies to the restored state —
	// a view created later backfills from the restored chronicle, one
	// dropped later goes after its image restored.
	k, err := chainCatalog(m.Checkpoints, len(stmts))
	if err != nil {
		return err
	}
	if err := replay(stmts[:k]); err != nil {
		return err
	}
	ckptLSN, err := db.restoreChain(m.Checkpoints)
	if err != nil {
		return err
	}
	if err := replay(stmts[k:]); err != nil {
		return err
	}

	// 3. WAL tail: every live segment, merged by global LSN so relation
	// updates interleave with appends exactly as they did live (§2.3
	// proactive ordering). Records at or below the checkpoint LSN are
	// already inside the checkpoint, and applying them twice would
	// double-count appends and resurrect stale relation versions. Every
	// surviving record applies at the LSNs it carried live, and moves the
	// allocator past them.
	if _, err := wal.ReplayMergedFS(db.fs, db.opts.Dir, liveSegmentNames(m.Live), ckptLSN, db.eng.Replay); err != nil {
		return fmt.Errorf("chronicledb: WAL replay: %w", err)
	}
	return nil
}

// readCatalog reads and parses catalog.sql; text is the catalog trimmed to
// its last whole statement. A power cut can tear the final statement
// mid-write; every *acked* statement was fully written and fsynced, so
// dropping what follows the last ';' token (sqlparse.Split) drops only
// unacked bytes, and torn reports that it did. A ';' inside a literal or a
// comment of the torn statement is not a terminator. A catalog with no
// terminator at all is corruption, not a torn tail (the file's dir entry
// only becomes durable after the first acked statement), and so is any
// lexical error but a token the end of the file cut off.
func (db *DB) readCatalog() (stmts []sqlparse.Statement, text string, torn bool, err error) {
	src, err := db.fs.ReadFile(db.catalogPath)
	if err != nil && !os.IsNotExist(err) {
		return nil, "", false, fmt.Errorf("chronicledb: catalog: %w", err)
	}
	if len(src) == 0 {
		return nil, "", false, nil
	}
	text = string(src)
	pieces, rest, err := sqlparse.Split(text)
	if err == nil && len(pieces) == 0 && rest != "" {
		err = fmt.Errorf("no statement terminator")
	}
	if err == nil {
		text = text[:len(text)-len(rest)]
		stmts, err = sqlparse.Parse(text)
	}
	if err != nil {
		return nil, "", false, fmt.Errorf("chronicledb: corrupt catalog: %w", err)
	}
	return stmts, text, len(text) < len(src), nil
}

// chainCatalog returns how many of a catalog's n statements precede the
// checkpoint chain refs: the prefix the chain was cut against (see
// wal.CheckpointRef.Catalog). DDL forces a full cut, which folds the chain,
// so every ref of one chain carries the same prefix.
func chainCatalog(refs []wal.CheckpointRef, n int) (int, error) {
	if len(refs) == 0 {
		return 0, nil // nothing restores against the catalog
	}
	k := refs[0].Catalog
	for _, c := range refs[1:] {
		if c.Catalog != k {
			return 0, fmt.Errorf("chronicledb: checkpoint chain %s cut against %d catalog statements, %s against %d",
				refs[0].Name, k, c.Name, c.Catalog)
		}
	}
	if k > uint64(n) {
		return 0, fmt.Errorf("chronicledb: checkpoint chain cut against %d catalog statements; the catalog holds %d", k, n)
	}
	return int(k), nil
}

// restoreChain restores a checkpoint chain — a full image plus incremental
// images holding only the objects dirtied since the previous cut — and
// returns its tip LSN, the replay skip threshold. Recovery and a
// follower's bootstrap both restore through it. The chain restores in
// ascending sequence order: each file *replaces* the state of the objects
// it contains. The manifest invariant (files are fsynced before the flip
// that references them, deleted only after the flip that drops them) makes
// a referenced-but-missing chain file genuine corruption, not a crash
// artifact.
func (db *DB) restoreChain(refs []wal.CheckpointRef) (uint64, error) {
	refs = append([]wal.CheckpointRef(nil), refs...)
	sort.Slice(refs, func(i, j int) bool { return refs[i].Seq < refs[j].Seq })
	var lsn uint64
	for _, c := range refs {
		data, err := db.fs.ReadFile(filepath.Join(db.opts.Dir, c.Name))
		if err == nil {
			lsn, err = db.restoreCheckpoint(data, c.Name)
		}
		if err != nil {
			return 0, fmt.Errorf("chronicledb: checkpoint chain %s: %w", c.Name, err)
		}
	}
	if len(refs) > 0 {
		// Every restored view reflects exactly the mutations at or below
		// the chain's LSN; stamp that cursor so changefeed snapshot
		// splices anchor correctly, and raise the feed horizon — deltas
		// inside the checkpoint are not individually replayable. Below it
		// the log may be compacted: a follower asking for it is told so.
		db.lastCkptLSN.Store(lsn)
		for _, name := range db.eng.Names(shard.Views) {
			if v, ok := db.eng.View(name); ok {
				v.SetAppliedLSN(lsn)
			}
		}
		if db.hub != nil {
			db.hub.SetBase(lsn)
		}
	}
	return lsn, nil
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
// The image is version 7: magic, version byte, the LSN, then one section per
// object kind (whether an image is full is recorded by its
// wal.CheckpointRef). When full is false,
// chronicles, relations, views, and periodic views are included only if
// their dirty marker moved since db.ckptMarks was captured (an absent
// marker means dirty, which covers objects created since the last cut).
// Groups (8 bytes each) and the dedup table (bounded by capacity) are
// always included. The returned marks are the markers observed at this cut;
// the caller installs them as db.ckptMarks only once the image is durably
// referenced. dirty counts the objects an incremental image includes, so an
// unchanged database can skip the chain entry entirely.
//
// Every view of a durable database pages, so a view's payload is its blocked
// image: runs of blocks, each replacing the key range it covers in the index
// earlier chain images built. A full cut is the one run that spans the key
// space, so the chain can fold; an incremental cut carries only the dirty
// runs, so its cost is flat in view cardinality. The returned commits must be
// applied after the manifest flip that makes the image authoritative.
//
// The markers are monotonic mutation counters, recomputed from the objects
// themselves: chronicle Total+Dropped (either moves on any append or
// retention drop), relation Updates, view Applies, periodic-view Applies.
// DDL (drop, or drop-and-recreate, which could leave a fresh object behind
// an unchanged marker) is handled by the caller forcing a full image when
// the catalog moved since the last cut instead.
func (db *DB) buildCheckpointImage(full bool) (data []byte, lsn uint64, marks map[string]uint64, dirty int, commits []blockCommit, err error) {
	lsn = db.eng.LSN()
	b := db.ckptBuf[:0]
	b = append(b, ckptMagic...)
	b = append(b, ckptVersion)
	b = binary.LittleEndian.AppendUint64(b, lsn)

	groups := db.eng.Names(shard.Groups)
	b = binary.AppendUvarint(b, uint64(len(groups)))
	for _, name := range groups {
		g, _ := db.eng.Group(name)
		b = appendName(b, name)
		b = binary.LittleEndian.AppendUint64(b, uint64(g.LastSN()))
	}

	// included lists the objects of a kind the image holds — those whose
	// marker moved since the last cut, or all of them in a full image — and
	// appends their count.
	marks = make(map[string]uint64)
	included := func(kind shard.Kind, prefix string, marker func(name string) uint64) []string {
		var incl []string
		for _, name := range db.eng.Names(kind) {
			if (kind == shard.Views || kind == shard.PeriodicViews) && !db.catalogViews[name] {
				continue // made through Engine(): the catalog cannot remake it
			}
			cur := marker(name)
			marks[prefix+name] = cur
			if prev, ok := db.ckptMarks[prefix+name]; full || !ok || prev != cur {
				if !full {
					dirty++
				}
				incl = append(incl, name)
			}
		}
		b = binary.AppendUvarint(b, uint64(len(incl)))
		return incl
	}

	for _, name := range included(shard.Chronicles, "c:", func(name string) uint64 {
		c, _ := db.eng.Chronicle(name)
		return uint64(c.Total() + c.Dropped())
	}) {
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

	for _, name := range included(shard.Relations, "r:", func(name string) uint64 {
		r, _ := db.eng.Relation(name)
		return uint64(r.Updates())
	}) {
		r, _ := db.eng.Relation(name)
		b = r.AppendImage(appendName(b, name))
	}

	for _, name := range included(shard.Views, "v:", func(name string) uint64 {
		v, _ := db.eng.View(name)
		return uint64(v.Stats().Applies)
	}) {
		v, _ := db.eng.View(name)
		b = appendName(b, name)
		snap, pend, dirtyB, totalB, cerr := v.CheckpointBlocked(full)
		if cerr != nil {
			db.ckptBuf = b
			return nil, 0, nil, 0, nil, fmt.Errorf("chronicledb: checkpoint view %s: %w", name, cerr)
		}
		b = binary.AppendUvarint(b, uint64(len(snap)))
		commits = append(commits, blockCommit{
			v: v, base: int64(len(b)), pend: pend, dirty: dirtyB, total: totalB,
		})
		b = append(b, snap...)
	}

	for _, name := range included(shard.PeriodicViews, "p:", func(name string) uint64 {
		pv, _ := db.eng.PeriodicView(name)
		return uint64(pv.Applies())
	}) {
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
	if len(data) < 13 || string(data[:4]) != ckptMagic {
		return 0, fmt.Errorf("chronicledb: corrupt checkpoint (header)")
	}
	if version := data[4]; version != ckptVersion {
		return 0, fmt.Errorf("%w: checkpoint image version %d (want %d)", ErrUnsupportedLayout, version, ckptVersion)
	}
	// A full image and an incremental one read alike: every section carries
	// its own object count, and an incremental image simply lists fewer.
	r := &ckptReader{data: data, off: 5}
	lsn := r.u64("lsn")
	db.eng.RestoreLSN(lsn)

	for n := r.uvarint("group count"); n > 0 && r.ok(); n-- {
		name, lastSN := r.name("group name"), int64(r.u64("group sn"))
		if g, ok := db.eng.Group(name); ok && lastSN >= 0 && r.ok() {
			g.RestoreLastSN(lastSN)
		}
	}

	for n := r.uvarint("chronicle count"); n > 0 && r.ok(); n-- {
		name, dropped := r.name("chronicle name"), int64(r.u64("chronicle dropped"))
		var rows []chronicle.Row
		for m := r.uvarint("chronicle rows"); m > 0 && r.ok(); m-- {
			row := chronicle.Row{SN: int64(r.u64("chronicle row sn")), Chronon: int64(r.u64("chronicle row chronon")), LSN: r.u64("chronicle row lsn")}
			row.Vals = r.tuple("chronicle row tuple")
			rows = append(rows, row)
		}
		if !r.ok() {
			break
		}
		c, ok := db.eng.Chronicle(name)
		if !ok {
			return 0, fmt.Errorf("chronicledb: checkpoint references unknown chronicle %q", name)
		}
		if err := c.Restore(rows, dropped); err != nil {
			return 0, err
		}
	}

	for n := r.uvarint("relation count"); n > 0 && r.ok(); n-- {
		name := r.name("relation name")
		rel, ok := db.eng.Relation(name)
		if !r.ok() {
			break
		}
		if !ok {
			return 0, fmt.Errorf("chronicledb: checkpoint references unknown relation %q", name)
		}
		// A chain restore can hit the same relation more than once; each
		// image's rows replace the previous one's, not merge in.
		used, err := rel.RestoreImage(lsn, data[r.off:])
		if err != nil {
			return 0, fmt.Errorf("chronicledb: corrupt checkpoint: %w", err)
		}
		r.off += used
	}

	for n := r.uvarint("view count"); n > 0 && r.ok(); n-- {
		name := r.name("view name")
		snap := r.bytes(r.uvarint("view snapshot"), "view snapshot")
		if !r.ok() {
			break
		}
		v, ok := db.eng.View(name)
		if !ok {
			return 0, fmt.Errorf("chronicledb: checkpoint references unknown view %q", name)
		}
		// The payload is a blocked image (runs spliced into the block index
		// earlier chain images built), whose blocks sit at its offset within
		// the chain file.
		if err := v.RestoreBlocked(snap, fileName, int64(r.off-len(snap))); err != nil {
			return 0, err
		}
	}

	for n := r.uvarint("periodic view count"); n > 0 && r.ok(); n-- {
		name := r.name("periodic view name")
		snap := r.bytes(r.uvarint("periodic view snapshot"), "periodic view snapshot")
		if !r.ok() {
			break
		}
		pv, ok := db.eng.PeriodicView(name)
		if !ok {
			return 0, fmt.Errorf("chronicledb: checkpoint references unknown periodic view %q", name)
		}
		if err := pv.RestoreCheckpoint(snap); err != nil {
			return 0, err
		}
	}

	// Dedup table.
	// Each entry goes back to its chronicle's home shard; entries whose
	// chronicle no longer resolves (dropped between checkpoint and crash) are
	// ignored — with no chronicle there is nothing a retry could double-apply.
	if r.ok() {
		used, err := dedup.DecodeSnapshot(data[r.off:], func(ent dedup.Entry) error {
			if home, ok := db.eng.Home(ent.Chronicle); ok {
				home.RestoreDedupEntry(ent)
			}
			return nil
		})
		if err != nil {
			r.fail("dedup section")
		}
		r.off += used
	}
	if r.ok() && r.off != len(data) {
		r.fail("trailing bytes")
	}
	if !r.ok() {
		return 0, fmt.Errorf("chronicledb: corrupt checkpoint (%s)", r.bad)
	}
	return lsn, nil
}

func appendName(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// ckptReader decodes a checkpoint image front to back. The first short or
// malformed field sticks: it moves the offset to the end, every later read
// returns a zero value, and the section loops, which check ok, stop.
type ckptReader struct {
	data []byte
	off  int
	bad  string // what failed first; empty while the image reads
}

func (r *ckptReader) ok() bool { return r.bad == "" }

func (r *ckptReader) fail(what string) {
	if r.ok() {
		r.bad = what
	}
	r.off = len(r.data)
}

func (r *ckptReader) uvarint(what string) uint64 {
	x, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.fail(what)
		return 0
	}
	r.off += n
	return x
}

func (r *ckptReader) u64(what string) uint64 {
	if b := r.bytes(8, what); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// bytes returns the next n bytes (nil once the image failed to read).
func (r *ckptReader) bytes(n uint64, what string) []byte {
	if uint64(len(r.data)-r.off) < n {
		r.fail(what)
		return nil
	}
	r.off += int(n)
	return r.data[r.off-int(n) : r.off]
}

func (r *ckptReader) name(what string) string {
	return string(r.bytes(r.uvarint(what), what))
}

func (r *ckptReader) tuple(what string) value.Tuple {
	t, used, err := value.DecodeTuple(r.data[r.off:])
	if err != nil {
		r.fail(what)
		return nil
	}
	r.off += used
	return t
}
