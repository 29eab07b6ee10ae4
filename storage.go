package chronicledb

import (
	"fmt"
	"path/filepath"
	"strings"

	"chronicledb/internal/wal"
)

// Segmented storage layout (DESIGN.md §4f): each WAL stream is a chain of
// size-capped segment files, tracked by a version-2 manifest:
//
//   - Append rotates to a fresh segment when the active one would exceed
//     Options.WALSegmentBytes. Rotation is crash-atomic: the old segment
//     is fsynced, the new file is created, truncated, and fsynced, and
//     only then does the manifest flip (atomic replace + dirsync) seal the
//     old entry and register the new one. A failure anywhere latches the
//     log's sticky error — the DB degrades read-only rather than stranding
//     a half-registered segment.
//   - Checkpoints append (usually incremental) images to a checkpoint
//     chain instead of rewriting one full image, and never truncate logs;
//     replay skips records at or below the chain tip's LSN.
//   - The compactor runs inside each checkpoint: sealed segments whose
//     MaxLSN is at or below the new tip are deleted, and a full image
//     folds (deletes) the chain entries it supersedes.
//
// The manifest invariant that makes every flip safe: a file is created
// and fsynced before the flip that references it, and deleted only after
// the flip that drops it. A referenced file therefore always exists, and
// anything unreferenced is a crash leftover that sweepOrphans deletes at
// the next open.

// DefaultSegmentBytes is the segment cap when Options.WALSegmentBytes is 0.
const DefaultSegmentBytes int64 = 16 << 20

// DefaultCheckpointFullEvery is the chain-fold period when
// Options.CheckpointFullEvery is 0: every Nth checkpoint is full.
const DefaultCheckpointFullEvery = 8

// segmentCap returns the active segment byte cap.
func (db *DB) segmentCap() int64 {
	if db.opts.WALSegmentBytes > 0 {
		return db.opts.WALSegmentBytes
	}
	return DefaultSegmentBytes
}

// fullEvery returns the checkpoint-chain fold period.
func (db *DB) fullEvery() int {
	if db.opts.CheckpointFullEvery > 0 {
		return db.opts.CheckpointFullEvery
	}
	return DefaultCheckpointFullEvery
}

// streams returns the kernel's WAL stream names, in log-open order: one
// per shard, then the relation stream.
func (db *DB) streams() []string {
	n := db.eng.NumShards()
	s := make([]string, 0, n+1)
	for i := 0; i < n; i++ {
		s = append(s, wal.StreamName(i))
	}
	return append(s, wal.RelationStream)
}

// openSegmented opens the logs after recovery: it opens (or creates) the
// active segment of every stream, converts a manifest written under a
// different shard count by folding everything recovered into a full chain
// checkpoint and flipping to a fresh manifest, and sweeps any crash
// leftovers.
func (db *DB) openSegmented(old wal.Manifest, hadManifest bool) error {
	dir := db.opts.Dir
	nshards := db.eng.NumShards()
	convert := !hadManifest || old.Shards != nshards
	var man wal.Manifest
	if convert {
		man = wal.Manifest{Version: wal.ManifestVersion, Shards: nshards}
	} else {
		man = old.Clone()
	}

	// Create the active segment of any stream that lacks one, durably,
	// BEFORE the manifest flip that will reference it. The empty file
	// replaces a leftover with the same name (a conversion can reuse a file
	// name from the old manifest; its records were recovered above and are
	// preserved by the conversion checkpoint below).
	var created []wal.Segment
	for _, stream := range db.streams() {
		if man.Active(stream) >= 0 {
			continue
		}
		seq := man.MaxSeq(stream) + 1
		seg := wal.Segment{Name: wal.SegmentFileName(stream, seq), Stream: stream, Seq: seq}
		if err := wal.WriteFileAtomicFS(db.fs, filepath.Join(dir, seg.Name), nil); err != nil {
			return fmt.Errorf("chronicledb: creating segment %s: %w", seg.Name, err)
		}
		man.Live = append(man.Live, seg)
		created = append(created, seg)
	}

	db.man = man
	switch {
	case convert && (db.catalogSynced || hadManifest || db.eng.LSN() > 0):
		// Fold everything just recovered into a full chain checkpoint, whose
		// flip is the conversion's: the old manifest's files stop being
		// needed the instant it lands. A brand-new directory (nothing
		// recovered) skips this and starts with an empty chain. Open is
		// single-threaded, so no barrier or quiesce is needed for an exact
		// cut.
		if err := db.writeSegmentedCheckpoint(); err != nil {
			return fmt.Errorf("chronicledb: conversion checkpoint: %w", err)
		}
	case convert || len(created) > 0:
		// The flip. Its atomic replace ends with a dirsync, which also
		// makes the just-created segments' directory entries durable.
		if err := wal.WriteManifestFS(db.fs, dir, man); err != nil {
			return fmt.Errorf("chronicledb: %w", err)
		}
	}

	// A conversion's flip dropped the old manifest: the sweep deletes its
	// files with any other crash leftover.
	db.sweepOrphans()

	// Open the active segment of every stream, in the same order
	// installRecorders expects the logs.
	policy := wal.SyncNone
	if db.opts.SyncWAL {
		policy = wal.SyncGroup
	}
	for _, stream := range db.streams() {
		i := db.man.Active(stream)
		if i < 0 {
			db.closeLogs()
			return fmt.Errorf("chronicledb: manifest has no active segment for stream %s", stream)
		}
		seg := db.man.Live[i]
		var start int64
		if fi, err := db.fs.Stat(filepath.Join(dir, seg.Name)); err == nil {
			start = fi.Size()
		}
		log, err := wal.OpenSegmentFS(db.fs, dir, stream, seg.Seq, start, db.segmentCap(), policy, db.rotateManifest)
		if err != nil {
			db.closeLogs()
			return fmt.Errorf("chronicledb: %w", err)
		}
		db.logs = append(db.logs, log)
	}
	return nil
}

// rotateManifest is the segment-rotation hook: called by a log, under its
// own lock, after the sealed segment's content and the next segment's
// empty file are both durable. It flips the manifest to seal the old entry
// (recording its final size and MaxLSN) and register the new one. An error
// aborts the rotation — the log latches it sticky and the DB degrades
// read-only. Lock order: l.mu → manMu; checkpoint takes manMu without any
// log lock, so there is no inversion.
func (db *DB) rotateManifest(sealed, next wal.Segment) error {
	db.manMu.Lock()
	defer db.manMu.Unlock()
	newMan := db.man.Clone()
	replaced := false
	for i := range newMan.Live {
		if newMan.Live[i].Stream == sealed.Stream && newMan.Live[i].Seq == sealed.Seq {
			newMan.Live[i] = sealed
			replaced = true
			break
		}
	}
	if !replaced {
		newMan.Live = append(newMan.Live, sealed)
	}
	newMan.Live = append(newMan.Live, next)
	if err := wal.WriteManifestFS(db.fs, db.opts.Dir, newMan); err != nil {
		return err
	}
	db.man = newMan
	return nil
}

// sweepOrphans deletes storage files in the data directory that the
// current manifest does not reference: segments or checkpoints created
// just before a crash that never got their flip, atomic-write temp files,
// and conversion leftovers whose deletion did not complete.
func (db *DB) sweepOrphans() {
	names, err := db.fs.ReadDir(db.opts.Dir)
	if err != nil {
		return
	}
	ref := map[string]bool{wal.ManifestName: true, "catalog.sql": true}
	for _, s := range db.man.Live {
		ref[s.Name] = true
	}
	for _, c := range db.man.Checkpoints {
		ref[c.Name] = true
	}
	removed := false
	for _, name := range names {
		if ref[name] {
			continue
		}
		storage := strings.HasSuffix(name, ".wal") ||
			(strings.HasPrefix(name, "checkpoint") && strings.HasSuffix(name, ".bin")) ||
			strings.Contains(name, ".tmp")
		if !storage {
			continue
		}
		if db.fs.Remove(filepath.Join(db.opts.Dir, name)) == nil {
			removed = true
		}
	}
	if removed {
		db.fs.SyncDir(db.opts.Dir)
	}
}

// writeSegmentedCheckpoint cuts a checkpoint image, appends it to the
// chain, flips the manifest, and compacts. The caller must have quiesced
// mutations (router barrier or single-threaded Open) and hold db.mu.
//
// Full-vs-incremental policy: the first checkpoint after open is full (no
// marks yet), DDL since the last cut forces full (a dropped — or dropped
// and recreated — object is invisible to the monotonic markers), and every
// fullEvery'th checkpoint is full so the chain folds. A full image
// supersedes the whole chain: the flip removes the old entries and the
// compactor deletes their files. Segments are reclaimed on every
// checkpoint: a sealed segment whose MaxLSN is at or below the new tip LSN
// holds only records the chain already covers.
//
// The image records the catalog prefix k it was cut against. DDL runs
// under db.mu, which the caller holds, so no statement is half applied:
// the image reflects exactly catalog statements 0..k-1.
func (db *DB) writeSegmentedCheckpoint() error {
	k := db.ddlSeq.Load()
	full := db.ckptMarks == nil || k != db.ckptCatalog || db.incrSinceFull+1 >= db.fullEvery()
	data, lsn, marks, dirty, commits, err := db.buildCheckpointImage(full)
	if err != nil {
		return err
	}
	if !full && dirty == 0 && lsn == db.lastCkptLSN.Load() {
		// Nothing moved since the last cut; skip the no-op chain entry
		// (periodic checkpoint tickers on idle databases hit this).
		return nil
	}

	db.manMu.Lock()
	defer db.manMu.Unlock()
	seq := db.man.NextCheckpointSeq()
	name := wal.CheckpointFileName(seq)
	if err := wal.WriteFileAtomicFS(db.fs, filepath.Join(db.opts.Dir, name), data); err != nil {
		return fmt.Errorf("chronicledb: checkpoint: %w", err)
	}

	newMan := db.man.Clone()
	var drop []string
	var folded int64
	if full {
		for _, c := range newMan.Checkpoints {
			drop = append(drop, c.Name)
			folded++
		}
		newMan.Checkpoints = newMan.Checkpoints[:0]
	}
	newMan.Checkpoints = append(newMan.Checkpoints, wal.CheckpointRef{Name: name, Seq: seq, LSN: lsn, Full: full, Catalog: k})
	var reclaimedBytes, reclaimedSegs int64
	live := newMan.Live[:0]
	for _, s := range newMan.Live {
		// Conservative: a segment sealed before this process appended to it
		// reports MaxLSN 0, which only an empty segment may match — never
		// reclaim those.
		if s.Sealed && (s.Bytes == 0 || (s.MaxLSN > 0 && s.MaxLSN <= lsn)) {
			drop = append(drop, s.Name)
			reclaimedBytes += s.Bytes
			reclaimedSegs++
			continue
		}
		live = append(live, s)
	}
	newMan.Live = live

	if err := wal.WriteManifestFS(db.fs, db.opts.Dir, newMan); err != nil {
		// The chain file just written is unreferenced; the next open's
		// sweep collects it.
		return fmt.Errorf("chronicledb: checkpoint: %w", err)
	}
	db.man = newMan
	// The flip made the new image authoritative: install the blocked views'
	// durable refs now, before the compactor deletes any superseded chain
	// file a pre-commit ref might still point at, and record the cut's
	// block counts.
	if len(commits) > 0 {
		var dirtyBlocks, totalBlocks int64
		for _, bc := range commits {
			bc.v.CommitBlockRefs(name, bc.base, bc.pend)
			dirtyBlocks += int64(bc.dirty)
			totalBlocks += int64(bc.total)
		}
		db.ckptDirtyBlocks.Store(dirtyBlocks)
		db.ckptTotalBlocks.Store(totalBlocks)
		// The cut just turned the write burst's dirty blocks clean (hence
		// evictable); shed to budget now instead of waiting for a read fault.
		if db.viewCache != nil {
			db.viewCache.Maintain()
		}
	}

	if len(drop) > 0 {
		removed := false
		for _, n := range drop {
			if db.fs.Remove(filepath.Join(db.opts.Dir, n)) == nil {
				removed = true
			}
		}
		if removed {
			// Best-effort: failures leave orphans for the next open's sweep.
			db.fs.SyncDir(db.opts.Dir)
		}
	}

	db.ckptMarks = marks
	db.ckptCatalog = k
	db.lastCkptLSN.Store(lsn)
	if full {
		db.ckptFull.Add(1)
		db.ckptsFolded.Add(folded)
		db.incrSinceFull = 0
	} else {
		db.ckptIncr.Add(1)
		db.incrSinceFull++
	}
	db.reclaimedBytes.Add(reclaimedBytes)
	db.segsReclaimed.Add(reclaimedSegs)
	return nil
}
