package chronicledb

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"chronicledb/internal/fault"
	"chronicledb/internal/value"
	"chronicledb/internal/wal"
)

// storageDDL is the small schema the segmented-layout tests share.
const storageDDL = `
	CREATE CHRONICLE items (k STRING, n INT);
	CREATE VIEW totals AS SELECT k, SUM(n) AS total, COUNT(*) AS cnt FROM items GROUP BY k;
`

func lookupTotals(t *testing.T, db *DB, key string) (total, cnt int64) {
	t.Helper()
	row, ok, err := db.Lookup("totals", Str(key))
	if err != nil || !ok {
		t.Fatalf("totals(%s) = %v %v %v", key, row, ok, err)
	}
	return row[1].AsInt(), row[2].AsInt()
}

// TestSegmentRotationAndReopen: a small cap forces rotations mid-stream;
// every segment must land in the manifest and recovery must replay the
// whole chain back into the exact view state.
func TestSegmentRotationAndReopen(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, WALSegmentBytes: 256}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, storageDDL)
	var want int64
	for i := int64(1); i <= 100; i++ {
		if _, err := db.Append("items", Tuple{Str("a"), Int(i)}); err != nil {
			t.Fatal(err)
		}
		want += i
	}
	w := db.WALStats()
	if w.SegmentCap != 256 {
		t.Fatalf("WALStats segmented gauges = %+v", w)
	}
	if w.Rotations == 0 || w.Segments < 2 || w.SealedSegments == 0 {
		t.Errorf("expected rotations under a 256-byte cap: %+v", w)
	}
	if total, cnt := lookupTotals(t, db, "a"); total != want || cnt != 100 {
		t.Errorf("live totals = %d/%d, want %d/100", total, cnt, want)
	}
	db.Close()

	// The manifest must reference exactly the .wal files on disk.
	m, ok, err := wal.ReadManifestFS(fault.OS, dir)
	if err != nil || !ok || m.Version != wal.ManifestVersion {
		t.Fatalf("manifest = %+v %v %v", m, ok, err)
	}
	onDisk := map[string]bool{}
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".wal") {
			onDisk[e.Name()] = true
		}
	}
	if len(onDisk) != len(m.Live) {
		t.Errorf("%d .wal files on disk, manifest lists %d", len(onDisk), len(m.Live))
	}
	for _, s := range m.Live {
		if !onDisk[s.Name] {
			t.Errorf("manifest references missing segment %s", s.Name)
		}
	}

	db2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if total, cnt := lookupTotals(t, db2, "a"); total != want || cnt != 100 {
		t.Errorf("recovered totals = %d/%d, want %d/100", total, cnt, want)
	}
	// Appends continue on the recovered active segment.
	if _, err := db2.Append("items", Tuple{Str("a"), Int(1)}); err != nil {
		t.Fatal(err)
	}
	if total, _ := lookupTotals(t, db2, "a"); total != want+1 {
		t.Errorf("post-recovery append: total = %d", total)
	}
}

// TestSegmentedCheckpointChain: incremental checkpoints chain between full
// folds, the compactor reclaims sealed segments below the tip, and both
// the chain and the live segment set stay bounded as the workload runs.
func TestSegmentedCheckpointChain(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, WALSegmentBytes: 256, CheckpointFullEvery: 3}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, storageDDL)
	var want int64
	var n int64
	for round := 0; round < 8; round++ {
		for i := int64(1); i <= 20; i++ {
			if _, err := db.Append("items", Tuple{Str("a"), Int(i)}); err != nil {
				t.Fatal(err)
			}
			want += i
			n++
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	w := db.WALStats()
	if w.CheckpointsFull < 2 {
		t.Errorf("CheckpointsFull = %d, want >= 2 (first + folds)", w.CheckpointsFull)
	}
	if w.CheckpointsIncremental < 2 {
		t.Errorf("CheckpointsIncremental = %d, want >= 2", w.CheckpointsIncremental)
	}
	if w.CheckpointsFolded == 0 {
		t.Error("no chain entries folded")
	}
	if w.SegmentsReclaimed == 0 || w.ReclaimedBytes == 0 {
		t.Errorf("compaction reclaimed nothing: %+v", w)
	}
	if w.Checkpoints > 3 {
		t.Errorf("chain length %d not bounded by fold period 3", w.Checkpoints)
	}
	// Every record up to the last checkpoint is covered by the chain, so
	// the live set is only the checkpoint-to-now tail: far fewer segments
	// than were ever created.
	created := int(w.Rotations) + 1
	if w.Segments >= created {
		t.Errorf("live segments %d not reclaimed (created %d)", w.Segments, created)
	}
	if w.LastCheckpointLSN == 0 {
		t.Error("LastCheckpointLSN = 0 after checkpoints")
	}
	db.Close()

	db2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if total, cnt := lookupTotals(t, db2, "a"); total != want || cnt != n {
		t.Errorf("recovered totals = %d/%d, want %d/%d", total, cnt, want, n)
	}
	// Incremental images restore chained: another write/checkpoint cycle
	// on the recovered DB stays consistent.
	if _, err := db2.Append("items", Tuple{Str("a"), Int(5)}); err != nil {
		t.Fatal(err)
	}
	if err := db2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if total, _ := lookupTotals(t, db2, "a"); total != want+5 {
		t.Errorf("post-recovery totals = %d, want %d", total, want+5)
	}
}

// TestCheckpointSkipsWhenIdle: an incremental checkpoint with nothing
// dirty writes no chain entry (the periodic ticker on an idle DB must not
// grow the chain).
func TestCheckpointSkipsWhenIdle(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, CheckpointFullEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, storageDDL)
	if _, err := db.Append("items", Tuple{Str("a"), Int(1)}); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil { // full (first)
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := db.Checkpoint(); err != nil { // idle: must be a no-op
			t.Fatal(err)
		}
	}
	w := db.WALStats()
	if w.Checkpoints != 1 || w.CheckpointsIncremental != 0 {
		t.Errorf("idle checkpoints not skipped: %+v", w)
	}
}

// TestLayoutConversions reopens one directory under shard counts 1 → 4 → 2
// → 1, checking data survival and that each count's stream files fully
// replace the previous one's.
func TestLayoutConversions(t *testing.T) {
	dir := t.TempDir()
	var want, cnt int64
	for step, shards := range []int{1, 4, 2, 1} {
		db, err := Open(Options{Dir: dir, Shards: shards, WALSegmentBytes: 512})
		if err != nil {
			t.Fatalf("step %d (%d shards): %v", step, shards, err)
		}
		if step == 0 {
			mustExec(t, db, storageDDL)
		} else if total, n := lookupTotals(t, db, "a"); total != want || n != cnt {
			t.Fatalf("step %d (%d shards): recovered %d/%d, want %d/%d", step, shards, total, n, want, cnt)
		}
		for i := int64(1); i <= 30; i++ {
			if _, err := db.Append("items", Tuple{Str("a"), Int(i)}); err != nil {
				t.Fatal(err)
			}
			want += i
			cnt++
		}
		db.Close()

		m, ok, err := wal.ReadManifestFS(fault.OS, dir)
		if err != nil || !ok || m.Shards != shards {
			t.Fatalf("step %d: manifest = %+v %v %v, want %d shards", step, m, ok, err, shards)
		}
		if step > 0 && len(m.Checkpoints) == 0 {
			t.Errorf("step %d: conversion left no chain checkpoint", step)
		}
		streams := map[string]bool{wal.RelationStream: true}
		for i := 0; i < shards; i++ {
			streams[wal.StreamName(i)] = true
		}
		for _, seg := range m.Live {
			if !streams[seg.Stream] {
				t.Errorf("step %d: manifest keeps segment %s of a stream %d shards do not have", step, seg.Name, shards)
			}
		}
		// Everything on disk is referenced: the previous count's files are gone.
		ref := map[string]bool{wal.ManifestName: true, "catalog.sql": true}
		for _, seg := range m.Live {
			ref[seg.Name] = true
		}
		for _, c := range m.Checkpoints {
			ref[c.Name] = true
		}
		entries, _ := os.ReadDir(dir)
		for _, e := range entries {
			if !ref[e.Name()] {
				t.Errorf("step %d: %s survived the conversion to %d shards", step, e.Name(), shards)
			}
		}
	}
}

// TestOpenRejectsWhatItNoLongerReads: input this version has no reader for
// is refused by name — never converted, and never started empty over.
func TestOpenRejectsWhatItNoLongerReads(t *testing.T) {
	plant := func(name, content string) func(string) error {
		return func(dir string) error { return os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644) }
	}
	// manifestVersion restamps the manifest as an older version, the
	// directory otherwise whole: a version-2 directory holds append calls in
	// a record layout no reader here has.
	manifestVersion := func(version int) func(string) error {
		return func(dir string) error {
			path := filepath.Join(dir, wal.ManifestName)
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			cur := fmt.Appendf(nil, `"version":%d`, wal.ManifestVersion)
			if !bytes.Contains(data, cur) {
				return fmt.Errorf("manifest %s has no %s", data, cur)
			}
			return os.WriteFile(path, bytes.Replace(data, cur, fmt.Appendf(nil, `"version":%d`, version), 1), 0o644)
		}
	}
	// imageVersion restamps the checkpoint image as an older version: v7
	// family images hold every instance's groups where v8 holds panes, v6
	// images carry a flags byte and a byte before each view's image, v5
	// entries a value-encoded tuple where v6 holds the stored key.
	imageVersion := func(version byte) func(string) error {
		return func(dir string) error {
			path := filepath.Join(dir, wal.CheckpointFileName(1))
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			data[4] = version
			return os.WriteFile(path, data, 0o644)
		}
	}
	cases := []struct {
		name    string
		opts    Options
		prepare func(dir string) error
		is      error    // errors.Is target, when the error is a named one
		says    string   // substring of the message
		flags   []string // start chronicled with these flags instead of calling Open
	}{
		{name: "chronicle.wal", prepare: plant("chronicle.wal", "old"), is: ErrUnsupportedLayout, says: "chronicle.wal"},
		{name: "checkpoint.bin", prepare: plant("checkpoint.bin", "old"), is: ErrUnsupportedLayout, says: "checkpoint.bin"},
		{name: "shard-NNNN.wal", prepare: plant("shard-0001.wal", "old"), is: ErrUnsupportedLayout, says: "shard-0001.wal"},
		{name: "relations.wal", prepare: plant("relations.wal", "old"), is: ErrUnsupportedLayout, says: "relations.wal"},
		{name: "manifest version 1", prepare: plant(wal.ManifestName, `{"version":1,"shards":2}`), is: ErrUnsupportedLayout, says: "manifest version 1"},
		{name: "manifest version 2", prepare: manifestVersion(2), is: ErrUnsupportedLayout, says: "manifest version 2"},
		{name: "checkpoint image version 4", is: ErrUnsupportedLayout, says: "checkpoint image version 4", prepare: imageVersion(4)},
		{name: "checkpoint image version 5", is: ErrUnsupportedLayout, says: "checkpoint image version 5", prepare: imageVersion(5)},
		{name: "checkpoint image version 6", is: ErrUnsupportedLayout, says: "checkpoint image version 6", prepare: imageVersion(6)},
		{name: "checkpoint image version 7", is: ErrUnsupportedLayout, says: "checkpoint image version 7", prepare: imageVersion(7)},
		{name: "negative Shards", opts: Options{Shards: -1}, is: ErrInvalidOption, says: "Options.Shards"},
		{name: "negative WALSegmentBytes", opts: Options{WALSegmentBytes: -1}, is: ErrInvalidOption, says: "Options.WALSegmentBytes"},
		{name: "negative ViewBlockBytes", opts: Options{ViewBlockBytes: -1}, is: ErrInvalidOption, says: "Options.ViewBlockBytes"},
		{name: "chronicled -view-block-bytes -1", flags: []string{"-view-block-bytes", "-1"}, says: "Options.ViewBlockBytes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.flags != nil && testing.Short() {
				t.Skip("compiles chronicled")
			}
			// A database with one checkpoint, to plant files into and to corrupt.
			dir := t.TempDir()
			db, err := Open(Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			mustExec(t, db, storageDDL)
			if _, err := db.Append("items", Tuple{Str("a"), Int(1)}); err != nil {
				t.Fatal(err)
			}
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			db.Close()
			if tc.prepare != nil {
				if err := tc.prepare(dir); err != nil {
					t.Fatal(err)
				}
			}
			before := dirFiles(t, dir)
			if tc.flags != nil {
				// chronicled must refuse at start: exit non-zero, naming the
				// option, before it would listen. The binary runs directly so
				// that the deadline kills the daemon itself if it does start.
				bin := filepath.Join(t.TempDir(), "chronicled")
				if out, err := exec.Command("go", "build", "-o", bin, "./cmd/chronicled").CombinedOutput(); err != nil {
					t.Fatalf("building chronicled: %v\n%s", err, out)
				}
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				args := append([]string{"-dir", dir, "-addr", "127.0.0.1:0"}, tc.flags...)
				out, err := exec.CommandContext(ctx, bin, args...).CombinedOutput()
				if err == nil || ctx.Err() != nil || !strings.Contains(string(out), tc.says) {
					t.Fatalf("chronicled %v: err %v, output %q; want a refusal naming %q", tc.flags, err, out, tc.says)
				}
			} else {
				tc.opts.Dir = dir
				db, err = Open(tc.opts)
				if err == nil {
					db.Close()
					t.Fatal("Open accepted it")
				}
				if tc.is != nil && !errors.Is(err, tc.is) {
					t.Errorf("error %q is not %q", err, tc.is)
				}
				if !strings.Contains(err.Error(), tc.says) {
					t.Errorf("error %q does not say %q", err, tc.says)
				}
			}
			if after := dirFiles(t, dir); !maps.Equal(after, before) {
				t.Errorf("the refused Open changed the directory:\nbefore %q\nafter  %q", before, after)
			}
		})
	}
}

// dirFiles reads every file of dir, by name.
func dirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(data)
	}
	return files
}

// TestUndecodableFrameFailsReplay: a WAL frame whose CRC holds but whose kind
// byte no version ever wrote, between two valid appends, fails Open and a
// follower's backlog read, naming its segment and offset, instead of ending
// the segment's replay there and losing the append after it.
func TestUndecodableFrameFailsReplay(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, storageDDL)
	if _, err := db.Append("items", Tuple{Str("a"), Int(1)}); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	lsn := db.eng.LSN()
	man, _, err := wal.ReadManifestFS(fault.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	seg := man.Live[man.Active(wal.StreamName(0))].Name
	path := filepath.Join(dir, seg)
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	frame := func(payload []byte) []byte {
		b := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
		b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
		return append(b, payload...)
	}
	next := wal.Record{Kind: wal.RecAppendEach, LSN: lsn + 1, SN: 2, Chronon: 2,
		Parts: []wal.Part{{Chronicle: "items", Tuples: []value.Tuple{{Str("a"), Int(2)}}}}}
	tail := append(frame([]byte{9, byte(lsn + 1)}), frame(wal.EncodeRecord(nil, next))...)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(tail); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	says := []string{seg, fmt.Sprintf("offset %d", len(valid))}
	check := func(what string, err error) {
		t.Helper()
		for _, s := range says {
			if err == nil || !strings.Contains(err.Error(), s) {
				t.Errorf("%s: err %v, want an error naming %q", what, err, s)
			}
		}
	}
	check("backlog", db.ReplBacklog(0, lsn, func([]byte, uint64, uint64) error { return nil }))
	db.Close()
	db, err = Open(Options{Dir: dir})
	if err == nil {
		total, _ := lookupTotals(t, db, "a")
		db.Close()
		t.Fatalf("Open accepted the segment, and totals(a) reads %d", total)
	}
	check("Open", err)
}

// TestOpenRejectsMalformedRelationRow: a relation row in the checkpoint image
// is stored as it stands, so Open validates it first — a row that decodes but
// does not fit the relation fails Open with a corrupt-checkpoint error
// instead of a later panic.
func TestOpenRejectsMalformedRelationRow(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE RELATION customers (acct STRING, state STRING, KEY(acct));
		UPSERT INTO customers VALUES ('alice', 'nj'), ('bob', 'ny')`)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.Close()
	path := filepath.Join(dir, wal.CheckpointFileName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Bob's row becomes one of the same length with a null key: the image
	// still decodes, the row no longer fits the relation.
	row := value.AppendTuple(nil, Tuple{Str("bob"), Str("ny")})
	bad := value.AppendTuple(nil, Tuple{Null(), Str("bobxny")})
	i := strings.Index(string(data), string(row))
	if i < 0 || len(bad) != len(row) {
		t.Fatal("the checkpoint image does not hold bob's row as encoded")
	}
	copy(data[i:], bad)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	db, err = Open(Options{Dir: dir})
	if err == nil {
		db.Close()
		t.Fatal("Open accepted a relation row of the wrong kind")
	}
	if !strings.Contains(err.Error(), "corrupt checkpoint") || !strings.Contains(err.Error(), "null key") {
		t.Errorf("error %q does not report the customers row's null key", err)
	}
}

// TestDiskFullDuringRotation (satellite 5): sweep disk capacities so the
// workload dies at every stage — including inside segment rotation — and
// assert the degradation contract each time: the first failed append
// latches the DB read-only with the cause, reads keep serving, no
// half-registered segment exists (every manifest reference resolves), and
// a reopen on the recovered disk comes back with all acked appends.
func TestDiskFullDuringRotation(t *testing.T) {
	run := func(capacity int64) (acked int64, failure error, disk *fault.Disk) {
		disk = fault.NewDisk()
		db, err := Open(Options{Dir: "/data", FS: disk, SyncWAL: true, WALSegmentBytes: 256})
		if err != nil {
			t.Fatalf("cap=%d: open: %v", capacity, err)
		}
		defer db.Close()
		if _, err := db.Exec(storageDDL); err != nil {
			t.Fatalf("cap=%d: ddl: %v", capacity, err)
		}
		disk.SetCapacity(capacity) // schema is in; the data phase hits the wall
		for i := int64(1); i <= 60; i++ {
			if _, err := db.Append("items", Tuple{Str("a"), Int(i)}); err != nil {
				failure = err
				break
			}
			acked++
		}
		if failure == nil {
			return acked, nil, disk
		}

		// Sticky read-only degradation with the original cause.
		ro, cause := db.ReadOnly()
		if !ro || cause == nil {
			t.Errorf("cap=%d: not read-only after disk full (cause %v)", capacity, cause)
		}
		if _, err := db.Append("items", Tuple{Str("a"), Int(1)}); err == nil {
			t.Errorf("cap=%d: append accepted after degradation", capacity)
		}
		// Reads keep working.
		if _, ok, err := db.Lookup("totals", Str("a")); !ok || err != nil {
			t.Errorf("cap=%d: read failed after degradation: %v", capacity, err)
		}
		// No half-registered segment: every manifest reference must exist.
		m, ok, err := wal.ReadManifestFS(disk, "/data")
		if err != nil || !ok {
			t.Fatalf("cap=%d: manifest unreadable after disk full: %v", capacity, err)
		}
		for _, s := range m.Live {
			if _, err := disk.Stat(filepath.Join("/data", s.Name)); err != nil {
				t.Errorf("cap=%d: manifest references missing segment %s: %v", capacity, s.Name, err)
			}
		}
		return acked, failure, disk
	}

	sawRotationFailure := false
	for capacity := int64(600); capacity <= 4000; capacity += 128 {
		acked, failure, disk := run(capacity)
		if failure == nil {
			continue // capacity large enough for the whole workload
		}
		if strings.Contains(failure.Error(), "wal: rotate:") {
			sawRotationFailure = true
		}
		// Space freed: reopen must recover every acked append.
		disk.SetCapacity(0)
		db, err := Open(Options{Dir: "/data", FS: disk, SyncWAL: true, WALSegmentBytes: 256})
		if err != nil {
			t.Fatalf("cap=%d: reopen after disk full: %v", capacity, err)
		}
		var cnt int64
		if acked > 0 {
			_, cnt = lookupTotals(t, db, "a")
		}
		if cnt < acked || cnt > acked+1 {
			t.Errorf("cap=%d: recovered %d appends, acked %d", capacity, cnt, acked)
		}
		if _, err := db.Append("items", Tuple{Str("a"), Int(1)}); err != nil {
			t.Errorf("cap=%d: append after recovery: %v", capacity, err)
		}
		db.Close()
	}
	if !sawRotationFailure {
		t.Error("capacity sweep never failed inside a rotation (fmt: 'wal: rotate:'); widen the sweep")
	}
}
