package wal

import (
	"errors"
	"path/filepath"
	"testing"

	"chronicledb/internal/fault"
)

// TestAppendWriteErrorNoMidFileCorruption is the satellite regression: a
// mid-frame write failure must not leave a partial frame that later
// appends extend, corrupting the middle of the file. With whole-frame
// writes plus the sticky error, the log refuses further appends and
// everything before the failure replays intact.
func TestAppendWriteErrorNoMidFileCorruption(t *testing.T) {
	d := fault.NewDisk()
	d.MkdirAll("/data", 0o755)
	l := openLog(t, d, "/data", "log", SyncGroup)
	path := l.Path()
	recs := sampleRecords()
	if err := l.Append(recs[0]); err != nil {
		t.Fatal(err)
	}
	d.FailNthWrite(1) // the next frame fails halfway through
	if err := l.Append(recs[1]); err == nil {
		t.Fatal("append with failing write succeeded")
	}
	if l.Err() == nil {
		t.Fatal("sticky error not latched")
	}
	// Every later operation fails fast on the latched error.
	if err := l.Append(recs[2]); err == nil {
		t.Fatal("append after failure succeeded")
	}
	if err := l.Sync(); err == nil {
		t.Fatal("sync after failure succeeded")
	}
	l.Close()

	// The first record survives; the half-written frame is a torn tail,
	// not mid-file corruption hiding behind later garbage.
	var got []Record
	n, _, err := replayAfter(d, path, 0, func(r Record) error { got = append(got, r); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || !recordsEqual(got[0], recs[0]) {
		t.Fatalf("replay after failed append: n=%d", n)
	}
}

func TestSyncErrorPoisonsLog(t *testing.T) {
	d := fault.NewDisk()
	d.MkdirAll("/data", 0o755)
	l := openLog(t, d, "/data", "log", SyncGroup)
	if err := l.Append(sampleRecords()[0]); err != nil {
		t.Fatal(err)
	}
	d.FailNthSync(d.Syncs())
	if err := l.Commit(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("want injected sync failure, got %v", err)
	}
	if err := l.Append(sampleRecords()[1]); err == nil {
		t.Fatal("append after sync failure succeeded")
	}
}

func TestWriteFileAtomicCrashKeepsOldFile(t *testing.T) {
	d := fault.NewDisk()
	d.MkdirAll("/data", 0o755)
	path := filepath.Join("/data", "checkpoint.bin")
	if err := WriteFileAtomicFS(d, path, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	// Enumerate every crash point inside the second atomic write: after
	// healing, the file must read back as exactly "v1" or "v2".
	base := d.Ops()
	if err := WriteFileAtomicFS(d, path, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	total := d.Ops() - base

	for i := 0; i < total; i++ {
		di := fault.NewDisk()
		di.MkdirAll("/data", 0o755)
		if err := WriteFileAtomicFS(di, path, []byte("v1")); err != nil {
			t.Fatal(err)
		}
		di.SetCrashAt(di.Ops() + i)
		werr := WriteFileAtomicFS(di, path, []byte("v2"))
		di.Heal()
		got, err := di.ReadFile(path)
		if err != nil {
			t.Fatalf("crash at +%d: %v", i, err)
		}
		if s := string(got); s != "v1" && s != "v2" {
			t.Fatalf("crash at +%d: content %q", i, s)
		}
		if werr == nil && string(got) != "v2" {
			t.Fatalf("crash at +%d: write acked but content %q", i, got)
		}
	}
}
