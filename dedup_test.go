package chronicledb

import (
	"errors"
	"fmt"
	"testing"

	"chronicledb/internal/fault"
)

// Exactly-once ingestion: the dedup entry is written in the same WAL frame
// as the rows it acknowledges, so a crash either persists both or neither,
// and a client retry after reopen gets the original ack back instead of a
// second application.

func idemTestDB(t *testing.T, disk *fault.Disk, opts ...func(*Options)) *DB {
	t.Helper()
	o := Options{Dir: "/data", SyncWAL: true, FS: disk}
	for _, f := range opts {
		f(&o)
	}
	db, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestIdemAppendDedupsLive(t *testing.T) {
	disk := fault.NewDisk()
	db := idemTestDB(t, disk)
	mustExec(t, db, `CREATE CHRONICLE calls (acct STRING, minutes INT) RETAIN ALL`)
	mustExec(t, db, `CREATE VIEW usage AS SELECT acct, SUM(minutes) AS total FROM calls GROUP BY acct`)

	rows := []Row{{Str("alice"), Int(10)}, {Str("alice"), Int(5)}}
	first, last, deduped, err := db.AppendRowsIdem("calls", rows, "client-A", "req-1")
	if err != nil || deduped {
		t.Fatalf("first delivery = %d..%d deduped=%v err=%v", first, last, deduped, err)
	}
	if last != first+1 {
		t.Fatalf("SN range = %d..%d", first, last)
	}
	// Network-level duplicate: same ids, same ack, no re-application.
	f2, l2, deduped, err := db.AppendRowsIdem("calls", rows, "client-A", "req-1")
	if err != nil || !deduped || f2 != first || l2 != last {
		t.Fatalf("duplicate delivery = %d..%d deduped=%v err=%v", f2, l2, deduped, err)
	}
	if row, ok, err := db.Lookup("usage", Str("alice")); err != nil || !ok || row[1].AsInt() != 15 {
		t.Errorf("usage(alice) = %v %v %v, want 15", row, ok, err)
	}
	if entries, hits, _ := db.DedupStats(); entries != 1 || hits != 1 {
		t.Errorf("dedup stats = %d entries, %d hits", entries, hits)
	}
	// A different request id from the same client applies normally.
	f3, _, deduped, err := db.AppendRowsIdem("calls", []Row{{Str("bob"), Int(1)}}, "client-A", "req-2")
	if err != nil || deduped || f3 <= last {
		t.Fatalf("fresh request = %d deduped=%v err=%v", f3, deduped, err)
	}
}

func TestIdemAppendRetryAfterCrash(t *testing.T) {
	disk := fault.NewDisk()
	db := idemTestDB(t, disk)
	mustExec(t, db, `CREATE CHRONICLE calls (acct STRING, minutes INT) RETAIN ALL`)
	mustExec(t, db, `CREATE VIEW usage AS SELECT acct, SUM(minutes) AS total FROM calls GROUP BY acct`)

	rows := []Row{{Str("alice"), Int(10)}, {Str("bob"), Int(5)}}
	first, last, _, err := db.AppendRowsIdem("calls", rows, "client-A", "req-1")
	if err != nil {
		t.Fatal(err)
	}

	// Power-cut after the ack: the retry arrives at a freshly recovered DB.
	db.Close()
	disk.PowerCut()
	disk.Heal()
	db2 := idemTestDB(t, disk)

	f2, l2, deduped, err := db2.AppendRowsIdem("calls", rows, "client-A", "req-1")
	if err != nil || !deduped || f2 != first || l2 != last {
		t.Fatalf("retry after crash = %d..%d deduped=%v err=%v, want original ack %d..%d",
			f2, l2, deduped, err, first, last)
	}
	if res := mustExec(t, db2, `SELECT * FROM calls`); len(res.Rows) != 2 {
		t.Errorf("rows after crash+retry = %d, want 2 (exactly-once)", len(res.Rows))
	}
	if row, ok, err := db2.Lookup("usage", Str("alice")); err != nil || !ok || row[1].AsInt() != 10 {
		t.Errorf("usage(alice) after crash+retry = %v %v %v, want 10", row, ok, err)
	}
}

func TestIdemDedupSurvivesCheckpoint(t *testing.T) {
	disk := fault.NewDisk()
	db := idemTestDB(t, disk)
	mustExec(t, db, `CREATE CHRONICLE calls (acct STRING, minutes INT) RETAIN ALL`)

	first, last, _, err := db.AppendRowsIdem("calls", []Row{{Str("alice"), Int(10)}}, "client-A", "req-1")
	if err != nil {
		t.Fatal(err)
	}
	// Checkpoint truncates the WAL: the only durable copy of the dedup
	// entry is now the checkpoint's dedup section.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.Close()
	disk.PowerCut()
	disk.Heal()
	db2 := idemTestDB(t, disk)

	f2, l2, deduped, err := db2.AppendRowsIdem("calls", []Row{{Str("alice"), Int(10)}}, "client-A", "req-1")
	if err != nil || !deduped || f2 != first || l2 != last {
		t.Fatalf("retry after checkpoint+crash = %d..%d deduped=%v err=%v", f2, l2, deduped, err)
	}
	if res := mustExec(t, db2, `SELECT * FROM calls`); len(res.Rows) != 1 {
		t.Errorf("rows = %d, want 1", len(res.Rows))
	}
}

func TestIdemAppendReadOnlyNoFalseAck(t *testing.T) {
	disk := fault.NewDisk()
	db := idemTestDB(t, disk)
	mustExec(t, db, `CREATE CHRONICLE calls (acct STRING, minutes INT) RETAIN ALL`)

	if _, _, _, err := db.AppendRowsIdem("calls", []Row{{Str("alice"), Int(10)}}, "client-A", "req-1"); err != nil {
		t.Fatal(err)
	}
	// Degrade to read-only via a failed WAL sync.
	disk.FailNthSync(disk.Syncs())
	if _, _, _, err := db.AppendRowsIdem("calls", []Row{{Str("bob"), Int(5)}}, "client-A", "req-2"); err == nil {
		t.Fatal("append with failing WAL sync acked")
	}
	if ro, _ := db.ReadOnly(); !ro {
		t.Fatal("fsync failure did not latch read-only")
	}
	// Even a retry of the already-applied request must NOT be answered from
	// the dedup table while degraded: the write gate runs first, so a
	// degraded node never hands out acks.
	if _, _, _, err := db.AppendRowsIdem("calls", []Row{{Str("alice"), Int(10)}}, "client-A", "req-1"); !errors.Is(err, ErrReadOnly) {
		t.Errorf("retry while read-only: %v, want ErrReadOnly", err)
	}
}

func TestIdemRequiresIDs(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, `CREATE CHRONICLE calls (acct STRING, minutes INT)`)
	if _, _, _, err := db.AppendRowsIdem("calls", []Row{{Str("a"), Int(1)}}, "", "req"); err == nil {
		t.Error("empty client id accepted")
	}
	if _, _, _, err := db.AppendRowsIdem("calls", []Row{{Str("a"), Int(1)}}, "client", ""); err == nil {
		t.Error("empty request id accepted")
	}
}

func TestDedupCapBoundsMemory(t *testing.T) {
	db, err := Open(Options{DedupCap: 8, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, `CREATE CHRONICLE calls (acct STRING, minutes INT)`)

	for i := 0; i < 40; i++ {
		rid := fmt.Sprintf("req-%d", i)
		if _, _, _, err := db.AppendRowsIdem("calls", []Row{{Str("a"), Int(1)}}, "client-A", rid); err != nil {
			t.Fatal(err)
		}
	}
	entries, _, evictions := db.DedupStats()
	if entries > 8 {
		t.Errorf("dedup entries = %d, want ≤ cap 8", entries)
	}
	if evictions < 32 {
		t.Errorf("evictions = %d, want ≥ 32", evictions)
	}
	// Oldest ids were evicted: a very late retry re-applies (the documented
	// cap trade-off); recent ids still dedup.
	_, _, deduped, err := db.AppendRowsIdem("calls", []Row{{Str("a"), Int(1)}}, "client-A", "req-39")
	if err != nil || !deduped {
		t.Errorf("recent id deduped=%v err=%v, want dedup hit", deduped, err)
	}
}
