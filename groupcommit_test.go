package chronicledb

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"chronicledb/internal/fault"
)

// Concurrent group-commit stress: several goroutines drive AppendEach
// batches through the commit door at once — on a simulated disk so a power
// cut can be injected — and recovery must replay to a state consistent
// with what was acknowledged. Two phases per shard count:
//
//   - clean: every batch is acked, the disk is power-cut (dropping all
//     unsynced bytes), and the reopened state must contain exactly the
//     acked rows — group commit must not ack before its fsync covers the
//     batch;
//   - crash-at: the disk dies at a fixed operation index mid-run; each
//     worker's recovered row count must land between its acked count and
//     acked+batch (AppendEach gives each tuple its own transaction, so a
//     batch in flight at the crash may be partially durable).
//
// The whole test runs under -race in `make check`, which is what makes it
// a check on the door's locking, not just its durability.
func TestGroupCommitConcurrentStress(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			t.Run("clean", func(t *testing.T) { groupCommitRun(t, shards, -1) })
			// Fixed crash points at about 25/50/90 % of a clean run's
			// operation count (~540–555 ops, moving with goroutine
			// interleaving), so the subtest names and crash sites are
			// reproducible. The probe run checks each one still lands
			// inside the workload.
			clean := fault.NewDisk()
			acked, _ := groupCommitWorkload(t, clean, shards)
			for _, a := range acked {
				if a == 0 {
					t.Fatal("clean probe run acked nothing")
				}
			}
			ops := clean.Ops()
			for _, at := range gcCrashPoints[shards] {
				if at >= ops {
					t.Fatalf("crash point %d is past the clean run's %d ops — re-pick gcCrashPoints", at, ops)
				}
				t.Run(fmt.Sprintf("crash@%d", at), func(t *testing.T) {
					groupCommitRun(t, shards, at)
				})
			}
		})
	}
}

const (
	gcWorkers = 4
	gcRounds  = 8
	gcBatch   = 16
)

// gcCrashPoints maps shard count to the disk-operation indices the
// crash-at phase kills the disk at (odd indices also tear the write).
var gcCrashPoints = map[int][]int{
	1: {138, 276, 496},
	2: {138, 276, 497},
}

func groupCommitOptions(disk *fault.Disk, shards int) Options {
	var chronon atomic.Int64
	return Options{
		Dir:     "/data",
		SyncWAL: true, // group commit: the default durable mode
		Shards:  shards,
		FS:      disk,
		Clock:   func() int64 { return chronon.Add(1) },
	}
}

// groupCommitWorkload runs the concurrent AppendEach workload and returns
// each worker's acked row count (rows in fully-acknowledged batches).
// Errors are expected once the disk has crashed or the DB degraded.
func groupCommitWorkload(t *testing.T, disk *fault.Disk, shards int) ([gcWorkers]int64, bool) {
	t.Helper()
	var acked [gcWorkers]int64
	db, err := Open(groupCommitOptions(disk, shards))
	if err != nil {
		return acked, false // crashed during Open
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE CHRONICLE calls (acct STRING, minutes INT) RETAIN ALL;
		CREATE VIEW usage AS SELECT acct, SUM(minutes) AS total, COUNT(*) AS n FROM calls GROUP BY acct`); err != nil {
		return acked, false
	}
	var wg sync.WaitGroup
	for w := 0; w < gcWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			batch := make([]Tuple, gcBatch)
			for i := range batch {
				batch[i] = Tuple{Str(fmt.Sprintf("acct-%d", w)), Int(1)}
			}
			for r := 0; r < gcRounds; r++ {
				if _, _, err := db.AppendRows("calls", batch); err != nil {
					return // crash or degradation: stop, keep the acked count
				}
				atomic.AddInt64(&acked[w], gcBatch)
			}
		}(w)
	}
	wg.Wait()
	return acked, true
}

// groupCommitRun executes one phase: crashAt < 0 is the clean phase (all
// batches acked, power cut only after close), otherwise the disk dies at
// that operation index mid-run.
func groupCommitRun(t *testing.T, shards, crashAt int) {
	disk := fault.NewDisk()
	if crashAt >= 0 {
		disk.SetCrashAt(crashAt)
		disk.SetTorn(crashAt%2 == 1)
	}
	acked, schemaAcked := groupCommitWorkload(t, disk, shards)
	if crashAt < 0 && !schemaAcked {
		t.Fatal("clean phase failed to run the workload")
	}
	disk.PowerCut() // drop everything not fsynced
	disk.Heal()

	db, err := Open(groupCommitOptions(disk, shards))
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer db.Close()
	if _, ok := db.Chronicle("calls"); !ok {
		if schemaAcked {
			t.Fatal("acked schema lost in crash")
		}
		return // crashed before DDL was durable: nothing more to check
	}

	// Recovered per-worker counts from the view (COUNT per account must
	// also equal SUM since every row carries minutes=1 — one internal
	// consistency check on replayed maintenance for free).
	for w := 0; w < gcWorkers; w++ {
		var n, total int64
		if row, ok, err := db.Lookup("usage", Str(fmt.Sprintf("acct-%d", w))); err != nil {
			t.Fatal(err)
		} else if ok {
			total, n = row[1].AsInt(), row[2].AsInt()
		}
		if n != total {
			t.Errorf("worker %d: COUNT=%d but SUM=%d — replayed maintenance diverged", w, n, total)
		}
		a := acked[w]
		if crashAt < 0 {
			if n != a {
				t.Errorf("worker %d: %d rows recovered, %d acked — group commit acked before durability", w, n, a)
			}
			continue
		}
		if n < a || n > a+gcBatch {
			t.Errorf("worker %d: %d rows recovered, want between %d (acked) and %d (acked+batch in flight)",
				w, n, a, a+gcBatch)
		}
	}
}

// TestUpsertStatementCommitsOnce: an UPSERT statement is one relation
// transaction — one epoch-gate hold and one commit — so a durable 1 000-tuple
// UPSERT costs one fsync, not one a tuple, while each tuple keeps its own LSN
// and WAL record and every row survives a reopen.
func TestUpsertStatementCommitsOnce(t *testing.T) {
	const tuples = 1000
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, SyncWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE RELATION customers (acct STRING, state STRING, KEY(acct))`)
	var stmt strings.Builder
	stmt.WriteString("UPSERT INTO customers VALUES ")
	for i := 0; i < tuples; i++ {
		if i > 0 {
			stmt.WriteString(", ")
		}
		fmt.Fprintf(&stmt, "('acct%04d', 'nj')", i)
	}
	before, lsn0 := db.WALStats(), db.eng.LSN()
	mustExec(t, db, stmt.String())
	after := db.WALStats()
	if got := after.Fsyncs - before.Fsyncs; got != 1 {
		t.Errorf("a %d-tuple UPSERT raised wal_fsyncs by %d, want 1", tuples, got)
	}
	if got := after.Records - before.Records; got != tuples {
		t.Errorf("a %d-tuple UPSERT wrote %d WAL records, want one a tuple", tuples, got)
	}
	if got := db.eng.LSN() - lsn0; got != tuples {
		t.Errorf("a %d-tuple UPSERT took %d LSNs, want one a tuple", tuples, got)
	}
	// A statement with one bad tuple applies none of them.
	if _, err := db.Exec(`UPSERT INTO customers VALUES ('late', 'ca'), ('acct0001', 7)`); err == nil {
		t.Error("an UPSERT with a mistyped tuple succeeded")
	}
	db.Close()
	db, err = Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if r, _ := db.Relation("customers"); r.Len() != tuples {
		t.Errorf("reopened customers holds %d rows, want %d", r.Len(), tuples)
	}
}
