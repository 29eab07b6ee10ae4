package chronicledb

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"chronicledb/internal/engine"
	"chronicledb/internal/wal"
)

func shardedDB(t testing.TB, n int) *DB {
	t.Helper()
	db, err := Open(Options{Shards: n, RelationHistory: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// TestShardedGroupsSpreadShards checks that distinct groups actually land
// on distinct shards (with 8 groups over 4 shards a single-shard hash
// would be a routing bug) and stay independent.
func TestShardedGroupsSpreadShards(t *testing.T) {
	db := shardedDB(t, 4)
	for i := 0; i < 8; i++ {
		mustExec(t, db, fmt.Sprintf(`CREATE CHRONICLE c%d (acct STRING, n INT) IN GROUP g%d RETAIN ALL`, i, i))
		mustExec(t, db, fmt.Sprintf(`APPEND INTO c%d VALUES ('a', %d)`, i, i))
	}
	used := map[*engine.Engine]bool{}
	for i := 0; i < 8; i++ {
		home, _ := db.Engine().Home(fmt.Sprintf("c%d", i))
		used[home] = true
	}
	if len(used) < 2 {
		t.Errorf("8 groups landed on %d shard(s)", len(used))
	}
	for i := 0; i < 8; i++ {
		rows, err := db.Engine().ChronicleRows(fmt.Sprintf("c%d", i))
		if err != nil || len(rows) != 1 || rows[0].Vals[1].AsInt() != int64(i) {
			t.Errorf("c%d rows = %v, %v", i, rows, err)
		}
	}
}

// TestShardedDurability exercises the per-shard WAL segments + manifest:
// mutations recover after a reopen, a checkpoint truncates every segment,
// and the WAL tail replays merged in LSN order so relation updates land
// between exactly the appends they originally separated.
func TestShardedDurability(t *testing.T) {
	dir := t.TempDir()
	open := func(n int) *DB {
		db, err := Open(Options{Dir: dir, Shards: n, RelationHistory: true})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	db := open(2)
	mustExec(t, db, telecomDDL)
	mustExec(t, db, `CREATE VIEW by_state AS
		SELECT state, SUM(cost) AS revenue FROM calls
		JOIN customers ON calls.acct = customers.acct
		GROUP BY state`)
	mustExec(t, db, `UPSERT INTO customers VALUES ('alice', 'nj')`)
	mustExec(t, db, `APPEND INTO calls VALUES ('alice', 10, 2.0)`)
	// The move to ny must replay between the two appends: 2.0 stays nj,
	// 5.0 lands ny.
	mustExec(t, db, `UPSERT INTO customers VALUES ('alice', 'ny')`)
	mustExec(t, db, `APPEND INTO calls VALUES ('alice', 10, 5.0)`)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{
		"wal.manifest",
		wal.SegmentFileName(wal.StreamName(0), 1),
		wal.SegmentFileName(wal.StreamName(1), 1),
		wal.SegmentFileName(wal.RelationStream, 1),
	} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("missing %s after sharded run: %v", f, err)
		}
	}

	check := func(db *DB) {
		t.Helper()
		row, ok, err := db.Lookup("by_state", Str("nj"))
		if err != nil || !ok || row[1].AsFloat() != 2.0 {
			t.Errorf("by_state(nj) = %v %v %v", row, ok, err)
		}
		row, ok, err = db.Lookup("by_state", Str("ny"))
		if err != nil || !ok || row[1].AsFloat() != 5.0 {
			t.Errorf("by_state(ny) = %v %v %v", row, ok, err)
		}
	}

	db = open(2) // same layout: WAL tail replay
	check(db)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `APPEND INTO calls VALUES ('alice', 1, 1.0)`)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db = open(2) // checkpoint + tail
	row, ok, err := db.Lookup("by_state", Str("ny"))
	if err != nil || !ok || row[1].AsFloat() != 6.0 {
		t.Errorf("after checkpoint+tail: by_state(ny) = %v %v %v", row, ok, err)
	}
	db.Close()
}
