package chronicledb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unsafe"

	"chronicledb/internal/value"
	"chronicledb/internal/wal"
)

func memDB(t testing.TB) *DB {
	t.Helper()
	db, err := Open(Options{RelationHistory: true})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func mustExec(t testing.TB, db *DB, stmt string) *Result {
	t.Helper()
	res, err := db.Exec(stmt)
	if err != nil {
		t.Fatalf("Exec(%q): %v", stmt, err)
	}
	return res
}

func expectExecError(t testing.TB, db *DB, stmt, fragment string) {
	t.Helper()
	if _, err := db.Exec(stmt); err == nil {
		t.Fatalf("Exec(%q) succeeded, want error about %q", stmt, fragment)
	} else if !strings.Contains(err.Error(), fragment) {
		t.Errorf("Exec(%q) error %q does not mention %q", stmt, err, fragment)
	}
}

const telecomDDL = `
CREATE GROUP telecom;
CREATE CHRONICLE calls (acct STRING, minutes INT, cost FLOAT) IN GROUP telecom;
CREATE RELATION customers (acct STRING, state STRING, KEY(acct));
CREATE VIEW usage AS
  SELECT calls.acct, SUM(minutes) AS total_minutes, SUM(cost) AS total_cost, COUNT(*) AS n
  FROM calls GROUP BY calls.acct;
`

// TestExecEndToEnd runs the canonical telecom scenario on one shard and on
// four: DDL places objects on home shards, appends flow through the
// single-writer queues, and queries and gathered stats return the expected
// answers.
func TestExecEndToEnd(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db := shardedDB(t, shards)
			if db.Shards() != shards {
				t.Fatalf("Shards() = %d", db.Shards())
			}
			mustExec(t, db, telecomDDL)
			mustExec(t, db, `UPSERT INTO customers VALUES ('alice', 'nj'), ('bob', 'ny')`)
			mustExec(t, db, `APPEND INTO calls VALUES ('alice', 12, 1.5)`)
			mustExec(t, db, `APPEND INTO calls VALUES ('alice', 8, 0.5), ('bob', 3, 0.25)`)

			res := mustExec(t, db, `SELECT * FROM usage WHERE acct = 'alice'`)
			if len(res.Rows) != 1 {
				t.Fatalf("rows = %v", res.Rows)
			}
			r := res.Rows[0]
			if r[1].AsInt() != 20 || r[2].AsFloat() != 2.0 || r[3].AsInt() != 2 {
				t.Errorf("usage(alice) = %v", r)
			}
			if res.Columns[0] != "acct" || res.Columns[1] != "total_minutes" {
				t.Errorf("columns = %v", res.Columns)
			}

			// Programmatic API agrees.
			row, ok, err := db.Lookup("usage", Str("bob"))
			if err != nil || !ok || row[1].AsInt() != 3 {
				t.Errorf("Lookup(bob) = %v, %v, %v", row, ok, err)
			}
			if _, _, err := db.Lookup("ghost"); err == nil {
				t.Error("Lookup of unknown view succeeded")
			}

			mustExec(t, db, `CREATE VIEW by_state AS
				SELECT state, SUM(cost) AS revenue FROM calls
				JOIN customers ON calls.acct = customers.acct
				GROUP BY state`)
			mustExec(t, db, `UPSERT INTO customers VALUES ('bob', 'nj')`)
			mustExec(t, db, `APPEND INTO calls VALUES ('bob', 1, 1.0)`)
			row, ok, err = db.Lookup("by_state", Str("nj"))
			if err != nil || !ok || row[1].AsFloat() != 1.0 {
				t.Errorf("by_state(nj) = %v %v %v", row, ok, err)
			}

			// Scatter/gather surfaces: stats sum and merged latency histogram.
			if st := db.Stats(); st.Appends != 3 {
				t.Errorf("Stats().Appends = %d", st.Appends)
			}
			if db.MaintenanceLatency().Count == 0 {
				t.Error("merged latency histogram empty")
			}
			if _, err := db.Exec(`SHOW STATS`); err != nil {
				t.Errorf("SHOW STATS: %v", err)
			}
		})
	}
}

func TestQueryRelationAndChronicle(t *testing.T) {
	db, err := Open(Options{DefaultRetention: RetainAll})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, telecomDDL)
	mustExec(t, db, `UPSERT INTO customers VALUES ('alice', 'nj'), ('bob', 'ny')`)
	mustExec(t, db, `APPEND INTO calls VALUES ('alice', 12, 1.5)`)

	res := mustExec(t, db, `SELECT * FROM customers WHERE state = 'nj'`)
	if len(res.Rows) != 1 || res.Rows[0][0].AsString() != "alice" {
		t.Errorf("relation query = %v", res.Rows)
	}
	res = mustExec(t, db, `SELECT * FROM calls`)
	if len(res.Rows) != 1 || res.Columns[0] != "_sn" {
		t.Errorf("chronicle query = %v %v", res.Columns, res.Rows)
	}
	res = mustExec(t, db, `SELECT * FROM customers LIMIT 1`)
	if len(res.Rows) != 1 {
		t.Errorf("limit query = %v", res.Rows)
	}
	expectExecError(t, db, `SELECT * FROM nothing`, "unknown")
	mustExec(t, db, `DELETE FROM customers KEY ('bob')`)
	res = mustExec(t, db, `SELECT * FROM customers`)
	if len(res.Rows) != 1 {
		t.Errorf("after delete = %v", res.Rows)
	}
	res = mustExec(t, db, `DELETE FROM customers KEY ('bob')`)
	if res.Message != "no such key" {
		t.Errorf("double delete message = %q", res.Message)
	}
}

func TestExplainAndShow(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, telecomDDL)
	res := mustExec(t, db, `EXPLAIN VIEW usage`)
	text := dumpResult(res)
	if !strings.Contains(text, "CA1") || !strings.Contains(text, "IM-Constant") {
		t.Errorf("EXPLAIN = %s", text)
	}
	res = mustExec(t, db, `SHOW VIEWS`)
	if len(res.Rows) != 1 || res.Rows[0][0].AsString() != "usage" {
		t.Errorf("SHOW VIEWS = %v", res.Rows)
	}
	res = mustExec(t, db, `SHOW CHRONICLES`)
	if len(res.Rows) != 1 {
		t.Errorf("SHOW CHRONICLES = %v", res.Rows)
	}
	res = mustExec(t, db, `SHOW RELATIONS`)
	if len(res.Rows) != 1 {
		t.Errorf("SHOW RELATIONS = %v", res.Rows)
	}
	res = mustExec(t, db, `SHOW STATS`)
	if len(res.Rows) == 0 {
		t.Error("SHOW STATS empty")
	}
	expectExecError(t, db, `EXPLAIN VIEW ghost`, "unknown view")
}

func dumpResult(res *Result) string {
	var b strings.Builder
	for _, r := range res.Rows {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}

func TestJoinViewClassification(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, telecomDDL)
	res := mustExec(t, db, `CREATE VIEW by_state AS
		SELECT state, SUM(cost) AS revenue FROM calls
		JOIN customers ON calls.acct = customers.acct
		GROUP BY state`)
	if !strings.Contains(res.Message, "CA⋈") || !strings.Contains(res.Message, "IM-log(R)") {
		t.Errorf("message = %q", res.Message)
	}
	mustExec(t, db, `UPSERT INTO customers VALUES ('alice', 'nj')`)
	mustExec(t, db, `APPEND INTO calls VALUES ('alice', 10, 2.5)`)
	row, ok, err := db.Lookup("by_state", Str("nj"))
	if err != nil || !ok || row[1].AsFloat() != 2.5 {
		t.Errorf("by_state(nj) = %v %v %v", row, ok, err)
	}
}

func TestTheorem43Rejections(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, telecomDDL)
	mustExec(t, db, `CREATE CHRONICLE payments (acct STRING, amount FLOAT) IN GROUP telecom`)
	expectExecError(t, db, `CREATE VIEW bad AS
		SELECT calls.acct, COUNT(*) AS n FROM calls
		JOIN payments ON calls.acct = payments.acct GROUP BY calls.acct`,
		"Theorem 4.3")
	expectExecError(t, db, `CREATE VIEW bad2 AS
		SELECT calls.acct, COUNT(*) AS n FROM calls
		JOIN customers ON calls.minutes >= customers.acct GROUP BY calls.acct`,
		"equijoin")
}

func TestPeriodicViewSQL(t *testing.T) {
	now := int64(0)
	db, err := Open(Options{Clock: func() int64 { return now }})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE CHRONICLE calls (acct STRING, minutes INT)`)
	mustExec(t, db, `CREATE PERIODIC VIEW monthly AS
		SELECT acct, SUM(minutes) AS total FROM calls GROUP BY acct
		EVERY 100`)
	now = 10
	mustExec(t, db, `APPEND INTO calls VALUES ('a', 5)`)
	now = 150
	mustExec(t, db, `APPEND INTO calls VALUES ('a', 7)`)
	res := mustExec(t, db, `EXPLAIN VIEW monthly`)
	if !strings.Contains(dumpResult(res), "periodic") {
		t.Errorf("EXPLAIN periodic = %s", dumpResult(res))
	}
	pv, ok := db.Engine().PeriodicView("monthly")
	if !ok || pv.Live() != 2 {
		t.Fatalf("Live = %d", pv.Live())
	}
	res = mustExec(t, db, `SHOW VIEWS`)
	if !strings.Contains(dumpResult(res), "monthly (periodic)") {
		t.Errorf("SHOW VIEWS = %s", dumpResult(res))
	}
}

func TestDurableReopenWALOnly(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, telecomDDL)
	mustExec(t, db, `UPSERT INTO customers VALUES ('alice', 'nj')`)
	mustExec(t, db, `APPEND INTO calls VALUES ('alice', 12, 1.5)`)
	mustExec(t, db, `APPEND INTO calls VALUES ('alice', 8, 0.5)`)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	row, ok, err := db2.Lookup("usage", Str("alice"))
	if err != nil || !ok || row[1].AsInt() != 20 {
		t.Fatalf("after reopen: %v %v %v", row, ok, err)
	}
	// Relation state also recovered.
	res := mustExec(t, db2, `SELECT * FROM customers`)
	if len(res.Rows) != 1 || res.Rows[0][1].AsString() != "nj" {
		t.Errorf("customers after reopen = %v", res.Rows)
	}
	// Sequence numbers continue, and new appends work.
	mustExec(t, db2, `APPEND INTO calls VALUES ('alice', 1, 0.1)`)
	row, _, _ = db2.Lookup("usage", Str("alice"))
	if row[1].AsInt() != 21 {
		t.Errorf("post-recovery append: %v", row)
	}
}

// TestDurableCheckpointedReopen: a reopen restores the checkpoint and then
// the WAL tail behind it — view state, the retained chronicle window and
// the group's sequence numbers all continue.
func TestDurableCheckpointedReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, DefaultRetention: Retention(2)})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, telecomDDL)
	mustExec(t, db, `UPSERT INTO customers VALUES ('alice', 'nj')`)
	for i := 0; i < 10; i++ {
		mustExec(t, db, `APPEND INTO calls VALUES ('alice', 1, 0.5)`)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint appends land in the WAL tail.
	mustExec(t, db, `APPEND INTO calls VALUES ('alice', 2, 1.0)`)
	db.Close()

	db2, err := Open(Options{Dir: dir, DefaultRetention: Retention(2)})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	row, ok, _ := db2.Lookup("usage", Str("alice"))
	if !ok || row[1].AsInt() != 12 || row[3].AsInt() != 11 {
		t.Fatalf("after checkpointed reopen: %v %v", row, ok)
	}
	// Retained window (retention 2) also restored, and group SN continues.
	res := mustExec(t, db2, `SELECT * FROM calls`)
	if len(res.Rows) != 2 {
		t.Errorf("retained window = %v", res.Rows)
	}
	if _, err := db2.Exec(`APPEND INTO calls VALUES ('alice', 1, 0.5)`); err != nil {
		t.Errorf("post-recovery append: %v", err)
	}
}

func TestDurablePeriodicViewsSurviveCheckpoint(t *testing.T) {
	dir := t.TempDir()
	now := int64(10)
	db, err := Open(Options{Dir: dir, Clock: func() int64 { return now }})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE CHRONICLE calls (acct STRING, minutes INT)`)
	mustExec(t, db, `CREATE PERIODIC VIEW monthly AS
		SELECT acct, SUM(minutes) AS total FROM calls GROUP BY acct EVERY 100`)
	mustExec(t, db, `APPEND INTO calls VALUES ('a', 5)`)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	now = 50
	mustExec(t, db, `APPEND INTO calls VALUES ('a', 6)`)
	db.Close()

	db2, err := Open(Options{Dir: dir, Clock: func() int64 { return now }})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	pv, ok := db2.Engine().PeriodicView("monthly")
	if !ok {
		t.Fatal("periodic view missing after recovery")
	}
	insts := pv.Instances()
	if len(insts) != 1 {
		t.Fatalf("instances = %d", len(insts))
	}
	got, _ := insts[0].View.Lookup(Tuple{Str("a")})
	if got[1].AsInt() != 11 {
		t.Errorf("month total = %v (checkpoint 5 + WAL tail 6)", got)
	}
}

func TestTornWALTailRecovers(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, telecomDDL)
	mustExec(t, db, `APPEND INTO calls VALUES ('alice', 12, 1.5)`)
	mustExec(t, db, `APPEND INTO calls VALUES ('alice', 8, 0.5)`)
	db.Close()

	// Simulate a crash mid-write: chop the last few bytes of the active
	// WAL segment (the one shard's first segment — nothing here rotates).
	walPath := filepath.Join(dir, wal.SegmentFileName(wal.StreamName(0), 1))
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	row, ok, _ := db2.Lookup("usage", Str("alice"))
	if !ok || row[1].AsInt() != 12 {
		t.Fatalf("after torn tail: %v %v (only the first append survives)", row, ok)
	}
}

func TestCheckpointRequiresDir(t *testing.T) {
	db := memDB(t)
	if err := db.Checkpoint(); err == nil {
		t.Error("in-memory checkpoint succeeded")
	}
	if err := db.Flush(); err != nil {
		t.Errorf("in-memory Flush: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Errorf("in-memory Close: %v", err)
	}
}

func TestExecErrors(t *testing.T) {
	db := memDB(t)
	expectExecError(t, db, ``, "empty")
	expectExecError(t, db, `NONSENSE`, "expected a statement")
	expectExecError(t, db, `APPEND INTO ghost VALUES (1)`, "unknown chronicle")
	expectExecError(t, db, `CREATE CHRONICLE c (x INT, x INT)`, "duplicate column")
	mustExec(t, db, `CREATE CHRONICLE c (x INT)`)
	expectExecError(t, db, `CREATE RELATION r (a STRING, KEY(nope))`, "key column")
	expectExecError(t, db, `APPEND INTO c VALUES ('wrong-type')`, "expects int")
}

func TestCatalogRendersAndReplays(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE GROUP g`)
	mustExec(t, db, `CREATE CHRONICLE c (acct STRING, n INT) IN GROUP g RETAIN 5`)
	mustExec(t, db, `CREATE RELATION r (k STRING, v INT, KEY(k))`)
	mustExec(t, db, `CREATE VIEW v AS
		SELECT c.acct, SUM(n) AS total FROM c
		JOIN r ON c.acct = r.k
		WHERE n > 0 AND (acct = 'a' OR acct = 'b')
		GROUP BY c.acct WITH STORE BTREE`)
	mustExec(t, db, `CREATE PERIODIC VIEW pv AS
		SELECT acct, COUNT(*) AS n2 FROM c GROUP BY acct
		EVERY 100 WIDTH 200 OFFSET 7 EXPIRE 50`)
	db.Close()

	catalog, err := os.ReadFile(filepath.Join(dir, "catalog.sql"))
	if err != nil {
		t.Fatal(err)
	}
	text := string(catalog)
	for _, want := range []string{"RETAIN 5", "KEY(k)", "EVERY 100 WIDTH 200 OFFSET 7 EXPIRE 50", "WHERE n > 0 AND (acct = 'a' OR acct = 'b')"} {
		if !strings.Contains(text, want) {
			t.Errorf("catalog missing %q:\n%s", want, text)
		}
	}
	// Every view has one store: the clause parses, is ignored, and is kept
	// as written, and the catalog replays with it below.
	if !strings.Contains(text, "GROUP BY c.acct WITH STORE BTREE;\n") {
		t.Errorf("catalog drops the WITH STORE clause:\n%s", text)
	}

	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("catalog replay: %v", err)
	}
	defer db2.Close()
	if _, ok := db2.View("v"); !ok {
		t.Error("view v missing after catalog replay")
	}
	if _, ok := db2.Engine().PeriodicView("pv"); !ok {
		t.Error("periodic view pv missing after catalog replay")
	}
}

func TestSNJoinAndAtomicAppend(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, `
		CREATE GROUP orders;
		CREATE CHRONICLE placed (acct STRING, item STRING) IN GROUP orders;
		CREATE CHRONICLE charged (acct STRING, amount FLOAT) IN GROUP orders;
		CREATE VIEW spend AS
			SELECT placed.acct, SUM(amount) AS total, COUNT(*) AS n
			FROM placed JOIN charged ON SN
			GROUP BY placed.acct;
	`)
	// Atomic multi-chronicle append: both tuples share one sequence number,
	// so the SN-join view sees the pair.
	mustExec(t, db, `APPEND INTO placed VALUES ('a', 'book') ALSO INTO charged VALUES ('a', 12.5)`)
	mustExec(t, db, `APPEND INTO placed VALUES ('a', 'pen') ALSO INTO charged VALUES ('a', 2.5)`)
	// A solo append joins with nothing.
	mustExec(t, db, `APPEND INTO placed VALUES ('a', 'unbilled')`)

	row, ok, err := db.Lookup("spend", Str("a"))
	if err != nil || !ok {
		t.Fatalf("lookup: %v %v", ok, err)
	}
	if row[1].AsFloat() != 15.0 || row[2].AsInt() != 2 {
		t.Errorf("spend(a) = %v", row)
	}
}

func TestDropView(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, telecomDDL)
	mustExec(t, db, `APPEND INTO calls VALUES ('alice', 12, 1.5)`)
	res := mustExec(t, db, `DROP VIEW usage`)
	if !strings.Contains(res.Message, "dropped") {
		t.Errorf("message = %q", res.Message)
	}
	expectExecError(t, db, `SELECT * FROM usage`, "unknown")
	expectExecError(t, db, `DROP VIEW usage`, "no view")
	// Appends keep working, and the dropped view is no longer maintained.
	before := db.Stats().ViewsMaintained
	mustExec(t, db, `APPEND INTO calls VALUES ('alice', 1, 0.1)`)
	if db.Stats().ViewsMaintained != before {
		t.Error("dropped view still maintained")
	}
	// The name can be reused.
	mustExec(t, db, `CREATE VIEW usage AS SELECT acct, COUNT(*) AS n FROM calls GROUP BY acct`)
	// Periodic views drop too.
	mustExec(t, db, `CREATE PERIODIC VIEW p AS SELECT acct, COUNT(*) AS n FROM calls GROUP BY acct EVERY 100`)
	mustExec(t, db, `DROP VIEW p`)
	if _, ok := db.Engine().PeriodicView("p"); ok {
		t.Error("periodic view still present")
	}
}

func TestDropViewDurable(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, telecomDDL)
	mustExec(t, db, `DROP VIEW usage`)
	db.Close()
	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if _, ok := db2.View("usage"); ok {
		t.Error("dropped view resurrected by recovery")
	}
}

// TestRejectedAppendIsNotLogged: an append the kernel cannot store — no
// tuples, or parts in two groups — fails before its record is cut, so it
// draws no LSN and the log still replays.
func TestRejectedAppendIsNotLogged(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE CHRONICLE a (x INT); CREATE CHRONICLE b (x INT)`)
	if _, err := db.Append("a"); err == nil || err.Error() != "chronicle a: empty append" {
		t.Errorf("empty append: %v", err)
	}
	if _, err := db.Exec(`APPEND INTO a VALUES (1) ALSO INTO b VALUES (2)`); err == nil || !strings.Contains(err.Error(), "belongs to group") {
		t.Errorf("append across groups: %v", err)
	}
	if got := db.Engine().LSN(); got != 0 {
		t.Errorf("rejected appends drew LSNs up to %d", got)
	}
	mustExec(t, db, `APPEND INTO a VALUES (3)`)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = Open(Options{Dir: dir, Shards: 1})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db.Close()
	if got := db.Engine().LSN(); got != 1 {
		t.Errorf("reopened at LSN %d, want 1", got)
	}
}

func TestCorruptCheckpointRejected(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, telecomDDL)
	mustExec(t, db, `APPEND INTO calls VALUES ('alice', 12, 1.5)`)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.Close()

	path := filepath.Join(dir, wal.CheckpointFileName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the header magic.
	bad := append([]byte("XXXX"), data[4:]...)
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir}); err == nil {
		t.Error("corrupt checkpoint accepted")
	}
	// A view section that is not a blocked image is rejected.
	name := []byte("\x05usage")
	at := bytes.Index(data, name)
	if at < 0 || bytes.Index(data[at+1:], name) >= 0 {
		t.Fatal("the checkpoint image does not name view usage once")
	}
	_, n := binary.Uvarint(data[at+len(name):])
	img := at + len(name) + n
	if string(data[img:img+4]) != "CDBV" {
		t.Fatalf("view usage's section opens with %q, want its blocked image", data[img:img+4])
	}
	for _, b := range []byte{0, 1, 'X'} {
		bad := append([]byte(nil), data...)
		bad[img] = b
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(Options{Dir: dir}); err == nil || !strings.Contains(err.Error(), "view usage") {
			t.Errorf("view section opening with byte %d: %v", b, err)
		}
	}
	// Truncated checkpoint also rejected.
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir}); err == nil {
		t.Error("truncated checkpoint accepted")
	}
	// Restoring the original brings the database back.
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if row, ok, _ := db2.Lookup("usage", Str("alice")); !ok || row[1].AsInt() != 12 {
		t.Errorf("restored checkpoint: %v %v", row, ok)
	}
}

func TestCorruptCatalogRejected(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE CHRONICLE c (x INT)`)
	db.Close()
	if err := os.WriteFile(filepath.Join(dir, "catalog.sql"), []byte("NOT SQL AT ALL"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir}); err == nil {
		t.Error("corrupt catalog accepted")
	}
}

func TestLookupRange(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, `CREATE CHRONICLE calls (acct STRING, minutes INT)`)
	mustExec(t, db, `CREATE VIEW usage AS
		SELECT acct, SUM(minutes) AS total FROM calls GROUP BY acct WITH STORE BTREE`)
	for _, acct := range []string{"carol", "alice", "dave", "bob"} {
		mustExec(t, db, `APPEND INTO calls VALUES ('`+acct+`', 1)`)
	}
	rows, err := db.LookupRange("usage", Tuple{Str("b")}, Tuple{Str("d")})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0][0].AsString() != "bob" || rows[1][0].AsString() != "carol" {
		t.Errorf("LookupRange = %v", rows)
	}
	if _, err := db.LookupRange("ghost", nil, nil); err == nil {
		t.Error("unknown view accepted")
	}
}

func TestStddevViaSQL(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, `CREATE CHRONICLE readings (sensor STRING, temp FLOAT)`)
	mustExec(t, db, `CREATE VIEW spread AS
		SELECT sensor, AVG(temp) AS mean, VAR(temp) AS variance, STDDEV(temp) AS sd
		FROM readings GROUP BY sensor`)
	for _, v := range []string{"2", "4", "4", "4", "5", "5", "7", "9"} {
		mustExec(t, db, `APPEND INTO readings VALUES ('s1', `+v+`)`)
	}
	row, ok, err := db.Lookup("spread", Str("s1"))
	if err != nil || !ok {
		t.Fatalf("lookup: %v %v", ok, err)
	}
	if row[1].AsFloat() != 5.0 || row[2].AsFloat() != 4.0 || row[3].AsFloat() != 2.0 {
		t.Errorf("spread = %v", row)
	}
}

func TestRetainWindowSQL(t *testing.T) {
	now := int64(0)
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, Clock: func() int64 { return now }})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE CHRONICLE calls (acct STRING, minutes INT) RETAIN ALL WINDOW 100`)
	for _, ch := range []int64{0, 50, 120, 250} {
		now = ch
		mustExec(t, db, `APPEND INTO calls VALUES ('a', 1)`)
	}
	res := mustExec(t, db, `SELECT * FROM calls`)
	if len(res.Rows) != 1 {
		t.Errorf("retained = %v (span 100, newest 250)", res.Rows)
	}
	// The WINDOW clause survives the catalog round trip.
	db.Close()
	db2, err := Open(Options{Dir: dir, Clock: func() int64 { return now }})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	c, ok := db2.Chronicle("calls")
	if !ok || c.RetainSpan() != 100 {
		t.Errorf("RetainSpan after replay = %d", c.RetainSpan())
	}
	expectExecError(t, db2, `CREATE CHRONICLE bad (x INT) WINDOW 0`, "positive")
}

func TestOrderByLimit(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, `CREATE CHRONICLE calls (acct STRING, minutes INT)`)
	mustExec(t, db, `CREATE VIEW usage AS SELECT acct, SUM(minutes) AS total FROM calls GROUP BY acct`)
	for acct, m := range map[string]int{"alice": 30, "bob": 10, "carol": 50, "dave": 20} {
		mustExec(t, db, fmt.Sprintf(`APPEND INTO calls VALUES ('%s', %d)`, acct, m))
	}
	// Top-2 accounts by minutes: the top-k summary query.
	res := mustExec(t, db, `SELECT * FROM usage ORDER BY total DESC LIMIT 2`)
	if len(res.Rows) != 2 || res.Rows[0][0].AsString() != "carol" || res.Rows[1][0].AsString() != "alice" {
		t.Errorf("top-2 = %v", res.Rows)
	}
	res = mustExec(t, db, `SELECT * FROM usage ORDER BY total ASC LIMIT 1`)
	if len(res.Rows) != 1 || res.Rows[0][0].AsString() != "bob" {
		t.Errorf("bottom-1 = %v", res.Rows)
	}
	// ORDER BY composes with WHERE.
	res = mustExec(t, db, `SELECT * FROM usage WHERE total > 15 ORDER BY acct`)
	if len(res.Rows) != 3 || res.Rows[0][0].AsString() != "alice" || res.Rows[2][0].AsString() != "dave" {
		t.Errorf("filtered+ordered = %v", res.Rows)
	}
	expectExecError(t, db, `SELECT * FROM usage ORDER BY nope`, "ORDER BY")
}

func TestShowStatsIncludesLatency(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, `CREATE CHRONICLE calls (acct STRING, minutes INT)`)
	mustExec(t, db, `CREATE VIEW usage AS SELECT acct, SUM(minutes) AS m FROM calls GROUP BY acct`)
	mustExec(t, db, `APPEND INTO calls VALUES ('a', 1)`)
	res := mustExec(t, db, `SHOW STATS`)
	found := false
	for _, r := range res.Rows {
		// A histogram with an observation has a p50 of at least its 1 ns bucket.
		if r[0].AsString() == "maintenance_p50_ns" && r[1].AsInt() > 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("maintenance_p50_ns missing or empty: %s", dumpResult(res))
	}
}

func TestChronicleQueryOrderBySN(t *testing.T) {
	db, err := Open(Options{DefaultRetention: RetainAll})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE CHRONICLE calls (acct STRING, minutes INT)`)
	for i := 0; i < 5; i++ {
		mustExec(t, db, fmt.Sprintf(`APPEND INTO calls VALUES ('a', %d)`, i))
	}
	// The latest record: detailed query over the retained window.
	res := mustExec(t, db, `SELECT * FROM calls ORDER BY _sn DESC LIMIT 1`)
	if len(res.Rows) != 1 || res.Rows[0][0].AsInt() != 4 || res.Rows[0][3].AsInt() != 4 {
		t.Errorf("latest record = %v", res.Rows)
	}
}

func TestShowGroups(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, telecomDDL)
	mustExec(t, db, `CREATE CHRONICLE payments (acct STRING, amount FLOAT) IN GROUP telecom`)
	mustExec(t, db, `APPEND INTO calls VALUES ('a', 1, 0.5)`)
	res := mustExec(t, db, `SHOW GROUPS`)
	if len(res.Rows) != 1 {
		t.Fatalf("SHOW GROUPS = %v", res.Rows)
	}
	r := res.Rows[0]
	if r[0].AsString() != "telecom" || r[1].AsInt() != 2 || r[2].AsInt() != 0 {
		t.Errorf("group row = %v", r)
	}
}

// TestAppendLiteralsOwnTheirBytes: a string literal is a substring of its
// statement, so an APPEND copies the string cells it hands the engine — a
// retained row, or a MIN holding its string, must not keep the whole
// statement alive.
func TestAppendLiteralsOwnTheirBytes(t *testing.T) {
	db := memDB(t)
	defer db.Close()
	mustExec(t, db, "CREATE CHRONICLE calls (acct STRING, plan STRING) RETAIN ALL")
	mustExec(t, db, "CREATE VIEW lo AS SELECT acct, MIN(plan) AS p FROM calls GROUP BY acct")
	stmt := "APPEND INTO calls VALUES ('a', 'gold'), ('b', 'it''s')"
	mustExec(t, db, stmt)
	inStmt := func(s string) bool {
		p, lo := uintptr(unsafe.Pointer(unsafe.StringData(s))), uintptr(unsafe.Pointer(unsafe.StringData(stmt)))
		return p >= lo && p < lo+uintptr(len(stmt))
	}
	c, _ := db.Chronicle("calls")
	for _, r := range c.Rows() {
		for _, v := range r.Vals {
			if inStmt(v.AsString()) {
				t.Errorf("retained row %v holds a substring of its statement", r.Vals)
			}
		}
	}
	v, _ := db.View("lo")
	if row, ok := v.Lookup(value.Tuple{value.Str("a")}); !ok || row[1].AsString() != "gold" || inStmt(row[1].AsString()) {
		t.Errorf("MIN(plan) of a = %v %v: want gold, not a substring of its statement", row, ok)
	}
}
