package chronicledb_test

import (
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	chronicledb "chronicledb"
	"chronicledb/internal/chronicle"
)

// The append-shape replay pin: one workload drives every shape an append
// takes — db.Append, a multi-chronicle APPEND … ALSO INTO, an AppendRows
// call that fails at tuple 3, an idempotent AppendRowsIdem and its retry —
// beside an UPSERT and a key delete, under an injected clock. The WAL
// segments it writes must equal testdata/append_shapes byte for byte, and
// the state it leaves — view rows, every stored row's SN, chronon and LSN,
// the relation, the LSN and the dedup table — must read the same live,
// after a reopen that replays the whole log, and on a follower at the same
// LSN; the idempotent retry must hit in all three. GOLDEN_WRITE=1 rewrites
// the segments, which only a change of the WAL format may do.

const shapesDDL = `
CREATE GROUP telecom;
CREATE CHRONICLE calls (acct STRING, minutes INT) IN GROUP telecom RETAIN ALL;
CREATE CHRONICLE fees (acct STRING, amount INT) IN GROUP telecom RETAIN ALL;
CREATE RELATION customers (acct STRING, state STRING, KEY(acct));
CREATE VIEW usage AS SELECT acct, SUM(minutes) AS total, COUNT(*) AS n FROM calls GROUP BY acct;
CREATE VIEW by_state AS SELECT state, SUM(minutes) AS m FROM calls
	JOIN customers ON calls.acct = customers.acct GROUP BY state;
CREATE VIEW billed AS SELECT calls.acct, SUM(amount) AS total, COUNT(*) AS n
	FROM calls JOIN fees ON SN GROUP BY calls.acct;
`

// shapesRetry is the idempotent request the workload sends twice.
var shapesRetry = []chronicledb.Tuple{
	{chronicledb.Str("dave"), chronicledb.Int(8)},
	{chronicledb.Str("alice"), chronicledb.Int(9)},
}

// tickClock is a deterministic clock: every read advances it by 1000.
func tickClock() func() int64 {
	var now atomic.Int64
	return func() int64 { return now.Add(1000) }
}

// runShapes drives the workload into db and returns the idempotent
// request's SN range.
func runShapes(t *testing.T, db *chronicledb.DB) (first, last int64) {
	t.Helper()
	mustExec(t, db, shapesDDL)
	mustExec(t, db, `UPSERT INTO customers VALUES ('alice', 'nj'), ('bob', 'ny')`)
	if sn, err := db.Append("calls", chronicledb.Tuple{chronicledb.Str("alice"), chronicledb.Int(3)}); err != nil || sn != 0 {
		t.Fatalf("Append = %d, %v", sn, err)
	}
	if sn, err := db.Append("calls",
		chronicledb.Tuple{chronicledb.Str("bob"), chronicledb.Int(4)},
		chronicledb.Tuple{chronicledb.Str("carol"), chronicledb.Int(5)}); err != nil || sn != 1 {
		t.Fatalf("Append of two tuples = %d, %v", sn, err)
	}
	res, err := db.Exec(`APPEND INTO calls VALUES ('alice', 7) ALSO INTO fees VALUES ('alice', 2)`)
	if err != nil || res.Message != "appended 2 tuple(s) across 2 chronicles at sequence number 2" {
		t.Fatalf("APPEND … ALSO INTO: %v, %v", res, err)
	}
	res, err = db.Exec(`APPEND INTO calls VALUES ('bob', 1), ('bob', 2)`)
	if err != nil || res.Message != "appended 2 tuple(s) at sequence number 3" {
		t.Fatalf("APPEND: %v, %v", res, err)
	}
	// Tuple 3 does not fit the schema: tuples 0..2 stay applied.
	bad := []chronicledb.Tuple{
		{chronicledb.Str("alice"), chronicledb.Int(1)},
		{chronicledb.Str("bob"), chronicledb.Int(1)},
		{chronicledb.Str("carol"), chronicledb.Int(1)},
		{chronicledb.Str("dave"), chronicledb.Str("one")},
		{chronicledb.Str("erin"), chronicledb.Int(1)},
	}
	first, last, err = db.AppendRows("calls", bad)
	if err == nil || !strings.Contains(err.Error(), "tuple 3") || first != 4 || last != 6 {
		t.Fatalf("AppendRows failing at tuple 3 = %d..%d, %v", first, last, err)
	}
	mustExec(t, db, `DELETE FROM customers KEY ('bob')`)
	first, last, deduped, err := db.AppendRowsIdem("calls", slices.Clone(shapesRetry), "client", "req-1")
	if err != nil || deduped || first != 7 || last != 8 {
		t.Fatalf("AppendRowsIdem = %d..%d deduped=%v, %v", first, last, deduped, err)
	}
	expectRetryHit(t, db, first, last)
	if _, err := db.Append("calls", chronicledb.Tuple{chronicledb.Str("bob"), chronicledb.Int(6)}); err != nil {
		t.Fatal(err)
	}
	return first, last
}

// expectRetryHit resends the idempotent request and wants its original range.
func expectRetryHit(t *testing.T, db *chronicledb.DB, first, last int64) {
	t.Helper()
	_, hitsBefore, _ := db.DedupStats()
	f, l, deduped, err := db.AppendRowsIdem("calls", slices.Clone(shapesRetry), "client", "req-1")
	if err != nil || !deduped || f != first || l != last {
		t.Fatalf("retry = %d..%d deduped=%v, %v; want %d..%d deduped", f, l, deduped, err, first, last)
	}
	if _, hits, _ := db.DedupStats(); hits != hitsBefore+1 {
		t.Fatalf("dedup hits %d after the retry, want %d", hits, hitsBefore+1)
	}
}

// shapesState renders everything the workload leaves behind.
func shapesState(t *testing.T, db *chronicledb.DB) string {
	t.Helper()
	var b strings.Builder
	for _, v := range []string{"usage", "by_state", "billed"} {
		if err := db.ScanView(v, func(r chronicledb.Row) bool {
			fmt.Fprintf(&b, "%s %v\n", v, r)
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"calls", "fees"} {
		c, ok := db.Chronicle(name)
		if !ok {
			t.Fatalf("no chronicle %s", name)
		}
		c.Scan(func(r chronicle.Row) bool {
			fmt.Fprintf(&b, "%s sn=%d chronon=%d lsn=%d %v\n", name, r.SN, r.Chronon, r.LSN, r.Vals)
			return true
		})
	}
	rows, err := db.Engine().RelationRows("customers")
	if err != nil {
		t.Fatal(err)
	}
	entries, _, _ := db.DedupStats()
	fmt.Fprintf(&b, "customers %v\nlsn %d\ndedup entries %d\n", rows, db.Engine().LSN(), entries)
	return b.String()
}

func TestAppendShapesReplayExactly(t *testing.T) {
	dir := t.TempDir()
	opts := chronicledb.Options{Shards: 2, Clock: tickClock()}
	opts.Dir = dir
	db, ts := openPrimary(t, opts)
	defer ts.Close()
	first, last := runShapes(t, db)
	live := shapesState(t, db)

	// A follower that streams the log from LSN 0.
	f := openFollower(t, ts.URL, t.TempDir(), chronicledb.Options{Shards: 2, Clock: tickClock()})
	waitUntil(t, 10*time.Second, "follower catch-up", func() bool {
		return f.Engine().LSN() == db.Engine().LSN()
	})
	if got := shapesState(t, f); got != live {
		t.Errorf("follower state differs:\n got:\n%s\nwant:\n%s", got, live)
	}
	if err := f.Promote(); err != nil {
		t.Fatal(err)
	}
	expectRetryHit(t, f, first, last)
	f.Close()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments in %s: %v", dir, err)
	}
	pinned, _ := filepath.Glob(filepath.Join("testdata", "append_shapes", "*.hex"))
	if os.Getenv("GOLDEN_WRITE") == "" && len(pinned) != len(segs) {
		t.Errorf("%d WAL segments, testdata pins %d", len(segs), len(pinned))
	}
	for _, seg := range segs {
		got, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		want := shapesGolden(t, filepath.Base(seg), got)
		if !slices.Equal(got, want) {
			t.Errorf("WAL segment %s differs from testdata (%d bytes, want %d)", filepath.Base(seg), len(got), len(want))
		}
	}

	// A reopen with no checkpoint replays the whole log.
	opts.Clock = tickClock()
	re, err := chronicledb.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := shapesState(t, re); got != live {
		t.Errorf("reopened state differs:\n got:\n%s\nwant:\n%s", got, live)
	}
	expectRetryHit(t, re, first, last)
}

// shapesGolden returns the pinned bytes of one WAL segment, first writing
// got there when GOLDEN_WRITE is set.
func shapesGolden(t *testing.T, seg string, got []byte) []byte {
	t.Helper()
	path := filepath.Join("testdata", "append_shapes", seg+".hex")
	if os.Getenv("GOLDEN_WRITE") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(hex.EncodeToString(got)+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := hex.DecodeString(strings.TrimSpace(string(text)))
	if err != nil {
		t.Fatal(err)
	}
	return want
}
