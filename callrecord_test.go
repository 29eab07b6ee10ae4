// One record per append call: every call is one wal.Record whose rows take
// one consecutive span of LSNs, at any shard count, and a reopen or a
// follower applies that record as the call was applied live — the same
// (SN, chronon, LSN) on every row, one maintenance round and one publication
// per view.
package chronicledb_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	chronicledb "chronicledb"
	"chronicledb/internal/chronicle"
)

const (
	spanWriters = 8   // concurrent writers, one group (and chronicle) each
	spanCalls   = 100 // idempotent calls per writer
	spanRows    = 16  // rows per call
)

// spanDDL makes one chronicle per writer, each in a group of its own, so the
// calls land on both shards of a two-shard database and draw LSNs at once.
func spanDDL(t *testing.T, db *chronicledb.DB) {
	t.Helper()
	for w := range spanWriters {
		mustExec(t, db, fmt.Sprintf(`CREATE CHRONICLE c%d (acct STRING, minutes INT) RETAIN ALL`, w))
		mustExec(t, db, fmt.Sprintf(`CREATE VIEW v%d AS SELECT acct, SUM(minutes) AS total FROM c%d GROUP BY acct`, w, w))
	}
}

// spanWorkload runs the writers: writer w sends spanCalls idempotent calls
// of spanRows rows to chronicle cw.
func spanWorkload(t *testing.T, db *chronicledb.DB) {
	t.Helper()
	var wg sync.WaitGroup
	for w := range spanWriters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tuples := make([]chronicledb.Tuple, spanRows)
			for c := range spanCalls {
				for i := range tuples {
					tuples[i] = chronicledb.Tuple{chronicledb.Str(fmt.Sprintf("a%d", i%5)), chronicledb.Int(int64(c*spanRows + i))}
				}
				if _, _, _, err := db.AppendRowsIdem(fmt.Sprintf("c%d", w), tuples, "writer", fmt.Sprintf("%d.%d", w, c)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// spanRowsOf renders every stored row with its SN, chronon and LSN, and
// checks that each call's rows took consecutive LSNs.
func spanRowsOf(t *testing.T, db *chronicledb.DB) string {
	t.Helper()
	var b strings.Builder
	for w := range spanWriters {
		c, ok := db.Chronicle(fmt.Sprintf("c%d", w))
		if !ok {
			t.Fatalf("no chronicle c%d", w)
		}
		i, broken := 0, 0
		var prev chronicle.Row
		c.Scan(func(r chronicle.Row) bool {
			if i%spanRows != 0 && r.LSN != prev.LSN+1 {
				broken++
			}
			fmt.Fprintf(&b, "c%d sn=%d ch=%d lsn=%d %v\n", w, r.SN, r.Chronon, r.LSN, r.Vals)
			prev = r
			i++
			return true
		})
		if i != spanCalls*spanRows || broken > 0 {
			t.Errorf("c%d holds %d rows, want %d; %d rows of a call not at the LSN after the row before", w, i, spanCalls*spanRows, broken)
		}
	}
	return b.String()
}

// firstDiff names the first line where got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d: got %q, want %q", i, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(g), len(w))
}

// TestCallLSNsSurviveReopen: under eight concurrent idempotent writers on two
// shards, every call's rows take consecutive LSNs, and a reopen that replays
// the whole log puts every row back at the SN, chronon and LSN it had live.
func TestCallLSNsSurviveReopen(t *testing.T) {
	opts := chronicledb.Options{Dir: t.TempDir(), Shards: 2, Clock: tickClock()}
	db, err := chronicledb.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	spanDDL(t, db)
	spanWorkload(t, db)
	live := spanRowsOf(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	opts.Clock = tickClock()
	re, err := chronicledb.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := spanRowsOf(t, re); got != live {
		t.Errorf("reopened rows differ from live: %s", firstDiff(got, live))
	}
}

// TestReplConvergesUnderConcurrentCalls: a follower of a two-shard primary
// taking eight concurrent idempotent writers applies every call's record, so
// it reaches the primary's LSN with every row at the SN, chronon and LSN it
// has on the primary.
func TestReplConvergesUnderConcurrentCalls(t *testing.T) {
	db, ts := openPrimary(t, chronicledb.Options{Shards: 2, Clock: tickClock()})
	defer ts.Close()
	defer db.Close()
	spanDDL(t, db)
	f := openFollower(t, ts.URL, t.TempDir(), chronicledb.Options{Shards: 2, Clock: tickClock()})
	defer f.Close()
	spanWorkload(t, db)
	waitUntil(t, 30*time.Second, "follower catch-up", func() bool {
		return f.Engine().LSN() == db.Engine().LSN()
	})
	if got, want := spanRowsOf(t, f), spanRowsOf(t, db); got != want {
		t.Errorf("follower rows differ from the primary's: %s", firstDiff(got, want))
	}
}

// callCounts is what one call costs, read off a database's counters: WAL
// records, views maintained (one per view a round reaches), and each view's
// folds and publications.
type callCounts struct {
	records, maintained int64
	folds, pubs         [3]int64
}

func readCallCounts(t *testing.T, db *chronicledb.DB) callCounts {
	t.Helper()
	c := callCounts{records: db.WALStats().Records, maintained: db.Stats().ViewsMaintained}
	for i, name := range []string{"usage", "busy", "accts"} {
		v, ok := db.View(name)
		if !ok {
			t.Fatalf("no view %s", name)
		}
		c.folds[i], c.pubs[i] = v.Stats().Applies, v.Stats().Publishes
	}
	return c
}

// since is c less before, field by field.
func (c callCounts) since(before callCounts) callCounts {
	c.records -= before.records
	c.maintained -= before.maintained
	for i := range c.folds {
		c.folds[i] -= before.folds[i]
		c.pubs[i] -= before.pubs[i]
	}
	return c
}

const callDDL = `CREATE CHRONICLE calls (acct STRING, minutes INT) RETAIN ALL;
CREATE VIEW usage AS SELECT acct, SUM(minutes) AS total FROM calls GROUP BY acct;
CREATE VIEW busy AS SELECT acct, COUNT(*) AS n FROM calls WHERE minutes >= 2 GROUP BY acct;
CREATE VIEW accts AS SELECT DISTINCT acct FROM calls`

// callTuples is the 16-row call the parity tests send.
func callTuples() []chronicledb.Tuple {
	out := make([]chronicledb.Tuple, spanRows)
	for i := range out {
		out[i] = chronicledb.Tuple{chronicledb.Str(fmt.Sprintf("a%d", i%4)), chronicledb.Int(int64(i))}
	}
	return out
}

// callRows renders the rows of chronicle calls with their stamps.
func callRows(t *testing.T, db *chronicledb.DB) string {
	t.Helper()
	c, ok := db.Chronicle("calls")
	if !ok {
		t.Fatal("no chronicle calls")
	}
	var b strings.Builder
	c.Scan(func(r chronicle.Row) bool {
		fmt.Fprintf(&b, "sn=%d ch=%d lsn=%d %v\n", r.SN, r.Chronon, r.LSN, r.Vals)
		return true
	})
	return b.String()
}

// TestAppendCallIsOneRecord is the replay-parity gate: one 16-row AppendRows
// call is one WAL record, one maintenance round and one fold and publication
// of each view, live, on a follower that applies it and after a reopen that
// replays it, and it stores the same rows at the same stamps in all three.
func TestAppendCallIsOneRecord(t *testing.T) {
	want := callCounts{records: 1, maintained: 3, folds: [3]int64{1, 1, 1}, pubs: [3]int64{1, 1, 1}}
	opts := chronicledb.Options{Dir: t.TempDir(), Clock: tickClock()}
	db, ts := openPrimary(t, opts)
	defer ts.Close()
	mustExec(t, db, callDDL)
	f := openFollower(t, ts.URL, t.TempDir(), chronicledb.Options{Clock: tickClock()})
	defer f.Close()
	waitUntil(t, 10*time.Second, "follower DDL", func() bool { _, ok := f.View("accts"); return ok })

	before, fBefore := readCallCounts(t, db), readCallCounts(t, f)
	if _, _, err := db.AppendRows("calls", callTuples()); err != nil {
		t.Fatal(err)
	}
	if got := readCallCounts(t, db).since(before); got != want {
		t.Errorf("live call: %+v, want %+v", got, want)
	}
	live := callRows(t, db)
	waitUntil(t, 10*time.Second, "follower catch-up", func() bool { return f.Engine().LSN() == db.Engine().LSN() })
	if got := readCallCounts(t, f).since(fBefore); got != want {
		t.Errorf("follower: %+v, want %+v", got, want)
	}
	if got := callRows(t, f); got != live {
		t.Errorf("follower rows differ: %s", firstDiff(got, live))
	}
	f.Close()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// The reopen makes the views as the DDL did live (before counts what
	// that cost), replays the call and appends nothing to its own log.
	opts.Clock = tickClock()
	re, err := chronicledb.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	want.records = 0
	if got := readCallCounts(t, re).since(before); got != want {
		t.Errorf("reopened: %+v, want %+v", got, want)
	}
	if got := callRows(t, re); got != live {
		t.Errorf("reopened rows differ: %s", firstDiff(got, live))
	}
}

// TestPlainAndIdemCallsStampAlike: under one injected clock, a plain call and
// an idempotent call of the same tuples read the clock once per tuple and
// store the same rows at the same SN, chronon and LSN.
func TestPlainAndIdemCallsStampAlike(t *testing.T) {
	var rows [2]string
	for i, idem := range []bool{false, true} {
		db, err := chronicledb.Open(chronicledb.Options{Clock: tickClock()})
		if err != nil {
			t.Fatal(err)
		}
		mustExec(t, db, callDDL)
		if idem {
			_, _, _, err = db.AppendRowsIdem("calls", callTuples(), "client", "req")
		} else {
			_, _, err = db.AppendRows("calls", callTuples())
		}
		if err != nil {
			t.Fatal(err)
		}
		rows[i] = callRows(t, db)
		db.Close()
	}
	if rows[0] != rows[1] {
		t.Errorf("an idempotent call stamps its rows unlike a plain call: %s", firstDiff(rows[1], rows[0]))
	}
}

// TestRelationRecordsReplayAtTheirLSNs: UPSERT statements and a key delete,
// interleaved with append calls on two shards, replay at the LSNs they had
// live — after a reopen and on a follower every key of the relation reads
// the same as of every LSN.
func TestRelationRecordsReplayAtTheirLSNs(t *testing.T) {
	opts := chronicledb.Options{Dir: t.TempDir(), Shards: 2, RelationHistory: true, Clock: tickClock()}
	db, ts := openPrimary(t, opts)
	defer ts.Close()
	f := openFollower(t, ts.URL, t.TempDir(), chronicledb.Options{Shards: 2, RelationHistory: true, Clock: tickClock()})
	defer f.Close()
	mustExec(t, db, `CREATE RELATION customers (acct STRING, state STRING, KEY(acct))`)
	mustExec(t, db, `CREATE CHRONICLE calls (acct STRING, minutes INT)`)
	mustExec(t, db, `UPSERT INTO customers VALUES ('a', 'nj'), ('b', 'ny')`)
	if _, _, err := db.AppendRows("calls", callTuples()[:3]); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `DELETE FROM customers KEY ('b')`)
	if _, _, _, err := db.AppendRowsIdem("calls", callTuples()[:2], "client", "req"); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `UPSERT INTO customers VALUES ('a', 'ca'), ('b', 'tx')`)
	versions := func(db *chronicledb.DB) string {
		rel, ok := db.Relation("customers")
		if !ok {
			t.Fatal("no relation customers")
		}
		var b strings.Builder
		for lsn := range db.Engine().LSN() + 1 {
			for _, k := range []string{"a", "b"} {
				row, ok := rel.GetAsOf(lsn, chronicledb.Tuple{chronicledb.Str(k)})
				fmt.Fprintf(&b, "%d %s %v %v\n", lsn, k, ok, row)
			}
		}
		return b.String()
	}
	live := versions(db)
	waitUntil(t, 10*time.Second, "follower catch-up", func() bool { return f.Engine().LSN() == db.Engine().LSN() })
	if got := versions(f); got != live {
		t.Errorf("follower's relation versions differ: %s", firstDiff(got, live))
	}
	f.Close()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	opts.Clock = tickClock()
	re, err := chronicledb.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := versions(re); got != live {
		t.Errorf("reopened relation versions differ: %s", firstDiff(got, live))
	}
}
