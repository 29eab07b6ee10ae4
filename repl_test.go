// End-to-end log-shipping replication tests: a primary serving the
// /repl/* surface over httptest, real followers applying the stream into
// live engines, and clients exercising the typed-503 failover contract.
package chronicledb_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	chronicledb "chronicledb"
	"chronicledb/internal/server"
)

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func openPrimary(t *testing.T, opts chronicledb.Options) (*chronicledb.DB, *httptest.Server) {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	opts.SyncWAL = true
	db, err := chronicledb.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.NewWith(db, server.Config{ReplHeartbeat: 20 * time.Millisecond}))
	return db, ts
}

func openFollower(t *testing.T, primaryURL, dir string, opts chronicledb.Options) *chronicledb.DB {
	t.Helper()
	opts.Dir = dir
	opts.SyncWAL = true
	opts.ReplicaOf = primaryURL
	if opts.FollowerID == "" {
		opts.FollowerID = "f-" + t.Name()
	}
	db, err := chronicledb.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// usageTotal reads the usage view total for acct on db; -1 when absent.
func usageTotal(t *testing.T, db *chronicledb.DB, acct string) int64 {
	t.Helper()
	row, ok, err := db.Lookup("usage", chronicledb.Str(acct))
	if err != nil || !ok {
		return -1
	}
	return row[1].AsInt()
}

// TestReplBasic: a follower converges to the primary's exact state —
// pre-existing rows served from the disk backlog, live rows from the
// fan-out, DDL created both before and after the follower attached — and
// a follower restart resumes from its own recovered LSN frontier.
func TestReplBasic(t *testing.T) {
	db, ts := openPrimary(t, chronicledb.Options{Shards: 2, Feed: true})
	defer ts.Close()
	defer db.Close()
	mustExec(t, db, `CREATE CHRONICLE calls (acct STRING, minutes INT) RETAIN ALL`)
	mustExec(t, db, `CREATE VIEW usage AS SELECT acct, SUM(minutes) AS total FROM calls GROUP BY acct`)
	for i := 0; i < 10; i++ {
		if _, err := db.Append("calls", chronicledb.Tuple{chronicledb.Str("a"), chronicledb.Int(1)}); err != nil {
			t.Fatal(err)
		}
	}

	fdir := t.TempDir()
	f := openFollower(t, ts.URL, fdir, chronicledb.Options{Shards: 2, Feed: true})
	defer f.Close()
	if got := f.Role(); got != "replica" {
		t.Fatalf("follower role = %q", got)
	}
	waitUntil(t, 10*time.Second, "backlog catch-up", func() bool {
		return usageTotal(t, f, "a") == 10
	})

	// Writes on a replica are refused with the typed sentinel.
	if _, err := f.Append("calls", chronicledb.Tuple{chronicledb.Str("a"), chronicledb.Int(1)}); !errors.Is(err, chronicledb.ErrNotPrimary) {
		t.Fatalf("replica append err = %v, want ErrNotPrimary", err)
	}
	if _, err := f.Exec(`CREATE CHRONICLE nope (x INT)`); !errors.Is(err, chronicledb.ErrNotPrimary) {
		t.Fatalf("replica ddl err = %v, want ErrNotPrimary", err)
	}

	// Live DDL + appends replicate in order.
	mustExec(t, db, `CREATE VIEW peak AS SELECT acct, MAX(minutes) AS peak FROM calls GROUP BY acct`)
	for i := 0; i < 5; i++ {
		if _, err := db.Append("calls", chronicledb.Tuple{chronicledb.Str("b"), chronicledb.Int(int64(i + 1))}); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, 10*time.Second, "live convergence", func() bool {
		if usageTotal(t, f, "b") != 15 {
			return false
		}
		row, ok, err := f.Lookup("peak", chronicledb.Str("b"))
		return err == nil && ok && row[1].AsInt() == 5
	})
	st, ok := f.ReplState()
	if !ok || st.AppliedLSN == 0 {
		t.Fatalf("repl state: %+v ok=%v", st, ok)
	}

	// Restart the follower: it recovers its own WAL, then resumes the
	// stream from the recovered frontier and picks up what it missed.
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := db.Append("calls", chronicledb.Tuple{chronicledb.Str("c"), chronicledb.Int(2)}); err != nil {
			t.Fatal(err)
		}
	}
	f2 := openFollower(t, ts.URL, fdir, chronicledb.Options{Shards: 2, Feed: true})
	defer f2.Close()
	waitUntil(t, 10*time.Second, "post-restart catch-up", func() bool {
		return usageTotal(t, f2, "a") == 10 && usageTotal(t, f2, "c") == 10
	})

	// The backlog skips what a follower holds as it reads the segments: from
	// an LSN in the middle of one it delivers exactly (from, upTo], and a
	// from inside a record of several LSNs (a three-row UPSERT) is a loud
	// gap, never a silent skip.
	mustExec(t, db, `CREATE RELATION rates (acct STRING, rate INT, KEY(acct))`)
	mustExec(t, db, `UPSERT INTO rates VALUES ('a', 1), ('b', 2), ('c', 3)`)
	upsert := chronicledb.Kernel(db).LSN() - 2
	if _, err := db.Append("calls", chronicledb.Tuple{chronicledb.Str("d"), chronicledb.Int(1)}); err != nil {
		t.Fatal(err)
	}
	upTo := chronicledb.Kernel(db).LSN()
	want := uint64(8)
	err := db.ReplBacklog(want-1, upTo, func(_ []byte, lsn, span uint64) error {
		if lsn != want {
			return fmt.Errorf("backlog from %d delivered lsn %d next, want %d", 7, lsn, want)
		}
		want = lsn + span
		return nil
	})
	if err != nil || want != upTo+1 {
		t.Fatalf("backlog (7, %d]: ended before lsn %d: %v", upTo, want, err)
	}
	if err := db.ReplBacklog(upsert, upTo, func([]byte, uint64, uint64) error { return nil }); err == nil || !strings.Contains(err.Error(), "gap") {
		t.Fatalf("backlog from inside the UPSERT at lsn %d: err %v, want a gap", upsert, err)
	}
}

// TestReplSnapshotBootstrap: a follower whose start LSN was compacted
// below the primary's checkpoint chain bootstraps from the full snapshot
// image (410 Gone → /repl/snapshot) — and the follower's changefeed is
// rebased at the restored frontier, so db.Watch serves a snapshot at the
// restore LSN followed by gapless live deltas (the feed-rebase
// regression).
func TestReplSnapshotBootstrap(t *testing.T) {
	db, ts := openPrimary(t, chronicledb.Options{Shards: 2, Feed: true})
	defer ts.Close()
	defer db.Close()
	mustExec(t, db, `CREATE CHRONICLE calls (acct STRING, minutes INT) RETAIN ALL`)
	mustExec(t, db, `CREATE VIEW usage AS SELECT acct, SUM(minutes) AS total FROM calls GROUP BY acct`)
	for i := 0; i < 20; i++ {
		if _, err := db.Append("calls", chronicledb.Tuple{chronicledb.Str("a"), chronicledb.Int(1)}); err != nil {
			t.Fatal(err)
		}
	}
	// Checkpoint + compaction: LSN 0 is now below the chain, so a fresh
	// follower cannot be served from the segment set.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	f := openFollower(t, ts.URL, t.TempDir(), chronicledb.Options{Shards: 2, Feed: true})
	defer f.Close()
	// The view converges inside the resync callback, before the replica
	// loop stamps its counters — wait for the resync count too.
	waitUntil(t, 10*time.Second, "snapshot bootstrap", func() bool {
		st, ok := f.ReplState()
		return ok && st.Resyncs > 0 && usageTotal(t, f, "a") == 20
	})

	// Watch on the follower: the subscription predates any replicated
	// frame it will observe, so the stream must open with a snapshot at
	// the rebased frontier and then deliver live replicated deltas with
	// strictly increasing LSNs.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	events := make(chan chronicledb.WatchEvent, 64)
	done := make(chan error, 1)
	go func() {
		done <- f.Watch(ctx, "usage", 0, false, func(ev chronicledb.WatchEvent) bool {
			select {
			case events <- ev:
			case <-ctx.Done():
				return false
			}
			return true
		})
	}()
	var snapLSN uint64
	select {
	case ev := <-events:
		if ev.Kind != chronicledb.WatchSnapshot {
			t.Fatalf("first watch event = %v, want snapshot", ev.Kind)
		}
		if ev.LSN == 0 {
			t.Fatal("snapshot at LSN 0: feed was not rebased at the restored frontier")
		}
		snapLSN = ev.LSN
	case <-ctx.Done():
		t.Fatal("no snapshot event")
	}
	if _, err := db.Append("calls", chronicledb.Tuple{chronicledb.Str("a"), chronicledb.Int(1)}); err != nil {
		t.Fatal(err)
	}
	for {
		select {
		case ev := <-events:
			if ev.Kind != chronicledb.WatchDelta {
				continue
			}
			if ev.LSN <= snapLSN {
				t.Fatalf("delta LSN %d not past snapshot LSN %d", ev.LSN, snapLSN)
			}
			cancel()
			<-done
			return
		case <-ctx.Done():
			t.Fatal("no replicated delta reached the follower watch")
		}
	}
}

// TestReplResyncLargerThanViewCache bootstraps a follower whose view cache
// holds a few blocks of a view of thousands of groups: the snapshot restore
// must page the view in under the budget, not load it whole, and the
// follower must answer every key and a full scan as the primary does, then
// and after the stream resumes.
func TestReplResyncLargerThanViewCache(t *testing.T) {
	const keys = 2000
	db, ts := openPrimary(t, chronicledb.Options{Shards: 2})
	defer ts.Close()
	defer db.Close()
	mustExec(t, db, `CREATE CHRONICLE calls (acct STRING, minutes INT) RETAIN ALL`)
	mustExec(t, db, `CREATE VIEW usage AS SELECT acct, SUM(minutes) AS total FROM calls GROUP BY acct`)
	appendKeys := func(from, to int) {
		t.Helper()
		tuples := make([]chronicledb.Tuple, 0, to-from)
		for i := from; i < to; i++ {
			tuples = append(tuples, chronicledb.Tuple{chronicledb.Str(fmt.Sprintf("acct%05d", i)), chronicledb.Int(int64(i%7 + 1))})
		}
		if _, _, err := db.AppendRows("calls", tuples); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < keys; i += 500 {
		appendKeys(i, i+500)
	}
	// Checkpoint + compaction: the follower must bootstrap from the files.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	f := openFollower(t, ts.URL, t.TempDir(), chronicledb.Options{Shards: 2, ViewBlockBytes: 256, ViewCacheBytes: 1 << 10})
	defer f.Close()
	scan := func(d *chronicledb.DB) []string {
		t.Helper()
		var rows []string
		if err := d.ScanView("usage", func(r chronicledb.Row) bool {
			rows = append(rows, fmt.Sprint(r))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return rows
	}
	converged := func(what string, groups int) {
		t.Helper()
		want := scan(db)
		if len(want) != groups {
			t.Fatalf("%s: the primary holds %d groups, want %d", what, len(want), groups)
		}
		waitUntil(t, 20*time.Second, what, func() bool {
			st, ok := f.ReplState()
			return ok && st.Resyncs > 0 && slices.Equal(scan(f), want)
		})
		for i := 0; i < groups; i++ {
			acct := chronicledb.Str(fmt.Sprintf("acct%05d", i))
			wr, wok, werr := db.Lookup("usage", acct)
			gr, gok, gerr := f.Lookup("usage", acct)
			if werr != nil || gerr != nil || wok != gok || fmt.Sprint(wr) != fmt.Sprint(gr) {
				t.Fatalf("%s: lookup %v: follower %v %v %v, primary %v %v %v", what, acct, gr, gok, gerr, wr, wok, werr)
			}
		}
	}
	withinBudget := func(what string) {
		t.Helper()
		w := f.WALStats()
		if w.ViewCacheBudget != 1<<10 || w.ViewCacheBytes > w.ViewCacheBudget {
			t.Fatalf("%s: %d view bytes resident, budget %d", what, w.ViewCacheBytes, w.ViewCacheBudget)
		}
		if w.ViewCacheMisses == 0 || w.ViewCacheEvictions == 0 {
			t.Fatalf("%s: %d block faults and %d evictions: the view never paged", what, w.ViewCacheMisses, w.ViewCacheEvictions)
		}
	}
	converged("snapshot bootstrap", keys)
	withinBudget("snapshot bootstrap")

	// The stream resumes after the bootstrap: new groups and old ones. The
	// blocks it writes stay dirty, so resident, until the follower's next
	// checkpoint cut turns them clean.
	appendKeys(keys-100, keys+100)
	converged("streamed appends", keys+100)
	if err := f.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	withinBudget("the follower's checkpoint")
}

// TestReplSyncAck: in sync ack mode an append ack waits for a follower
// acknowledgement; with no follower attached it degrades (counter moves)
// instead of blocking the write path.
func TestReplSyncAck(t *testing.T) {
	db, ts := openPrimary(t, chronicledb.Options{
		Shards: 2, AckMode: "sync", SyncAckTimeout: 2 * time.Second,
	})
	defer ts.Close()
	defer db.Close()
	mustExec(t, db, `CREATE CHRONICLE calls (acct STRING, minutes INT) RETAIN ALL`)

	// No follower: the write still acks, degraded.
	if _, err := db.Append("calls", chronicledb.Tuple{chronicledb.Str("a"), chronicledb.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if db.DegradedAcks() == 0 {
		t.Fatal("no-follower sync append did not degrade")
	}

	f := openFollower(t, ts.URL, t.TempDir(), chronicledb.Options{Shards: 2})
	defer f.Close()
	waitUntil(t, 10*time.Second, "follower attach", func() bool {
		return len(db.ReplSource().Followers()) == 1
	})
	waitUntil(t, 10*time.Second, "follower caught up", func() bool {
		return usageRows(t, f) == 1
	})
	base := db.DegradedAcks()
	for i := 0; i < 5; i++ {
		if _, err := db.Append("calls", chronicledb.Tuple{chronicledb.Str("a"), chronicledb.Int(1)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := db.DegradedAcks(); got != base {
		t.Fatalf("degraded acks moved %d -> %d with a live follower", base, got)
	}
	// The acked writes are on the follower by construction.
	if n := usageRows(t, f); n != 6 {
		t.Fatalf("follower rows = %d, want 6 (sync ack returned before apply)", n)
	}
}

// usageRows counts the calls chronicle's rows on db.
func usageRows(t *testing.T, db *chronicledb.DB) int {
	t.Helper()
	res, err := db.Exec(`SELECT * FROM calls`)
	if err != nil {
		return -1
	}
	return len(res.Rows)
}

// TestReplStaleReads: a follower past its staleness bound answers reads
// and watches with the typed stale-replica 503, and a multi-endpoint
// client rotates to a healthy member while a single-endpoint client gets
// the sentinel without burning retries.
func TestReplStaleReads(t *testing.T) {
	// Healthy primary for the rotation target.
	db, ts := openPrimary(t, chronicledb.Options{Shards: 2})
	defer ts.Close()
	defer db.Close()
	mustExec(t, db, `CREATE CHRONICLE calls (acct STRING, minutes INT) RETAIN ALL`)

	// Follower of an unreachable primary with a tiny staleness bound: it
	// can never observe itself caught up, so it goes stale almost at once.
	f := openFollower(t, "http://127.0.0.1:9", t.TempDir(), chronicledb.Options{
		Shards: 2, MaxStaleness: 30 * time.Millisecond,
	})
	defer f.Close()
	srvf := server.NewWith(f, server.Config{})
	tsf := httptest.NewServer(srvf)
	defer tsf.Close()
	waitUntil(t, 5*time.Second, "follower staleness", f.Stale)

	// Single endpoint: the typed sentinel, one attempt, no blind retries.
	c1 := server.NewClientWith(tsf.URL, server.ClientConfig{MaxAttempts: 4, BaseBackoff: time.Millisecond})
	if _, err := c1.Exec(`SELECT * FROM calls`); !errors.Is(err, server.ErrStaleReplica) {
		t.Fatalf("stale read err = %v, want ErrStaleReplica", err)
	}

	// /healthz advertises the staleness with figures, in the shape of every
	// other state: status, error and the health metrics (replica lag included).
	hr, err := http.Get(tsf.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	json.NewDecoder(hr.Body).Decode(&health)
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable || health["status"] != "stale" {
		t.Fatalf("healthz = %d %v, want 503 stale", hr.StatusCode, health)
	}
	want := map[string]bool{"status": true, "error": true}
	for _, m := range srvf.Metrics() {
		if m.Health {
			want[m.Name] = true
		}
	}
	for k := range health {
		if !want[k] {
			t.Errorf("stale /healthz has undeclared key %q", k)
		}
	}
	if _, ok := health["replica_lag_lsn"]; !ok || len(health) != len(want) {
		t.Errorf("stale /healthz keys = %v, want %v", health, want)
	}

	// Two endpoints: the stale 503 rotates to the healthy primary.
	c2 := server.NewClientWith(tsf.URL, server.ClientConfig{
		Endpoints: []string{ts.URL}, MaxAttempts: 4, BaseBackoff: time.Millisecond,
	})
	if _, err := c2.Exec(`SELECT * FROM calls`); err != nil {
		t.Fatalf("rotation failed: %v", err)
	}
}

// TestRetryable503Codes pins the client-side contract for each 503
// flavor: read-only is permanent (no blind retry, no rotation),
// stale-replica and not-primary rotate to the next endpoint.
func TestRetryable503Codes(t *testing.T) {
	serve503 := func(code string, hits *atomic.Int64) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hits.Add(1)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, `{"error":"synthetic","code":%q}`, code)
		}))
	}
	okBody := `{"columns":["n"],"rows":[[1]]}`
	var okHits atomic.Int64
	tsOK := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		okHits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, okBody)
	}))
	defer tsOK.Close()

	t.Run("read-only-permanent", func(t *testing.T) {
		var hits atomic.Int64
		ts := serve503("read-only", &hits)
		defer ts.Close()
		before := okHits.Load()
		c := server.NewClientWith(ts.URL, server.ClientConfig{
			Endpoints: []string{tsOK.URL}, MaxAttempts: 5, BaseBackoff: time.Millisecond,
		})
		if _, err := c.Exec(`SELECT 1`); !errors.Is(err, server.ErrReadOnly) {
			t.Fatalf("err = %v, want ErrReadOnly", err)
		}
		if hits.Load() != 1 || okHits.Load() != before {
			t.Fatalf("read-only 503 retried: degraded=%d healthy=%d", hits.Load(), okHits.Load()-before)
		}
	})
	for _, code := range []string{"stale-replica", "not-primary"} {
		t.Run(code+"-rotates", func(t *testing.T) {
			var hits atomic.Int64
			ts := serve503(code, &hits)
			defer ts.Close()
			c := server.NewClientWith(ts.URL, server.ClientConfig{
				Endpoints: []string{tsOK.URL}, MaxAttempts: 5, BaseBackoff: time.Millisecond,
			})
			resp, err := c.Exec(`SELECT 1`)
			if err != nil || len(resp.Rows) != 1 {
				t.Fatalf("rotation: resp=%+v err=%v", resp, err)
			}
			if hits.Load() != 1 {
				t.Fatalf("wrong-member endpoint hit %d times", hits.Load())
			}
		})
	}
}

// TestReplPromoteFailover: explicit failover. A sync-acked write is on
// the follower before its ack returns; after the primary dies and the
// follower is promoted via POST /promote, a client retrying the same
// idempotent request against the rotated endpoint receives the original
// ack out of the replicated dedup table — not a double apply.
func TestReplPromoteFailover(t *testing.T) {
	db, ts := openPrimary(t, chronicledb.Options{
		Shards: 2, AckMode: "sync", SyncAckTimeout: 10 * time.Second,
	})
	defer ts.Close()
	defer db.Close()
	mustExec(t, db, `CREATE CHRONICLE calls (acct STRING, minutes INT) RETAIN ALL`)
	mustExec(t, db, `CREATE VIEW usage AS SELECT acct, SUM(minutes) AS total FROM calls GROUP BY acct`)

	f := openFollower(t, ts.URL, t.TempDir(), chronicledb.Options{Shards: 2, FollowerID: "standby"})
	defer f.Close()
	tsf := httptest.NewServer(server.NewWith(f, server.Config{}))
	defer tsf.Close()
	waitUntil(t, 10*time.Second, "follower attach", func() bool {
		return len(db.ReplSource().Followers()) == 1
	})

	c := server.NewClientWith(ts.URL, server.ClientConfig{
		ClientID:  "failover",
		Endpoints: []string{tsf.URL},
		Timeout:   2 * time.Second, MaxAttempts: 3, BaseBackoff: time.Millisecond,
	})
	ack1, err := c.AppendRowsIdem("calls", [][]any{{"a", 7}}, "r1")
	if err != nil || ack1.Deduped {
		t.Fatalf("first append: %+v err=%v", ack1, err)
	}

	// The primary dies; the follower is promoted over HTTP.
	ts.CloseClientConnections()
	ts.Close()
	pr, err := http.Post(tsf.URL+"/promote", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var promoted server.PromoteResponse
	json.NewDecoder(pr.Body).Decode(&promoted)
	pr.Body.Close()
	if pr.StatusCode != http.StatusOK || promoted.Role != "primary" {
		t.Fatalf("promote = %d %+v", pr.StatusCode, promoted)
	}
	if f.Role() != "primary" {
		t.Fatalf("promoted role = %q", f.Role())
	}

	// Ambiguous retry of the acked request: the rotation lands it on the
	// promoted follower, whose replicated dedup table returns the original
	// SN range.
	var ack2 *server.AppendResponse
	deadline := time.Now().Add(20 * time.Second)
	for {
		ack2, err = c.AppendRowsIdem("calls", [][]any{{"a", 7}}, "r1")
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("retry never succeeded: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !ack2.Deduped || ack2.FirstSN != ack1.FirstSN || ack2.LastSN != ack1.LastSN {
		t.Fatalf("failover retry = %+v, want deduped echo of %+v", ack2, ack1)
	}
	// Fresh writes append normally on the new primary.
	ack3, err := c.AppendRowsIdem("calls", [][]any{{"a", 3}}, "r2")
	if err != nil || ack3.Deduped {
		t.Fatalf("post-failover append: %+v err=%v", ack3, err)
	}
	if got := usageTotal(t, f, "a"); got != 10 {
		t.Fatalf("promoted usage total = %d, want 10", got)
	}
}

func mustExec(t *testing.T, db *chronicledb.DB, stmt string) {
	t.Helper()
	if _, err := db.Exec(stmt); err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
}
