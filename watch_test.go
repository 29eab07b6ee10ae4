// Tests for the embedded changefeed API: DB.Watch streaming snapshot
// catch-up and live deltas with gapless, duplicate-free LSN cursors, on
// one shard and on several, plus the fan-out stress run
// `make watch-stress` executes under -race.
package chronicledb_test

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	chronicledb "chronicledb"
	"chronicledb/internal/server"
)

// openFeedDB opens an in-memory database with changefeeds on.
func openFeedDB(t *testing.T, shards int) *chronicledb.DB {
	t.Helper()
	db, err := chronicledb.Open(chronicledb.Options{Feed: true, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if _, err := db.Exec(`CREATE CHRONICLE calls (acct STRING, minutes INT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`CREATE VIEW usage AS SELECT acct, COUNT(*) AS n, SUM(minutes) AS total FROM calls GROUP BY acct`); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestWatchRequiresFeedOption(t *testing.T) {
	db, err := chronicledb.Open(chronicledb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	err = db.Watch(context.Background(), "v", 0, false, func(chronicledb.WatchEvent) bool { return true })
	if err == nil {
		t.Fatal("Watch without Options.Feed must error")
	}
}

func TestWatchUnknownView(t *testing.T) {
	db := openFeedDB(t, 0)
	err := db.Watch(context.Background(), "nope", 0, false, func(chronicledb.WatchEvent) bool { return true })
	if err == nil {
		t.Fatal("Watch of an unknown view must error")
	}
}

// TestWatchSnapshotThenDeltas is the core splice contract: a fresh watch
// first sees the view's contents at some LSN S, then every delta with
// LSN > S, strictly increasing, none missing, none repeated. An aggregate
// view's delta rows are the projected source rows (one per appended row;
// maintenance folds them into the groups), so the snapshot's count plus
// the number of delta rows received must land exactly on the final total:
// a gap undercounts, a duplicate overcounts.
func TestWatchSnapshotThenDeltas(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db := openFeedDB(t, shards)
			// Pre-watch history: the snapshot must cover it.
			for i := 0; i < 5; i++ {
				if _, err := db.Exec(`APPEND INTO calls VALUES ('a', 1)`); err != nil {
					t.Fatal(err)
				}
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()

			const liveAppends = 20
			type got struct {
				snapshotN int64 // count column in the snapshot row
				snapLSN   uint64
				deltas    []uint64 // LSNs
				sum       int64    // delta rows received (one per append)
			}
			var g got
			done := make(chan error, 1)
			started := make(chan struct{})
			go func() {
				first := true
				done <- db.Watch(ctx, "usage", 0, false, func(ev chronicledb.WatchEvent) bool {
					if first {
						close(started)
						first = false
					}
					switch ev.Kind {
					case chronicledb.WatchSnapshot:
						g.snapLSN = ev.LSN
						for _, r := range ev.Rows {
							g.snapshotN = r[1].AsInt()
						}
					case chronicledb.WatchDelta:
						g.deltas = append(g.deltas, ev.LSN)
						g.sum += int64(len(ev.Deltas))
					}
					return g.snapshotN+g.sum < 5+liveAppends
				})
			}()
			<-started
			for i := 0; i < liveAppends; i++ {
				if _, err := db.Exec(`APPEND INTO calls VALUES ('a', 1)`); err != nil {
					t.Fatal(err)
				}
			}
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("watch did not finish; got %d deltas (snapshot %d + sum %d)",
					len(g.deltas), g.snapshotN, g.sum)
			}

			if g.snapshotN != 5 {
				t.Fatalf("snapshot count = %d, want 5", g.snapshotN)
			}
			last := g.snapLSN
			for _, lsn := range g.deltas {
				if lsn <= last {
					t.Fatalf("delta LSN %d not above previous %d", lsn, last)
				}
				last = lsn
			}
			// Every live append contributed exactly once past the snapshot.
			if g.sum != liveAppends {
				t.Fatalf("delta rows = %d, want %d (gap or duplicate)", g.sum, liveAppends)
			}
		})
	}
}

// TestWatchResumeCursor stops a watch mid-stream and resumes with the last
// delivered LSN: the continuation starts exactly one past the cursor.
func TestWatchResumeCursor(t *testing.T) {
	db := openFeedDB(t, 0)
	for i := 0; i < 10; i++ {
		if _, err := db.Exec(`APPEND INTO calls VALUES ('a', 1)`); err != nil {
			t.Fatal(err)
		}
	}
	// First leg: snapshot resume, stop after 0 deltas (snapshot only).
	var cursor uint64
	err := db.Watch(context.Background(), "usage", 0, false, func(ev chronicledb.WatchEvent) bool {
		cursor = ev.LSN
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
	if cursor == 0 {
		t.Fatal("snapshot carried no LSN")
	}
	for i := 0; i < 5; i++ {
		if _, err := db.Exec(`APPEND INTO calls VALUES ('a', 1)`); err != nil {
			t.Fatal(err)
		}
	}
	// Second leg: resume from the cursor; exactly the 5 new deltas arrive
	// (one source row each), with LSNs strictly above the cursor.
	var sum int64
	var lsns []uint64
	err = db.Watch(context.Background(), "usage", cursor, true, func(ev chronicledb.WatchEvent) bool {
		if ev.Kind == chronicledb.WatchSnapshot {
			t.Error("cursor within the tail window must not replay a snapshot")
		}
		if ev.Kind == chronicledb.WatchDelta {
			lsns = append(lsns, ev.LSN)
			sum += int64(len(ev.Deltas))
		}
		return sum < 5
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum != 5 {
		t.Fatalf("resumed delta rows = %d, want 5 (gap or duplicate)", sum)
	}
	last := cursor
	for _, lsn := range lsns {
		if lsn <= last {
			t.Fatalf("resumed LSNs = %v, want strictly increasing above cursor %d", lsns, cursor)
		}
		last = lsn
	}
}

// TestWatchSlowConsumerShed wedges a subscriber behind a tiny ring: the
// hub must shed it with a terminal "slow" event instead of stalling the
// append path.
func TestWatchSlowConsumerShed(t *testing.T) {
	db, err := chronicledb.Open(chronicledb.Options{Feed: true, FeedRing: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE CHRONICLE calls (acct STRING, minutes INT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`CREATE VIEW usage AS SELECT acct, COUNT(*) AS n FROM calls GROUP BY acct`); err != nil {
		t.Fatal(err)
	}

	block := make(chan struct{})
	var end chronicledb.WatchEvent
	done := make(chan error, 1)
	started := make(chan struct{})
	var startOnce sync.Once
	go func() {
		done <- db.Watch(context.Background(), "usage", 0, false, func(ev chronicledb.WatchEvent) bool {
			startOnce.Do(func() { close(started) })
			if ev.Kind == chronicledb.WatchEnd {
				end = ev
				return true
			}
			<-block // wedge: never drain while appends flood in
			return true
		})
	}()
	<-started
	for i := 0; i < 10; i++ {
		if _, err := db.Exec(`APPEND INTO calls VALUES ('a', 1)`); err != nil {
			t.Fatal(err)
		}
	}
	close(block)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shed subscriber's watch never terminated")
	}
	if end.Reason != "slow" {
		t.Fatalf("terminal reason = %q, want slow", end.Reason)
	}
	if st := db.FeedStats(); st.DroppedSlow != 1 {
		t.Fatalf("DroppedSlow = %d, want 1", st.DroppedSlow)
	}
}

// TestWatchStress is the fan-out race test `make watch-stress` runs under
// -race: many subscribers watch two views while concurrent appenders
// write to both chronicles; every subscriber must observe a strictly
// increasing, gapless per-account count sequence from its snapshot on.
func TestWatchStress(t *testing.T) {
	const (
		subscribers = 12
		appenders   = 4
		appendsEach = 150
	)
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db, err := chronicledb.Open(chronicledb.Options{Feed: true, Shards: shards, FeedRing: 4096})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if _, err := db.Exec(`CREATE CHRONICLE calls (acct STRING, minutes INT)`); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Exec(`CREATE VIEW usage AS SELECT acct, COUNT(*) AS n FROM calls GROUP BY acct`); err != nil {
				t.Fatal(err)
			}

			total := int64(appenders * appendsEach)
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()

			var wg sync.WaitGroup
			errs := make(chan error, subscribers+appenders)
			for s := 0; s < subscribers; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					// Conservation per account: the snapshot count plus the
					// number of delta rows must land exactly on appendsEach
					// (each delta row is one appended source row). A gap
					// leaves the total short (the watch never finishes); a
					// duplicate overshoots it.
					acctN := map[string]int64{}
					var lastLSN uint64
					seen := int64(0)
					err := db.Watch(ctx, "usage", 0, false, func(ev chronicledb.WatchEvent) bool {
						switch ev.Kind {
						case chronicledb.WatchSnapshot:
							lastLSN = ev.LSN
							for _, r := range ev.Rows {
								acctN[r[0].AsString()] = r[1].AsInt()
								seen += r[1].AsInt()
							}
						case chronicledb.WatchDelta:
							if ev.LSN <= lastLSN {
								errs <- fmt.Errorf("subscriber %d: LSN %d after %d", s, ev.LSN, lastLSN)
								return false
							}
							lastLSN = ev.LSN
							for _, d := range ev.Deltas {
								acctN[d.Vals[0].AsString()]++
								seen++
							}
						case chronicledb.WatchEnd:
							errs <- fmt.Errorf("subscriber %d: shed (%s)", s, ev.Reason)
							return false
						}
						return seen < total
					})
					if err != nil && ctx.Err() == nil {
						errs <- fmt.Errorf("subscriber %d: %v", s, err)
						return
					}
					if ctx.Err() != nil {
						return // timeout reported once below
					}
					if seen != total {
						errs <- fmt.Errorf("subscriber %d: saw %d rows, want %d (duplicate delivery)", s, seen, total)
					}
					for a := 0; a < appenders; a++ {
						acct := fmt.Sprintf("acct-%d", a)
						if acctN[acct] != appendsEach {
							errs <- fmt.Errorf("subscriber %d: %s total %d, want %d", s, acct, acctN[acct], appendsEach)
						}
					}
				}(s)
			}
			for a := 0; a < appenders; a++ {
				wg.Add(1)
				go func(a int) {
					defer wg.Done()
					stmt := fmt.Sprintf(`APPEND INTO calls VALUES ('acct-%d', 1)`, a)
					for i := 0; i < appendsEach; i++ {
						if _, err := db.Exec(stmt); err != nil {
							errs <- fmt.Errorf("appender %d: %v", a, err)
							return
						}
					}
				}(a)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			if ctx.Err() != nil {
				t.Fatal("stress run timed out before every subscriber caught up")
			}
		})
	}
}

// TestWatchOpenedMidCall pins the splice where it can go wrong: at a watch
// opened while an append call is in flight. One writer sends long AppendRows
// calls of one fixed tuple back to back, so the view's count after the row
// with SN k is k+1 (SNs start at 0), and watchers keep opening watches at
// random points of a call's length. Each watch must deliver a snapshot
// holding a whole number of calls and then, as its first delta, the row
// right after it: SN = count. The view is on the hash store, which has no
// frozen image to stamp. A snapshot stamped with the live store's cursor,
// which runs ahead of the publication it scanned while a call is mid-way,
// filters out rows it does not show, so the first delta skips past count
// (or, at the last call, never comes). A splice that lets through the frame
// at the snapshot's own LSN delivers a row the snapshot already counts. Each
// transport is checked: the embedded DB.Watch, and server.Client.Watch over
// SSE.
func TestWatchOpenedMidCall(t *testing.T) {
	const (
		callK    = 256
		calls    = 150
		watchers = 6
	)
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			for _, transport := range []string{"embedded", "http"} {
				t.Run(transport, func(t *testing.T) {
					db, err := chronicledb.Open(chronicledb.Options{Feed: true, Shards: shards, FeedRing: 1 << 15})
					if err != nil {
						t.Fatal(err)
					}
					defer db.Close()
					watch := midCallEmbedded(db)
					if transport == "http" {
						ts := httptest.NewServer(server.New(db))
						defer ts.Close()
						watch = midCallHTTP(server.NewClient(ts.URL))
					}
					watchOpenedMidCall(t, db, watch, callK, calls, watchers)
				})
			}
		})
	}
}

// TestWatchEndsWhenViewDropped: dropping a watched view ends its stream
// with the reason "dropped", on either transport.
func TestWatchEndsWhenViewDropped(t *testing.T) {
	for _, transport := range []string{"embedded", "http"} {
		t.Run(transport, func(t *testing.T) {
			db := openFeedDB(t, 1)
			watch := midCallEmbedded(db)
			if transport == "http" {
				ts := httptest.NewServer(server.New(db))
				defer ts.Close()
				watch = midCallHTTP(server.NewClient(ts.URL))
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			var end string
			err := watch(ctx, func(ev midCallEvent) bool {
				if ev.snapshot {
					if _, err := db.Exec(`DROP VIEW usage`); err != nil {
						t.Error(err)
						return false
					}
					return true
				}
				end = ev.end
				return end == ""
			})
			if err != nil {
				t.Fatal(err)
			}
			if end != "dropped" {
				t.Fatalf("the stream ended with %q, want dropped", end)
			}
		})
	}
}

// midCallEvent is what the transport tables read of one event, on either
// transport: a snapshot's sum of the view's count column, a delta's first
// SN, or the reason a stream ended.
type midCallEvent struct {
	snapshot bool
	lsn      uint64
	rows     int64 // a snapshot's count
	sn       int64 // a delta's first SN
	end      string
}

type midCallWatch func(ctx context.Context, fn func(midCallEvent) bool) error

func midCallEmbedded(db *chronicledb.DB) midCallWatch {
	return func(ctx context.Context, fn func(midCallEvent) bool) error {
		return db.Watch(ctx, "usage", 0, false, func(ev chronicledb.WatchEvent) bool {
			switch ev.Kind {
			case chronicledb.WatchSnapshot:
				var n int64
				for _, r := range ev.Rows {
					n += r[1].AsInt()
				}
				return fn(midCallEvent{snapshot: true, lsn: ev.LSN, rows: n})
			case chronicledb.WatchDelta:
				return fn(midCallEvent{lsn: ev.LSN, sn: ev.Deltas[0].SN})
			}
			return fn(midCallEvent{lsn: ev.LSN, end: ev.Reason})
		})
	}
}

func midCallHTTP(c *server.Client) midCallWatch {
	return func(ctx context.Context, fn func(midCallEvent) bool) error {
		return c.Watch(ctx, "usage", 0, false, func(ev server.WatchEvent) bool {
			switch ev.Kind {
			case server.WatchInfo:
				return true
			case server.WatchSnapshot:
				var n int64
				for _, r := range ev.Rows {
					n += int64(r[1].(float64))
				}
				return fn(midCallEvent{snapshot: true, lsn: ev.LSN, rows: n})
			case server.WatchDelta:
				return fn(midCallEvent{lsn: ev.LSN, sn: ev.Deltas[0].SN})
			}
			return fn(midCallEvent{lsn: ev.LSN, end: ev.Reason})
		})
	}
}

func watchOpenedMidCall(t *testing.T, db *chronicledb.DB, watch midCallWatch, callK, calls, watchers int) {
	for _, stmt := range []string{
		`CREATE CHRONICLE calls (acct STRING, minutes INT)`,
		`CREATE VIEW usage AS SELECT acct, COUNT(*) AS n FROM calls GROUP BY acct`,
		// Folded after usage in each call, before anything is published:
		// they hold usage's live cursor ahead of its publication for most
		// of the call.
		`CREATE VIEW by_minutes AS SELECT minutes, COUNT(*) AS n FROM calls GROUP BY minutes`,
		`CREATE VIEW long_calls AS SELECT acct, SUM(minutes) AS total FROM calls WHERE minutes > 0 GROUP BY acct`,
		`CREATE VIEW both_cols AS SELECT acct, minutes, COUNT(*) AS n FROM calls GROUP BY acct, minutes`,
	} {
		if _, err := db.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	tuples := make([]chronicledb.Tuple, callK)
	for i := range tuples {
		tuples[i] = chronicledb.Tuple{chronicledb.Str("a"), chronicledb.Int(1)}
	}
	total := int64(calls * callK)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// callNs is how long the writer's last call took: the watchers open
	// their watches at random points of a call's length, so some land
	// inside a call and some between two.
	var sent, callNs atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer sent.Store(int64(calls)) // lets the watchers out if a call fails
		for c := 0; c < calls; c++ {
			start := time.Now()
			if _, _, err := db.AppendRows("calls", tuples); err != nil {
				t.Error(err)
				return
			}
			callNs.Store(int64(time.Since(start)))
			sent.Add(1)
		}
	}()
	// probe opens one watch and reads its snapshot and first delta.
	probe := func(w int) bool {
		var count int64
		snapshot := false
		ok := true
		err := watch(ctx, func(ev midCallEvent) bool {
			switch {
			case ev.snapshot:
				count, snapshot = ev.rows, true
				if count%int64(callK) != 0 {
					t.Errorf("watcher %d: snapshot at LSN %d counts %d rows: part of a call is visible", w, ev.lsn, count)
					ok = false
				}
				return ok && count < total
			case ev.end != "":
				t.Errorf("watcher %d: ended (%s) after a snapshot of %d rows", w, ev.end, count)
			case !snapshot:
				t.Errorf("watcher %d: a delta at LSN %d before any snapshot", w, ev.lsn)
			case ev.sn != count:
				t.Errorf("watcher %d: a snapshot of %d rows, then a delta from SN %d at LSN %d, want SN %d (the splice dropped or repeated rows)", w, count, ev.sn, ev.lsn, count)
			default:
				return false
			}
			ok = false
			return false
		})
		if ctx.Err() != nil {
			t.Errorf("watcher %d: stuck after a snapshot of %d rows, the view holds %d: the splice dropped deltas", w, count, total)
			return false
		}
		if err != nil {
			t.Errorf("watcher %d: %v", w, err)
			return false
		}
		return ok
	}
	for w := 0; w < watchers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 1))
			for {
				done := sent.Load() == int64(calls) // one last watch after the writer's last call
				time.Sleep(time.Duration(rng.Int64N(callNs.Load() + 1)))
				if !probe(w) || done {
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestWatchResumesInsideACall resumes a watch from every cursor one append
// call can leave a subscriber at. A 16-row call is one maintenance round and
// reaches the hub as one frame per view, while a subscriber's cursor counts
// deltas, one per row's LSN; so a watch resumed from any LSN of the call, or
// from the one before it, must deliver exactly the deltas above its cursor,
// the same as a twin database fed the same rows by one-row calls. Then two
// more calls push the first out of a 20-delta tail: a cursor inside it, just
// below the horizon, must re-splice through a snapshot, and one at the
// horizon must still resume from the tail. Both transports are checked, on
// one shard and on two.
func TestWatchResumesInsideACall(t *testing.T) {
	const callK, history, tail = 16, 3, 20
	for _, shards := range []int{1, 2} {
		for _, transport := range []string{"embedded", "http"} {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, transport), func(t *testing.T) {
				open := func() (*chronicledb.DB, resumeWatch) {
					db, err := chronicledb.Open(chronicledb.Options{Feed: true, Shards: shards, FeedTailFrames: tail,
						Clock: func() int64 { return 1 }})
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { db.Close() })
					for _, stmt := range []string{
						`CREATE CHRONICLE calls (acct STRING, minutes INT)`,
						`CREATE VIEW usage AS SELECT acct, COUNT(*) AS n FROM calls GROUP BY acct`,
					} {
						if _, err := db.Exec(stmt); err != nil {
							t.Fatal(err)
						}
					}
					if transport == "http" {
						ts := httptest.NewServer(server.New(db))
						t.Cleanup(ts.Close)
						return db, resumeHTTP(server.NewClient(ts.URL))
					}
					return db, resumeEmbedded(db)
				}
				call := func(db *chronicledb.DB, from, n int) {
					tuples := make([]chronicledb.Tuple, n)
					for i := range tuples {
						tuples[i] = chronicledb.Tuple{chronicledb.Str(fmt.Sprintf("a%d", (from+i)%5)), chronicledb.Int(int64(from + i))}
					}
					if _, _, err := db.AppendRows("calls", tuples); err != nil {
						t.Fatal(err)
					}
				}
				db, watch := open()
				twin, watchTwin := open()
				for i := range history {
					call(db, i, 1)
					call(twin, i, 1)
				}
				before := chronicledb.FeedHeadLSN(db, "usage")
				call(db, history, callK)
				for i := range callK {
					call(twin, history+i, 1)
				}
				head := chronicledb.FeedHeadLSN(db, "usage")
				if head-before != callK || chronicledb.FeedHeadLSN(twin, "usage") != head {
					t.Fatalf("the call ends at LSN %d after %d, its twin at %d: want %d LSNs, one per row",
						head, before, chronicledb.FeedHeadLSN(twin, "usage"), callK)
				}
				for from := before; from <= head; from++ {
					got := watch(t, from, head)
					want := watchTwin(t, from, head)
					if got.resume != "tail" || want.resume != "tail" {
						t.Fatalf("from LSN %d: resumed by %s, the twin by %s, want tail", from, got.resume, want.resume)
					}
					if len(got.lines) != int(head-from) || fmt.Sprint(got.lines) != fmt.Sprint(want.lines) {
						t.Fatalf("from LSN %d: delivered\n%v\nthe twin fed by one-row calls delivered\n%v", from, got.lines, want.lines)
					}
				}

				// Two more calls evict the first: its last LSN is the horizon.
				call(db, history+callK, callK)
				call(db, history+2*callK, callK)
				last := chronicledb.FeedHeadLSN(db, "usage")
				inside := watch(t, head-1, last)
				if inside.resume != "snapshot" || len(inside.lines) != 1 || inside.lines[0] != fmt.Sprintf("snapshot %d: %d rows", last, history+3*callK) {
					t.Fatalf("from LSN %d, below the horizon %d: resumed by %s with %v, want a snapshot of %d rows at %d",
						head-1, head, inside.resume, inside.lines, history+3*callK, last)
				}
				at := watch(t, head, last)
				if at.resume != "tail" || len(at.lines) != int(last-head) {
					t.Fatalf("from LSN %d, the horizon: resumed by %s with %d deltas, want tail and %d", head, at.resume, len(at.lines), last-head)
				}
				for i, line := range at.lines {
					if want := fmt.Sprintf("%d: sn=%d ", head+uint64(i)+1, history+callK+i); !strings.HasPrefix(line, want) {
						t.Fatalf("from LSN %d, delta %d is %q, want it to start %q", head, i, line, want)
					}
				}
			})
		}
	}
}

// resumeLeg is what a watch resumed from a cursor delivers up to the view's
// head: how it resumed, then one line per snapshot (its LSN and the rows its
// count column sums to) and per delta (its LSN and rows).
type resumeLeg struct {
	resume string
	lines  []string
}

type resumeWatch func(t *testing.T, from, head uint64) resumeLeg

func resumeEmbedded(db *chronicledb.DB) resumeWatch {
	return func(t *testing.T, from, head uint64) resumeLeg {
		t.Helper()
		w, err := db.OpenWatch("usage", from, true)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		leg := resumeLeg{resume: w.Resume()}
		timeout := time.After(10 * time.Second)
		for w.LSN() < head {
			_, err := w.Next(func(ev chronicledb.WatchEvent) bool {
				switch ev.Kind {
				case chronicledb.WatchSnapshot:
					var n int64
					for _, r := range ev.Rows {
						n += r[1].AsInt()
					}
					leg.lines = append(leg.lines, fmt.Sprintf("snapshot %d: %d rows", ev.LSN, n))
				case chronicledb.WatchDelta:
					line := fmt.Sprintf("%d:", ev.LSN)
					for _, d := range ev.Deltas {
						line += fmt.Sprintf(" sn=%d ch=%d %v;", d.SN, d.Chronon, d.Vals)
					}
					leg.lines = append(leg.lines, line)
				case chronicledb.WatchEnd:
					t.Fatalf("from LSN %d: the watch ended (%s)", from, ev.Reason)
				}
				return true
			})
			if err != nil {
				t.Fatalf("from LSN %d: %v", from, err)
			}
			if w.LSN() < head {
				select {
				case <-w.Ready():
				case <-timeout:
					t.Fatalf("from LSN %d: stuck at LSN %d, the head is %d", from, w.LSN(), head)
				}
			}
		}
		return leg
	}
}

func resumeHTTP(c *server.Client) resumeWatch {
	return func(t *testing.T, from, head uint64) resumeLeg {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		var leg resumeLeg
		err := c.Watch(ctx, "usage", from, true, func(ev server.WatchEvent) bool {
			switch ev.Kind {
			case server.WatchInfo:
				leg.resume = ev.Resume
			case server.WatchSnapshot:
				var n int64
				for _, r := range ev.Rows {
					n += int64(r[1].(float64))
				}
				leg.lines = append(leg.lines, fmt.Sprintf("snapshot %d: %d rows", ev.LSN, n))
			case server.WatchDelta:
				line := fmt.Sprintf("%d:", ev.LSN)
				for _, d := range ev.Deltas {
					line += fmt.Sprintf(" sn=%d ch=%d %v;", d.SN, d.Chronon, d.Vals)
				}
				leg.lines = append(leg.lines, line)
			default:
				t.Errorf("from LSN %d: the watch ended (%s)", from, ev.Reason)
				return false
			}
			return ev.LSN < head
		})
		if err != nil {
			t.Fatalf("from LSN %d: %v", from, err)
		}
		return leg
	}
}
