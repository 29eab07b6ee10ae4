// Tests for the embedded changefeed API: DB.Watch streaming snapshot
// catch-up and live deltas with gapless, duplicate-free LSN cursors, on
// one shard and on several, plus the fan-out stress run
// `make watch-stress` executes under -race.
package chronicledb_test

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	chronicledb "chronicledb"
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

// TestWatchOpenedMidCall pins the pairing a snapshot catch-up relies on: the
// LSN a snapshot carries is that of the publication it scanned, not of the
// live store. The view is on the hash store, which has no frozen image to
// stamp, and a single writer sends long AppendRows calls back to back, so
// nearly every watch opens between two rows of a call — where the live
// store's cursor is ahead of anything a reader can see. A snapshot stamped
// with that cursor would filter out deltas its rows do not reflect, and the
// subscriber's fold (snapshot count plus delta rows) would stay short of the
// view for good; a snapshot showing part of a call would not be a whole
// number of calls.
func TestWatchOpenedMidCall(t *testing.T) {
	const (
		callK    = 256
		calls    = 60
		watchers = 6
	)
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db, err := chronicledb.Open(chronicledb.Options{Feed: true, Shards: shards, FeedRing: 1 << 15})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			for _, stmt := range []string{
				`CREATE CHRONICLE calls (acct STRING, minutes INT)`,
				`CREATE VIEW usage AS SELECT acct, COUNT(*) AS n FROM calls GROUP BY acct`,
			} {
				if _, err := db.Exec(stmt); err != nil {
					t.Fatal(err)
				}
			}
			tuples := make([]chronicledb.Tuple, callK)
			for i := range tuples {
				tuples[i] = chronicledb.Tuple{chronicledb.Str("a"), chronicledb.Int(1)}
			}
			const total = int64(calls * callK)
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()

			var sent atomic.Int64 // calls the writer has completed
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < calls; i++ {
					if _, _, err := db.AppendRows("calls", tuples); err != nil {
						t.Error(err)
						return
					}
					sent.Add(1)
				}
			}()
			for w := 0; w < watchers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					// Stagger the opens across the writer's run.
					for sent.Load() < int64(w*calls/(watchers+1)) && ctx.Err() == nil {
						runtime.Gosched()
					}
					var seen int64
					err := db.Watch(ctx, "usage", 0, false, func(ev chronicledb.WatchEvent) bool {
						switch ev.Kind {
						case chronicledb.WatchSnapshot:
							for _, r := range ev.Rows {
								seen += r[1].AsInt()
							}
							if seen%callK != 0 {
								t.Errorf("watcher %d: snapshot at LSN %d counts %d rows: part of a call is visible", w, ev.LSN, seen)
							}
						case chronicledb.WatchDelta:
							seen += int64(len(ev.Deltas))
						case chronicledb.WatchEnd:
							t.Errorf("watcher %d: ended (%s) at %d of %d rows", w, ev.Reason, seen, total)
							return false
						}
						return seen < total
					})
					if ctx.Err() != nil {
						t.Errorf("watcher %d: snapshot + deltas stuck at %d rows, the view holds %d: the splice dropped deltas", w, seen, total)
					} else if err != nil {
						t.Errorf("watcher %d: %v", w, err)
					} else if seen != total {
						t.Errorf("watcher %d: snapshot + deltas = %d rows, want %d (duplicate delivery)", w, seen, total)
					}
				}(w)
			}
			wg.Wait()
		})
	}
}
