// Race stress for the shared-delta maintenance pipeline: concurrent
// appenders drive the per-view folds while WATCH subscribers consume the
// changefeed and checkpoints cut mid-run. The assertions are the
// pipeline's two ordering invariants: per-view delta conservation (every
// appended row shows up exactly once in every view that selects it — a
// fold that dropped or duplicated a delta would break the count) and
// strictly increasing feed LSNs (capture order is fixed under the engine
// lock). `make maint-stress` is part of `make check` via the watch-stress
// pattern; this file extends it with views that share a plan node.
package chronicledb_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	chronicledb "chronicledb"
)

func TestMaintParallelStress(t *testing.T) {
	const (
		subscribers = 8
		appenders   = 4
		appendsEach = 120
	)
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db, err := chronicledb.Open(chronicledb.Options{
				Dir:      t.TempDir(),
				Feed:     true,
				FeedRing: 4096,
				Shards:   shards,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if _, err := db.Exec(`CREATE CHRONICLE calls (acct STRING, minutes INT)`); err != nil {
				t.Fatal(err)
			}
			// usage sees every append; the big_* twins share a σ prefix
			// (minutes >= 100) so their deltas come off one shared plan node
			// — and every appended row passes the filter (minutes = 200), so
			// all three views must conserve the same per-account counts.
			for _, stmt := range []string{
				`CREATE VIEW usage AS SELECT acct, COUNT(*) AS n FROM calls GROUP BY acct`,
				`CREATE VIEW big_sum AS SELECT acct, SUM(minutes) AS total FROM calls WHERE minutes >= 100 GROUP BY acct`,
				`CREATE VIEW big_n AS SELECT acct, COUNT(*) AS n FROM calls WHERE minutes >= 100 GROUP BY acct`,
			} {
				if _, err := db.Exec(stmt); err != nil {
					t.Fatal(err)
				}
			}

			total := int64(appenders * appendsEach)
			ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
			defer cancel()

			var wg sync.WaitGroup
			errs := make(chan error, subscribers+appenders+1)
			// Subscribers split across the unfiltered view and the shared-
			// prefix twin: both must conserve exactly.
			for s := 0; s < subscribers; s++ {
				view := "usage"
				if s%2 == 1 {
					view = "big_n"
				}
				wg.Add(1)
				go func(s int, view string) {
					defer wg.Done()
					acctN := map[string]int64{}
					var lastLSN uint64
					seen := int64(0)
					err := db.Watch(ctx, view, 0, false, func(ev chronicledb.WatchEvent) bool {
						switch ev.Kind {
						case chronicledb.WatchSnapshot:
							lastLSN = ev.LSN
							for _, r := range ev.Rows {
								acctN[r[0].AsString()] = r[1].AsInt()
								seen += r[1].AsInt()
							}
						case chronicledb.WatchDelta:
							if ev.LSN <= lastLSN {
								errs <- fmt.Errorf("subscriber %d (%s): LSN %d after %d", s, view, ev.LSN, lastLSN)
								return false
							}
							lastLSN = ev.LSN
							for _, d := range ev.Deltas {
								acctN[d.Vals[0].AsString()]++
								seen++
							}
						case chronicledb.WatchEnd:
							errs <- fmt.Errorf("subscriber %d (%s): shed (%s)", s, view, ev.Reason)
							return false
						}
						return seen < total
					})
					if err != nil && ctx.Err() == nil {
						errs <- fmt.Errorf("subscriber %d (%s): %v", s, view, err)
						return
					}
					if ctx.Err() != nil {
						return // timeout reported once below
					}
					if seen != total {
						errs <- fmt.Errorf("subscriber %d (%s): saw %d rows, want %d", s, view, seen, total)
					}
					for a := 0; a < appenders; a++ {
						acct := fmt.Sprintf("acct-%d", a)
						if acctN[acct] != appendsEach {
							errs <- fmt.Errorf("subscriber %d (%s): %s total %d, want %d", s, view, acct, acctN[acct], appendsEach)
						}
					}
				}(s, view)
			}
			for a := 0; a < appenders; a++ {
				wg.Add(1)
				go func(a int) {
					defer wg.Done()
					stmt := fmt.Sprintf(`APPEND INTO calls VALUES ('acct-%d', 200)`, a)
					for i := 0; i < appendsEach; i++ {
						if _, err := db.Exec(stmt); err != nil {
							errs <- fmt.Errorf("appender %d: %v", a, err)
							return
						}
					}
				}(a)
			}
			// Mid-run checkpoints race the parallel folds: Barrier/engine
			// locking must quiesce in-flight batches, and the views a cut
			// serializes must be batch-consistent.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 3; i++ {
					time.Sleep(30 * time.Millisecond)
					if err := db.Checkpoint(); err != nil {
						errs <- fmt.Errorf("checkpoint %d: %v", i, err)
						return
					}
				}
			}()
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			if ctx.Err() != nil {
				t.Fatal("stress run timed out before every subscriber caught up")
			}

			// The twins' materializations agree with the source exactly, and
			// the shared plan actually served the twin prefix from cache.
			for a := 0; a < appenders; a++ {
				acct := fmt.Sprintf("acct-%d", a)
				res, err := db.Exec(fmt.Sprintf(`SELECT * FROM big_sum WHERE acct = '%s'`, acct))
				if err != nil {
					t.Fatalf("big_sum[%s]: %v", acct, err)
				}
				if len(res.Rows) != 1 || res.Rows[0][1].AsInt() != 200*appendsEach {
					t.Errorf("big_sum[%s] = %v, want %d", acct, res.Rows, 200*appendsEach)
				}
			}
			if st := db.Stats(); st.SharedHits == 0 {
				t.Error("SharedHits = 0: the twin σ prefix never hit the shared plan cache")
			}
		})
	}
}
