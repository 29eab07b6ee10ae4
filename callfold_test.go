// The differential gate for call-scoped maintenance: an append call's rows
// are folded into the views in ONE maintenance round, and nothing anyone can
// observe may tell that round from the rounds of its rows taken one by one.
// Twin databases take the same tuples under the same injected clock — one in
// k-row calls, one in k one-row calls — and must agree on every view's
// contents (hash, B-tree, paged under a tiny cache, projection, a union with
// FIRST/LAST over it, a key join), on a periodic family whose window
// boundaries fall inside calls, on the WATCH frames of every view, on the WAL
// bytes, on the state a reopen replays to and on a follower's.
package chronicledb_test

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	chronicledb "chronicledb"
	"chronicledb/internal/aggregate"
	"chronicledb/internal/algebra"
	"chronicledb/internal/pred"
	"chronicledb/internal/server"
	"chronicledb/internal/shard"
	"chronicledb/internal/value"
	"chronicledb/internal/view"
	"chronicledb/internal/wal"
)

var callFoldDDL = []string{
	`CREATE CHRONICLE calls (acct STRING, minutes INT)`,
	`CREATE RELATION customers (acct STRING, state STRING, KEY(acct))`,
	`CREATE VIEW usage_h AS SELECT acct, SUM(minutes) AS total, COUNT(*) AS n FROM calls GROUP BY acct`,
	`CREATE VIEW usage_b AS SELECT acct, SUM(minutes) AS total, COUNT(*) AS n FROM calls GROUP BY acct WITH STORE BTREE`,
	`CREATE VIEW long_accts AS SELECT DISTINCT acct FROM calls WHERE minutes >= 60`,
	`CREATE VIEW edges AS SELECT acct, FIRST(minutes) AS first_m, LAST(minutes) AS last_m FROM calls GROUP BY acct WITH STORE BTREE`,
	`CREATE VIEW by_state AS SELECT state, SUM(minutes) AS total, LAST(minutes) AS last_m FROM calls JOIN customers ON calls.acct = customers.acct GROUP BY state`,
	// A window opens every 100 chronons and stays open for 200; the clock
	// ticks 7 per tuple, so every call of 15 rows or more crosses a boundary.
	`CREATE PERIODIC VIEW windows AS SELECT acct, SUM(minutes) AS total, COUNT(*) AS n FROM calls GROUP BY acct EVERY 100 WIDTH 200 EXPIRE 150`,
	// Windows with gaps between them: calls start in a gap and run into a
	// window, or the reverse, and rows in a gap belong to no instance.
	`CREATE PERIODIC VIEW bursts AS SELECT acct, COUNT(*) AS n FROM calls GROUP BY acct EVERY 100 WIDTH 60 EXPIRE 50`,
}

// twinClock is an injected Options.Clock: every reading advances it by
// step. A call reads it once per tuple, AppendRows and AppendRowsIdem alike,
// so the twins here, which step it by 7, read it once per row; a test that
// freezes it (step 0) sets each call's chronon itself.
type twinClock struct{ now, step atomic.Int64 }

func (c *twinClock) read() int64 { return c.now.Add(c.step.Load()) }

// callFoldTwin is one of the two databases, with a watcher on every view.
type callFoldTwin struct {
	db     *chronicledb.DB
	clock  *twinClock
	opts   chronicledb.Options
	cancel context.CancelFunc
	closed sync.Once
	wg     sync.WaitGroup
	mu     sync.Mutex
	frames map[string][]string // view -> "lsn: sn=… vals; …" per delta frame, in delivery order
	seen   map[string]uint64   // view -> LSN of the last frame delivered
}

func openCallFoldTwin(t *testing.T, opts chronicledb.Options) *callFoldTwin {
	t.Helper()
	tw := &callFoldTwin{clock: &twinClock{}, frames: make(map[string][]string), seen: make(map[string]uint64)}
	tw.clock.step.Store(7)
	opts.Clock = tw.clock.read
	opts.Feed = true
	opts.FeedRing = 1 << 14
	tw.opts = opts
	db, err := chronicledb.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	tw.db = db
	for _, stmt := range callFoldDDL {
		mustExec(t, db, stmt)
	}
	if opts.Dir == "" {
		createUnionEdges(t, db)
	}

	ctx, cancel := context.WithCancel(context.Background())
	tw.cancel = cancel
	for _, name := range db.Engine().Names(shard.Views) {
		ready := make(chan struct{})
		tw.wg.Add(1)
		go func() {
			defer tw.wg.Done()
			_ = db.Watch(ctx, name, 0, false, func(ev chronicledb.WatchEvent) bool {
				switch ev.Kind {
				case chronicledb.WatchSnapshot:
					close(ready)
				case chronicledb.WatchDelta:
					line := fmt.Sprintf("%d:", ev.LSN)
					for _, d := range ev.Deltas {
						line += fmt.Sprintf(" sn=%d ch=%d %v;", d.SN, d.Chronon, d.Vals)
					}
					tw.mu.Lock()
					tw.frames[name] = append(tw.frames[name], line)
					tw.seen[name] = ev.LSN
					tw.mu.Unlock()
				case chronicledb.WatchEnd:
					if ctx.Err() == nil {
						t.Errorf("watch on %s ended: %s", name, ev.Reason)
					}
				}
				return true
			})
		}()
		<-ready
	}
	return tw
}

// createUnionEdges adds the view SQL cannot define (and a checkpoint cannot
// restore, so only memory-only twins carry it): FIRST/LAST over
// σ[minutes < 40](calls) ∪ σ[minutes >= 25](calls). Both arms pass the rows
// in between, and a call's left-arm rows must not all come before its
// right-arm rows.
func createUnionEdges(t *testing.T, db *chronicledb.DB) {
	t.Helper()
	calls, _ := db.Chronicle("calls")
	short, err := algebra.NewSelect(algebra.NewScan(calls), pred.Or(pred.ColConst(1, pred.Lt, value.Int(40))))
	if err != nil {
		t.Fatal(err)
	}
	long, _ := algebra.NewSelect(algebra.NewScan(calls), pred.Or(pred.ColConst(1, pred.Ge, value.Int(25))))
	union, err := algebra.NewUnion(short, long)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Engine().CreateView(view.Def{
		Name: "union_edges", Expr: union, Mode: view.SummarizeGroupBy, GroupCols: []int{0},
		Aggs: []aggregate.Spec{
			{Func: aggregate.First, Col: 1, Name: "first_m"},
			{Func: aggregate.Last, Col: 1, Name: "last_m"},
			{Func: aggregate.Count, Col: -1, Name: "n"},
		},
	}); err != nil {
		t.Fatal(err)
	}
}

// watched waits until every view's watcher has caught up with the hub and
// returns the frames delivered so far.
func (tw *callFoldTwin) watched(t *testing.T) map[string][]string {
	t.Helper()
	for _, name := range tw.db.Engine().Names(shard.Views) {
		head := chronicledb.FeedHeadLSN(tw.db, name)
		waitUntil(t, 10*time.Second, "watcher of "+name, func() bool {
			tw.mu.Lock()
			defer tw.mu.Unlock()
			return tw.seen[name] == head
		})
	}
	tw.mu.Lock()
	defer tw.mu.Unlock()
	out := make(map[string][]string, len(tw.frames))
	for name, got := range tw.frames {
		out[name] = append([]string(nil), got...)
	}
	return out
}

func (tw *callFoldTwin) close() {
	tw.closed.Do(func() {
		tw.cancel()
		tw.wg.Wait()
		tw.db.Close()
	})
}

// callFoldState renders everything a reader can see of db: every persistent
// view's rows and cursor, and the periodic family's checkpoint image (its
// instances with their contents, its clock, its created/expired counts).
func callFoldState(t *testing.T, db *chronicledb.DB) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, name := range db.Engine().Names(shard.Views) {
		var rows []string
		if err := db.ScanView(name, func(r chronicledb.Row) bool {
			rows = append(rows, fmt.Sprint(r))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		v, _ := db.View(name)
		out[name] = fmt.Sprintf("lsn=%d %v", v.AppliedLSN(), rows)
	}
	for _, name := range db.Engine().Names(shard.PeriodicViews) {
		pv, _ := db.Engine().PeriodicView(name)
		out[name] = fmt.Sprintf("live=%d created=%d expired=%d image=%s", pv.Live(), pv.Created(), pv.Expired(), hex.EncodeToString(pv.Checkpoint()))
	}
	return out
}

// sameCallFoldState compares two renderings over the objects both hold (a
// reopened database has lost the view SQL cannot define).
func sameCallFoldState(t *testing.T, what string, got, want map[string]string) {
	t.Helper()
	if len(got) == 0 {
		t.Fatalf("%s: nothing to compare", what)
	}
	for name, g := range got {
		if w, ok := want[name]; ok && g != w {
			t.Errorf("%s: %s differs\n  calls:   %.600s\n  one-row: %.600s", what, name, g, w)
		}
	}
}

// walRows decodes every WAL segment in dir and renders what the records
// stamp, one line per row or relation tuple in LSN order, with the number of
// append records. The request ids are left out: the twins' differ.
func walRows(t *testing.T, dir string) (rows string, appends int) {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no WAL segments in %s (%v)", dir, err)
	}
	var lines []string
	for _, n := range names {
		b, err := os.ReadFile(n)
		if err != nil {
			t.Fatal(err)
		}
		for len(b) > 0 {
			size := int(binary.LittleEndian.Uint32(b))
			rec, err := wal.DecodeRecord(b[8 : 8+size])
			if err != nil {
				t.Fatalf("%s: %v", n, err)
			}
			b = b[8+size:]
			if rec.Kind != wal.RecAppend && rec.Kind != wal.RecAppendEach {
				lines = append(lines, fmt.Sprintf("%08d %d %s %v %v", rec.LSN, rec.Kind, rec.Relation, rec.Tuple, rec.Tuples))
				continue
			}
			appends++
			i := 0
			for _, p := range rec.Parts {
				for _, tu := range p.Tuples {
					sn, ch, lsn := rec.SN, rec.Chronon, rec.LSN
					if rec.Kind == wal.RecAppendEach {
						sn, ch, lsn = sn+int64(i), rec.ChrononAt(i), lsn+uint64(i)
					}
					lines = append(lines, fmt.Sprintf("%08d sn=%d ch=%d %s %v", lsn, sn, ch, p.Chronicle, tu))
					i++
				}
			}
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n"), appends
}

func TestCallFoldEqualsRowFolds(t *testing.T) {
	for _, tc := range []struct {
		name     string
		idem     bool // AppendRowsIdem (with ids) instead of AppendRows
		memory   bool // no directory: no WAL, checkpoint or reopen, but the union view
		paged    bool // B-tree views page against a 1 KiB cache
		follower bool
	}{
		{name: "AppendRows/memory+union", memory: true},
		{name: "AppendRowsIdem/memory+union", memory: true, idem: true},
		{name: "AppendRows/durable"},
		{name: "AppendRows/paged", paged: true},
		{name: "AppendRowsIdem/paged+follower", idem: true, paged: true, follower: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := func() chronicledb.Options {
				if tc.memory {
					return chronicledb.Options{}
				}
				o := chronicledb.Options{Dir: t.TempDir(), SyncWAL: tc.follower}
				if tc.paged {
					o.ViewBlockBytes, o.ViewCacheBytes = 256, 1<<10
				}
				return o
			}
			accts := 12 // groups repeat inside a call
			if tc.paged {
				accts = 160 // and the B-tree views span many blocks
			}
			byCall, byRow := openCallFoldTwin(t, opts()), openCallFoldTwin(t, opts())
			defer func() { byCall.close(); byRow.close() }()
			twins := []*callFoldTwin{byCall, byRow}

			rng := rand.New(rand.NewSource(18))
			acct := func() string { return fmt.Sprintf("acct%03d", rng.Intn(accts)) }
			upsert := func(a, state string) {
				for _, tw := range twins {
					if err := tw.db.Upsert("customers", chronicledb.Tuple{chronicledb.Str(a), chronicledb.Str(state)}); err != nil {
						t.Fatal(err)
					}
				}
			}
			for i := 0; i < accts*2/3; i++ {
				upsert(fmt.Sprintf("acct%03d", i), []string{"nj", "ny", "ca"}[i%3])
			}
			requests := 0
			appendCall := func(tuples []chronicledb.Tuple, failAt int) {
				t.Helper()
				requests++
				clone := func() []chronicledb.Tuple {
					out := make([]chronicledb.Tuple, len(tuples))
					for i, tu := range tuples {
						out[i] = append(chronicledb.Tuple(nil), tu...)
					}
					return out
				}
				var err error
				if tc.idem {
					_, _, _, err = byCall.db.AppendRowsIdem("calls", clone(), "twin", fmt.Sprint(requests))
				} else {
					_, _, err = byCall.db.AppendRows("calls", clone())
				}
				if (err != nil) != (failAt >= 0) {
					t.Fatalf("call %d: err = %v, failAt = %d", requests, err, failAt)
				}
				for i, tu := range clone() {
					if tc.idem {
						_, _, _, err = byRow.db.AppendRowsIdem("calls", []chronicledb.Tuple{tu}, "twin", fmt.Sprintf("%d.%d", requests, i))
					} else {
						_, _, err = byRow.db.AppendRows("calls", []chronicledb.Tuple{tu})
					}
					if (err != nil) != (i == failAt) {
						t.Fatalf("call %d row %d: err = %v, failAt = %d", requests, i, err, failAt)
					}
					if err != nil {
						break // the call stopped here too; its prefix stays applied
					}
				}
			}
			randomCall := func(k int) []chronicledb.Tuple {
				tuples := make([]chronicledb.Tuple, k)
				for i := range tuples {
					tuples[i] = chronicledb.Tuple{chronicledb.Str(acct()), chronicledb.Int(int64(rng.Intn(100)))}
				}
				return tuples
			}

			var f *chronicledb.DB
			var ts *httptest.Server
			defer func() {
				if f != nil {
					f.Close()
					ts.Close()
				}
			}()
			// caughtUp waits for the follower, if one is attached, to have applied
			// everything: before its state is read, and before a checkpoint
			// lets the primary drop the log the follower still needs.
			caughtUp := func() {
				t.Helper()
				if f != nil {
					waitUntil(t, 20*time.Second, "follower catch-up", func() bool {
						st, ok := f.ReplState()
						return ok && st.AppliedLSN >= byCall.db.Engine().LSN()
					})
				}
			}
			for round := 0; round < 24; round++ {
				appendCall(randomCall(1+rng.Intn(40)), -1)
				switch {
				case round%5 == 1:
					upsert(acct(), []string{"nj", "ny", "ca", "tx"}[rng.Intn(4)])
				case round == 7 && !tc.idem:
					// A call that fails at tuple 9: the prefix is applied, folded
					// and published; the bad tuple consumes nothing. (An
					// idempotent call is atomic — it fails before anything is
					// stamped, which TestFailedCallPublishesPrefix covers.)
					bad := randomCall(20)
					bad[9] = chronicledb.Tuple{chronicledb.Str("short")}
					appendCall(bad, 9)
				case (round == 10 || round == 17) && !tc.memory:
					// Checkpoints make the paged views' blocks evictable, so
					// later calls fault blocks in the middle of a fold.
					caughtUp()
					for _, tw := range twins {
						if err := tw.db.Checkpoint(); err != nil {
							t.Fatal(err)
						}
					}
				case round == 12 && tc.follower:
					// The follower attaches mid-stream: it starts from the
					// primary's snapshot and log backlog, the rest comes live.
					ts = httptest.NewServer(server.NewWith(byCall.db, server.Config{ReplHeartbeat: 20 * time.Millisecond}))
					f = openFollower(t, ts.URL, t.TempDir(), chronicledb.Options{Feed: true})
				}
			}

			live := callFoldState(t, byRow.db)
			sameCallFoldState(t, "live", callFoldState(t, byCall.db), live)
			if tc.paged {
				if w := byCall.db.WALStats(); w.ViewCacheEvictions == 0 || w.ViewCacheMisses == 0 {
					t.Errorf("paged run never evicted or faulted (evictions %d, misses %d)", w.ViewCacheEvictions, w.ViewCacheMisses)
				}
			}
			pv, _ := byCall.db.Engine().PeriodicView("windows")
			if pv.Created() < 8 || pv.Expired() == 0 {
				t.Errorf("windows: created %d, expired %d: no window boundary or expiry fell inside a call", pv.Created(), pv.Expired())
			}

			gotFrames, wantFrames := byCall.watched(t), byRow.watched(t)
			for _, name := range byCall.db.Engine().Names(shard.Views) {
				got, want := gotFrames[name], wantFrames[name]
				if len(want) == 0 {
					t.Errorf("WATCH %s: the one-row twin delivered no frames", name)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("WATCH %s: %d frames from calls, %d from one-row calls, or their contents differ\n  calls:   %.400s\n  one-row: %.400s",
						name, len(got), len(want), fmt.Sprint(got), fmt.Sprint(want))
				}
			}

			if f != nil {
				caughtUp()
				sameCallFoldState(t, "follower", callFoldState(t, f), live)
				f.Close()
				ts.Close()
				f = nil
			}

			if tc.memory {
				return
			}
			// Reopen: the WAL replays to the same state, from records that
			// stamp the same rows, one record per call. The logs are whole:
			// at the default segment cap no segment seals, and compaction
			// never drops an active one.
			for _, tw := range twins {
				tw.close()
			}
			got, calls := walRows(t, byCall.opts.Dir)
			want, _ := walRows(t, byRow.opts.Dir)
			if got != want {
				t.Errorf("WAL rows differ:\n calls:   %.400s\n one-row: %.400s", got, want)
			}
			if calls != requests {
				t.Errorf("the WAL holds %d append records for %d calls, want one a call", calls, requests)
			}
			var reopened []map[string]string
			for _, tw := range twins {
				db, err := chronicledb.Open(tw.opts)
				if err != nil {
					t.Fatal(err)
				}
				reopened = append(reopened, callFoldState(t, db))
				db.Close()
			}
			sameCallFoldState(t, "reopened", reopened[0], reopened[1])
			sameCallFoldState(t, "reopened against live", reopened[0], live)
		})
	}
}
