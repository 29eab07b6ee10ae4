// A periodic family that keeps its instances is a member of its
// expression's key directory like any view: its instances keep their keys
// there, take the round's delta from the shared plan, and resolve each run
// of a call once.
package chronicledb_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	chronicledb "chronicledb"
	"chronicledb/internal/calendar"
	"chronicledb/internal/fault"
)

// TestFamilyRunResolvedOnce counts the work of a call into four families of
// one σ, each with two live instances, whose window boundary falls inside
// the call: the call folds in two runs, each into two instances of every
// family. The four are one cohort, so each interval's four instances share a
// table, and the one directory the families share hashes and probes each
// σ'd row once: the tables that fold a run share its resolution, and the
// cohort folds the round once for every family.
//
// Mutation-checked: instances that resolve their own rows (folding outside
// the round) hash a row once per instance.
func TestFamilyRunResolvedOnce(t *testing.T) {
	clock := &twinClock{}
	db, err := chronicledb.Open(chronicledb.Options{Clock: clock.read})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, `CREATE CHRONICLE calls (acct STRING, minutes INT)`)
	aggs := []string{"SUM(minutes) AS a", "COUNT(*) AS a", "MAX(minutes) AS a", "MIN(minutes) AS a"}
	for i, agg := range aggs {
		mustExec(t, db, fmt.Sprintf(`CREATE PERIODIC VIEW f%d AS SELECT acct, %s FROM calls WHERE minutes > 5 GROUP BY acct EVERY 100 WIDTH 200`, i, agg))
	}
	families := make([]*calendar.PeriodicView, len(aggs))
	for i := range families {
		families[i], _ = db.Engine().PeriodicView(fmt.Sprintf("f%d", i))
	}
	dir := families[0].Dir()
	for _, pv := range families {
		if pv.Dir() != dir {
			t.Fatalf("%s keeps its keys in %s, f0 in %s: not one directory", pv.Name(), pv.Dir().Name(), dir.Name())
		}
	}
	if dir.Members() != len(families) {
		t.Fatalf("the directory counts %d members, want %d", dir.Members(), len(families))
	}

	// The clock ticks 10 a tuple. Five rows at 110..150 open the windows
	// [0,200) and [100,300); the counted call's rows at 160..250 fold in
	// two runs, [160,200) into those two and [200,250] into [100,300) and
	// [200,400).
	clock.step.Store(10)
	clock.now.Store(100)
	call := func(n int) (sigmad int64) {
		t.Helper()
		rows := make([]chronicledb.Tuple, n)
		for i := range rows {
			minutes := int64(i * 3 % 10) // both runs of the counted call hold σ'd rows
			rows[i] = chronicledb.Tuple{chronicledb.Str(fmt.Sprintf("a%d", i%7)), chronicledb.Int(minutes)}
			if minutes > 5 {
				sigmad++
			}
		}
		if _, _, err := db.AppendRows("calls", rows); err != nil {
			t.Fatal(err)
		}
		return sigmad
	}
	call(5)
	for _, pv := range families {
		if pv.Live() != 2 {
			t.Fatalf("%s: %d live instances before the counted call, want 2", pv.Name(), pv.Live())
		}
	}
	before := dir.Stats()
	sigmad := call(10)
	st := dir.Stats()
	if hashes, probes := st.Hashes-before.Hashes, st.Probes-before.Probes; hashes != sigmad || probes != sigmad {
		t.Errorf("a two-run call of %d σ'd rows into 8 instances of %d families: %d key hashes and %d probes, want %d of each (one a row)",
			sigmad, len(families), hashes, probes, sigmad)
	}
	for _, pv := range families {
		if pv.Live() != 3 || pv.Created() != 3 {
			t.Errorf("%s: %d live of %d created after the counted call, want 3 of 3", pv.Name(), pv.Live(), pv.Created())
		}
	}
	res := familyQuery(t, db, "SHOW VIEWS")
	for _, r := range res.Rows {
		if r[5].AsString() != dir.Name() || r[6].AsInt() != int64(len(families)) {
			t.Errorf("SHOW VIEWS %s: directory %q of %d members, want %q of %d", r[0].AsString(), r[5].AsString(), r[6].AsInt(), dir.Name(), len(families))
		}
	}
}

// TestFamilyCallFoldEqualsRowFolds is the call-fold twin of a σ'd family
// beside a view of the same σ, whose directory it shares, and of a family
// of that σ that expires its instances: one instance of the first family
// folds two runs of one call that are equally long after the σ, and every
// family holds what folding every row in a call of its own leaves. The
// slices the instances fold are windows of the round's delta: a run copied
// into scratch the family reused would start where the previous run
// started, and a directory would hand the second run the first one's
// resolution.
func TestFamilyCallFoldEqualsRowFolds(t *testing.T) {
	const sigma = `FROM calls WHERE minutes >= 50 GROUP BY acct`
	byCall, byRow := openCallFoldTwin(t, chronicledb.Options{}), openCallFoldTwin(t, chronicledb.Options{})
	defer func() { byCall.close(); byRow.close() }()
	twins := []*callFoldTwin{byCall, byRow}
	for _, tw := range twins {
		mustExec(t, tw.db, `CREATE VIEW big AS SELECT acct, SUM(minutes) AS total `+sigma)
		mustExec(t, tw.db, `CREATE PERIODIC VIEW big_windows AS SELECT acct, SUM(minutes) AS total, LAST(minutes) AS last_m `+sigma+` EVERY 70 WIDTH 140`)
		mustExec(t, tw.db, `CREATE PERIODIC VIEW big_expiring AS SELECT acct, SUM(minutes) AS total `+sigma+` EVERY 70 WIDTH 140 EXPIRE 70`)
		tw.clock.step.Store(7)
	}
	appendBoth := func(tuples []chronicledb.Tuple) {
		t.Helper()
		if _, _, err := byCall.db.AppendRows("calls", tuples); err != nil {
			t.Fatal(err)
		}
		for _, tu := range tuples {
			if _, _, err := byRow.db.AppendRows("calls", []chronicledb.Tuple{tu}); err != nil {
				t.Fatal(err)
			}
		}
	}
	rng := rand.New(rand.NewSource(32))
	for round := 0; round < 12; round++ {
		tuples := make([]chronicledb.Tuple, 1+rng.Intn(40))
		for i := range tuples {
			tuples[i] = chronicledb.Tuple{chronicledb.Str(fmt.Sprintf("acct%03d", rng.Intn(12))), chronicledb.Int(int64(rng.Intn(100)))}
		}
		appendBoth(tuples)
	}

	// The clock ticks 7 a tuple and a window opens every 70 chronons, so a
	// call of 20 rows that starts a span folds 10 rows into the span's
	// instances and 10 into the next span's; the instance opened at the
	// first span covers both. Each run's rows are other accounts'.
	start := (byCall.clock.now.Load()/70 + 2) * 70
	for _, tw := range twins {
		tw.clock.now.Store(start - 7)
	}
	tuples := make([]chronicledb.Tuple, 20)
	for i := range tuples {
		tuples[i] = chronicledb.Tuple{chronicledb.Str(fmt.Sprintf("run%d_%02d", i/10, i%10)), chronicledb.Int(int64(50 + i))}
	}
	pv, _ := byCall.db.Engine().PeriodicView("big_windows")
	appendBoth(tuples[:1]) // opens the instance before the counted call
	inst, ok := pv.At(calendar.Interval{Start: start, End: start + 140})
	if !ok {
		t.Fatalf("no instance [%d,%d)", start, start+140)
	}
	before := inst.Stats()
	for _, tw := range twins {
		tw.clock.now.Store(start - 7)
	}
	appendBoth(tuples)
	if st := inst.Stats(); st.Applies-before.Applies != 2 || st.DeltaRows-before.DeltaRows != 20 {
		t.Fatalf("the instance folded %d runs of %d rows in the call, want 2 runs of 10 rows each",
			st.Applies-before.Applies, st.DeltaRows-before.DeltaRows)
	}
	sameCallFoldState(t, "σ'd family", callFoldState(t, byCall.db), callFoldState(t, byRow.db))
}

// TestFamilyAndViewShareADirectory: a paged persistent view and a σ'd
// periodic family that keeps its instances, of the same expression and key
// columns, share one key
// directory under a two-block cache. After a checkpoint, a power cut and
// reopen, a follower's snapshot resync and the DROP of either one, each
// still equals a fold of everything appended and the directory counts the
// members there are.
func TestFamilyAndViewShareADirectory(t *testing.T) {
	for _, dropped := range []string{"usage", "windows"} {
		t.Run("drop "+dropped, func(t *testing.T) {
			clock := &twinClock{} // frozen: each call's chronon is set before it
			disk := fault.NewDisk()
			opts := chronicledb.Options{Dir: "/data", FS: disk, Shards: 2, Clock: clock.read, ViewBlockBytes: 256, ViewCacheBytes: 512}
			db, ts := openPrimary(t, opts)
			defer func() { ts.Close(); db.Close() }()
			mustExec(t, db, `CREATE CHRONICLE calls (acct STRING, minutes INT)`)
			mustExec(t, db, `CREATE VIEW usage AS SELECT acct, SUM(minutes) AS total FROM calls WHERE minutes > 1 GROUP BY acct`)
			mustExec(t, db, `CREATE PERIODIC VIEW windows AS SELECT acct, SUM(minutes) AS total FROM calls WHERE minutes > 1 GROUP BY acct EVERY 300 WIDTH 600`)

			type call struct {
				chronon int64
				rows    []chronicledb.Tuple
			}
			var calls []call
			appendRound := func() {
				t.Helper()
				c := call{chronon: 100 * int64(len(calls)+1), rows: make([]chronicledb.Tuple, 150)}
				for j := range c.rows {
					c.rows[j] = chronicledb.Tuple{chronicledb.Str(fmt.Sprintf("a%03d", (j*7+len(calls)*13)%200)), chronicledb.Int(int64(j % 5))}
				}
				clock.now.Store(c.chronon)
				if _, _, err := db.AppendRows("calls", c.rows); err != nil {
					t.Fatal(err)
				}
				calls = append(calls, c)
			}
			// sums folds the σ'd rows whose chronon lies in [lo, hi) by account.
			sums := func(lo, hi int64) map[string]int64 {
				out := map[string]int64{}
				for _, c := range calls {
					for _, r := range c.rows {
						if c.chronon >= lo && c.chronon < hi && r[1].AsInt() > 1 {
							out[r[0].AsString()] += r[1].AsInt()
						}
					}
				}
				return out
			}
			same := func(what string, got []chronicledb.Row, want map[string]int64) {
				t.Helper()
				if len(got) != len(want) {
					t.Errorf("%s: %d groups, want %d", what, len(got), len(want))
				}
				for _, r := range got {
					if r[1].AsInt() != want[r[0].AsString()] {
						t.Errorf("%s[%s] = %d, want %d", what, r[0].AsString(), r[1].AsInt(), want[r[0].AsString()])
					}
				}
			}
			check := func(what string, db *chronicledb.DB, members ...string) {
				t.Helper()
				last := calls[len(calls)-1].chronon
				var live []calendar.Interval // every window a call fell in
				for start := int64(0); start <= last; start += 300 {
					if start+600 > calls[0].chronon {
						live = append(live, calendar.Interval{Start: start, End: start + 600})
					}
				}
				dirs := map[string]bool{}
				for _, m := range members {
					if m == "usage" {
						v, ok := db.View("usage")
						if !ok {
							t.Fatalf("%s: no view usage", what)
						}
						dirs[v.Dir().Name()] = v.Dir().Members() == len(members)
						same(what+": usage", familyQuery(t, db, "SELECT * FROM usage").Rows, sums(0, last+1))
						continue
					}
					pv, ok := db.Engine().PeriodicView("windows")
					if !ok {
						t.Fatalf("%s: no family windows", what)
					}
					dirs[pv.Dir().Name()] = pv.Dir().Members() == len(members)
					if pv.Live() != len(live) {
						t.Errorf("%s: windows has %d live instances, want %d", what, pv.Live(), len(live))
					}
					for _, iv := range live {
						inst, ok := pv.At(iv)
						if !ok {
							t.Errorf("%s: windows has no instance %v", what, iv)
							continue
						}
						same(fmt.Sprintf("%s: windows%v", what, iv), inst.Rows(), sums(iv.Start, iv.End))
					}
				}
				if len(dirs) != 1 {
					t.Errorf("%s: %v keep their keys in %d directories, want one", what, members, len(dirs))
				}
				for name, balanced := range dirs {
					if !balanced {
						t.Errorf("%s: directory %s does not count its %d members", what, name, len(members))
					}
				}
			}

			for i := 0; i < 8; i++ {
				appendRound()
			}
			check("live", db, "usage", "windows")
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			appendRound()
			check("after a checkpoint", db, "usage", "windows")

			disk.PowerCut()
			ts.Close()
			db.Close()
			disk.Heal()
			db, ts = openPrimary(t, opts)
			check("after a power cut", db, "usage", "windows")
			appendRound()
			check("folding after the power cut", db, "usage", "windows")
			if v, _ := db.View("usage"); !v.Paged() || db.WALStats().ViewCacheMisses == 0 {
				t.Errorf("usage is not paged, or its reads never faulted a block (%d misses)", db.WALStats().ViewCacheMisses)
			}

			// A checkpoint compacts the log below it: a new follower resyncs
			// from the snapshot.
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			f := openFollower(t, ts.URL, t.TempDir(), chronicledb.Options{Shards: 2})
			waitUntil(t, 10*time.Second, "follower resync", func() bool {
				st, ok := f.ReplState()
				return ok && st.Resyncs > 0 && st.AppliedLSN >= db.Engine().LSN()
			})
			check("on the follower", f, "usage", "windows")
			f.Close()

			mustExec(t, db, "DROP VIEW "+dropped)
			kept := map[string]string{"usage": "windows", "windows": "usage"}[dropped]
			check("after the drop", db, kept)
			appendRound()
			check("folding after the drop", db, kept)
			mustExec(t, db, "DROP VIEW "+kept)
			for _, r := range familyQuery(t, db, "SHOW STATS").Rows {
				if r[0].AsString() == "view_dir_keys" && r[1].AsInt() != 0 {
					t.Errorf("with both dropped the engine holds %d directory keys", r[1].AsInt())
				}
			}
		})
	}
}

func familyQuery(t *testing.T, db *chronicledb.DB, stmt string) *chronicledb.Result {
	t.Helper()
	res, err := db.Exec(stmt)
	if err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
	return res
}

// TestExpiringFamilyKeysStayBounded: over keys that change every period, a
// family that expires its instances holds the keys of its live instances
// only, however many periods pass — each instance keeps a directory of its
// own, which goes with it — while a family of the same expression that
// keeps its instances holds each key ever seen once, in the directory it
// shares with the view of that expression.
func TestExpiringFamilyKeysStayBounded(t *testing.T) {
	const perPeriod, periods = 50, 40
	clock := &twinClock{}
	db, err := chronicledb.Open(chronicledb.Options{Clock: clock.read})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, `CREATE CHRONICLE calls (acct STRING, minutes INT)`)
	mustExec(t, db, `CREATE VIEW usage AS SELECT acct, SUM(minutes) AS total FROM calls GROUP BY acct`)
	mustExec(t, db, `CREATE PERIODIC VIEW kept AS SELECT acct, SUM(minutes) AS total FROM calls GROUP BY acct EVERY 100`)
	mustExec(t, db, `CREATE PERIODIC VIEW expiring AS SELECT acct, SUM(minutes) AS total FROM calls GROUP BY acct EVERY 100 EXPIRE 0`)
	kept, _ := db.Engine().PeriodicView("kept")
	expiring, _ := db.Engine().PeriodicView("expiring")
	if expiring.Dir() != nil {
		t.Fatalf("the expiring family shares directory %s", expiring.Dir().Name())
	}
	for p := 0; p < periods; p++ {
		rows := make([]chronicledb.Tuple, perPeriod)
		for i := range rows {
			rows[i] = chronicledb.Tuple{chronicledb.Str(fmt.Sprintf("p%03d_%02d", p, i)), chronicledb.Int(1)}
		}
		clock.now.Store(int64(p*100 + 50))
		if _, _, err := db.AppendRows("calls", rows); err != nil {
			t.Fatal(err)
		}
	}
	keys := 0
	for _, inst := range expiring.Instances() {
		if inst.View.Dir().Members() != 1 {
			t.Errorf("expiring%v's directory has %d members, want the instance alone", inst.Interval, inst.View.Dir().Members())
		}
		keys += inst.View.Dir().Len()
	}
	if expiring.Live() > 2 || keys > 2*perPeriod {
		t.Errorf("after %d periods the expiring family's %d live instances hold %d keys, want at most %d", periods, expiring.Live(), keys, 2*perPeriod)
	}
	u, _ := db.View("usage")
	if kept.Dir() != u.Dir() || kept.Dir().Len() != periods*perPeriod {
		t.Errorf("the kept family's directory %s holds %d keys, want usage's (%s) of %d", kept.Dir().Name(), kept.Dir().Len(), u.Dir().Name(), periods*perPeriod)
	}
	for _, r := range familyQuery(t, db, "SHOW VIEWS").Rows {
		if name := r[0].AsString(); name == "expiring (periodic)" && (r[5].AsString() != "" || r[6].AsInt() != 0) {
			t.Errorf("SHOW VIEWS %s: directory %q of %d members, want none shared", name, r[5].AsString(), r[6].AsInt())
		}
	}
}
