// A periodic family whose windows overlap folds each row once, into the
// pane of its span, and an open window reads the merge of its panes. Each
// instance must still hold what a fold of its window's rows holds (Thm 4.2,
// instance by instance), and a read must see every pane of one call or none.
package chronicledb_test

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	chronicledb "chronicledb"
	"chronicledb/internal/calendar"
	"chronicledb/internal/view"
)

// TestFamilyPanesEqualNaiveFold: a cohort of two families over one calendar,
// which between them fold SUM, COUNT, MIN, MAX, AVG and LAST, holds in every
// live instance the reference fold of the rows in its window — over calls
// that cross span boundaries and arrive out of chronon order — live, after a
// reopen that replays the WAL alone, and after a checkpoint and a reopen,
// at one shard and at two. The calendars: windows of 15 every 6 from 4,
// whose spans are 1, 2 and 3 chronons long; two windows a chronon; tumbling
// windows, each its own pane; and expiring overlapping windows.
//
// Mutation-checked: merging a window's panes newest first fails it.
func TestFamilyPanesEqualNaiveFold(t *testing.T) {
	periodic := func(offset, every, width int64) *calendar.Periodic {
		cal, err := calendar.NewPeriodic(offset, every, width)
		if err != nil {
			t.Fatal(err)
		}
		return cal
	}
	for _, tc := range []struct {
		name   string
		cal    *calendar.Periodic
		expire int64
	}{
		{"unequal spans", periodic(4, 6, 15), -1},
		{"two a chronon", periodic(0, 70, 140), -1},
		{"tumbling", periodic(0, 50, 50), -1},
		{"expiring", periodic(4, 6, 15), 10},
	} {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/shards=%d", tc.name, shards), func(t *testing.T) {
				clock := &scriptClock{}
				opts := chronicledb.Options{Dir: t.TempDir(), Shards: shards, Clock: clock.read}
				db, err := chronicledb.Open(opts)
				if err != nil {
					t.Fatal(err)
				}
				defer func() { db.Close() }()
				s := &cohortScript{t: t, clock: clock, rng: rand.New(rand.NewSource(int64(shards))), now: 50,
					families: map[string]*refFamily{}, founded: map[string]int{}}
				mustExec(t, db, `CREATE CHRONICLE calls (acct STRING, minutes INT)`)
				s.create(db, refFamily{name: "f0", aggs: []string{"SUM", "COUNT", "MIN"}, cal: tc.cal, expire: tc.expire})
				s.create(db, refFamily{name: "f1", aggs: []string{"MAX", "AVG", "LAST"}, cal: tc.cal, expire: tc.expire})
				reopen := func() {
					t.Helper()
					if err := db.Close(); err != nil {
						t.Fatal(err)
					}
					if db, err = chronicledb.Open(opts); err != nil {
						t.Fatal(err)
					}
				}
				calls := func(n int) {
					for range n {
						s.call(db)
					}
				}
				calls(8)
				s.check("live", db)
				s.checkShared("live", db)
				reopen() // no checkpoint yet: the WAL alone
				s.check("after WAL-only replay", db)
				calls(4)
				s.check("folding after WAL-only replay", db)
				if err := db.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				calls(4)
				reopen()
				s.check("after a checkpoint and reopen", db)
				calls(4)
				s.check("folding after the checkpoint's reopen", db)
			})
		}
	}
}

// TestFamilyReadsSeeWholeCalls races SQL reads of an overlapping family's
// open instances against 16-row calls whose rows straddle a span boundary:
// each call folds 8 rows into one pane and 8 into the next, which publish
// one after the other, and a read must see both or neither. The clock ticks
// once a row from 8, so instance [16k, 16k+32) holds the last 8 rows of call
// k−1, then all 16 of call k, then the first 8 of call k+1: 8, 24 or 32 rows
// of account a, never 16.
//
// Mutation-checked: publishing the panes outside the family's sequence
// bracket fails it.
func TestFamilyReadsSeeWholeCalls(t *testing.T) {
	var tick atomic.Int64
	tick.Store(7)
	db, err := chronicledb.Open(chronicledb.Options{Clock: func() int64 { return tick.Add(1) }})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, `CREATE CHRONICLE calls (acct STRING, minutes INT)`)
	mustExec(t, db, `CREATE PERIODIC VIEW w AS SELECT acct, SUM(minutes) AS total, COUNT(*) AS n FROM calls GROUP BY acct EVERY 16 WIDTH 32 EXPIRE 64`)
	rows := make([]chronicledb.Tuple, 16)
	for i := range rows {
		rows[i] = chronicledb.Tuple{chronicledb.Str("a"), chronicledb.Int(1)}
	}
	const calls, reads = 300, 3000
	var done atomic.Bool
	var read atomic.Int64
	var readers sync.WaitGroup
	for r := range 3 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; !done.Load(); i++ {
				// The newest instance, or one or two before it, by point
				// lookup or by scan.
				start := (tick.Load()/16 - int64((r+i)%3)) * 16
				if start < 16 {
					continue
				}
				stmt := fmt.Sprintf("SELECT * FROM w FOR INTERVAL %d", start)
				if i%2 == 0 {
					stmt += " WHERE acct = 'a'"
				}
				res, err := db.Exec(stmt)
				read.Add(1)
				if errors.Is(err, chronicledb.ErrNoInstance) {
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				for _, row := range res.Rows {
					if n := row[2].AsInt(); row[1].AsInt() != n || n != 8 && n != 24 && n != 32 {
						t.Errorf("%s: %v is not whole calls: want 8, 24 or 32 rows", stmt, row)
						return
					}
				}
			}
		}()
	}
	for c := 0; c < calls || read.Load() < reads && !t.Failed(); c++ {
		if _, _, err := db.AppendRows("calls", rows); err != nil {
			t.Fatal(err)
		}
	}
	done.Store(true)
	readers.Wait()
}

// TestCreateRefusesRunawayOverlap: CREATE PERIODIC VIEW refuses a calendar
// whose windows a chronon lies in, ⌈WIDTH/EVERY⌉, exceed
// calendar.MaxWindows — at the limit it is made, one past it is refused,
// and so is the probe that once had every append allocate without end — and
// one whose OFFSET + WIDTH overflows. Nothing is appended at the limit: a
// row there would open MaxWindows windows.
func TestCreateRefusesRunawayOverlap(t *testing.T) {
	db, err := chronicledb.Open(chronicledb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, `CREATE CHRONICLE calls (acct STRING, minutes INT)`)
	family := func(name, cal string) string {
		return fmt.Sprintf(`CREATE PERIODIC VIEW %s AS SELECT acct, SUM(minutes) AS total FROM calls GROUP BY acct %s`, name, cal)
	}
	mustExec(t, db, family("at_limit", fmt.Sprintf("EVERY 1 WIDTH %d", calendar.MaxWindows)))
	for _, c := range []string{
		fmt.Sprintf("EVERY 1 WIDTH %d", calendar.MaxWindows+1),
		fmt.Sprintf("EVERY 1000 WIDTH %d", 1000*calendar.MaxWindows+1),
		"EVERY 1000000000 WIDTH 9000000000000000000",
	} {
		if _, err := db.Exec(family("past_limit", c)); !errors.Is(err, calendar.ErrTooManyWindows) {
			t.Errorf("%s: %v, want calendar.ErrTooManyWindows", c, err)
		}
	}
	if _, err := db.Exec(family("overflowing", "EVERY 10 OFFSET 9223372036854775800")); err == nil {
		t.Error("OFFSET + WIDTH past the last chronon accepted")
	}
	for _, r := range familyQuery(t, db, "SHOW VIEWS").Rows {
		if name := r[0].AsString(); name != "at_limit (periodic)" {
			t.Errorf("SHOW VIEWS lists %s", name)
		}
	}
}

// TestLateRowsIntoClosedWindows: rows that land in spans whose every window
// has closed fold into a pane of the span, as rows for an open window do,
// and every instance — of a family that keeps its windows and of one that
// expires them 3·EVERY after they close, at r = 2 and r = 30 windows a
// chronon, with FIRST and LAST, whose merge order shows — holds the
// reference fold of its window's rows: live, and after a checkpoint and a
// reopen, at one shard and at two. A call whose late rows all land in one
// span adds at most one pane, however many rows it holds.
//
// Mutation-checked: folding a late run into its span's oldest pane fails
// it on FIRST and LAST.
func TestLateRowsIntoClosedWindows(t *testing.T) {
	const every = 10
	for _, r := range []int64{2, 30} {
		for _, expire := range []int64{-1, 3 * every} {
			for _, shards := range []int{1, 2} {
				t.Run(fmt.Sprintf("r=%d/expire=%d/shards=%d", r, expire, shards), func(t *testing.T) {
					cal, err := calendar.NewPeriodic(0, every, r*every)
					if err != nil {
						t.Fatal(err)
					}
					clock := &scriptClock{}
					opts := chronicledb.Options{Dir: t.TempDir(), Shards: shards, Clock: clock.read}
					db, err := chronicledb.Open(opts)
					if err != nil {
						t.Fatal(err)
					}
					defer func() { db.Close() }()
					s := &cohortScript{t: t, clock: clock, rng: rand.New(rand.NewSource(r + expire)), now: 1,
						families: map[string]*refFamily{}, founded: map[string]int{}}
					mustExec(t, db, `CREATE CHRONICLE calls (acct STRING, minutes INT)`)
					s.create(db, refFamily{name: "w", aggs: []string{"FIRST", "LAST", "SUM", "COUNT"}, cal: cal, expire: expire})
					onTime := func(n int) {
						chronons := make([]int64, n)
						for i := range chronons {
							s.now += 1 + s.rng.Int63n(3)
							chronons[i] = s.now
						}
						s.appendAt(db, chronons)
					}
					// A late call: n rows in one span that every window
					// containing it has closed on, one of the last few such.
					late := func(n int) {
						closedBy := (s.now - r*every) / every
						lo := (closedBy - s.rng.Int63n(4)) * every
						chronons := make([]int64, n)
						for i := range chronons {
							chronons[i] = lo + s.rng.Int63n(every)
						}
						before := livePanes(db, "w")
						s.appendAt(db, chronons)
						if added := livePanes(db, "w") - before; added > 1 {
							t.Errorf("%d late rows into [%d,%d) added %d panes, want at most 1", n, lo, lo+every, added)
						}
						s.check(fmt.Sprintf("%d late rows into [%d,%d)", n, lo, lo+every), db)
					}
					for range r + 4 {
						onTime(16)
					}
					for range 6 {
						late(12)
						onTime(8)
						late(3)
					}
					if err := db.Checkpoint(); err != nil {
						t.Fatal(err)
					}
					late(5)
					if err := db.Close(); err != nil {
						t.Fatal(err)
					}
					if db, err = chronicledb.Open(opts); err != nil {
						t.Fatal(err)
					}
					s.check("after a checkpoint and reopen", db)
					for range 3 {
						late(12)
						onTime(8)
					}
					s.check("folding after the reopen", db)
				})
			}
		}
	}
}

// appendAt appends one call of rows stamped with chronons, over random
// accounts and minutes.
func (s *cohortScript) appendAt(db *chronicledb.DB, chronons []int64) {
	s.t.Helper()
	tuples := make([]chronicledb.Tuple, len(chronons))
	for i, ch := range chronons {
		r := cohortRow{chronon: ch, acct: fmt.Sprintf("a%d", s.rng.Intn(8)), minutes: int64(s.rng.Intn(20))}
		s.rows = append(s.rows, r)
		tuples[i] = chronicledb.Tuple{chronicledb.Str(r.acct), chronicledb.Int(r.minutes)}
	}
	s.clock.mu.Lock()
	s.clock.queue = slices.Clone(chronons)
	s.clock.mu.Unlock()
	if _, _, err := db.AppendRows("calls", tuples); err != nil {
		s.t.Fatal(err)
	}
}

// livePanes counts the panes the live instances of family name read
// through.
func livePanes(db *chronicledb.DB, name string) int {
	pv, _ := chronicledb.Kernel(db).PeriodicView(name)
	panes := map[*view.View]bool{}
	for _, inst := range pv.Instances() {
		for _, p := range pv.PanesOf(inst.Interval) {
			panes[p] = true
		}
	}
	return len(panes)
}
