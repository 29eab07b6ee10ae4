// Periodic families that fold one expression by one key on one calendar
// with one expiry are a cohort: their instances of an interval born after
// they were made share one table. Each must still hold what it would hold
// alone (Thm 4.2, instance by instance).
package chronicledb_test

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	chronicledb "chronicledb"
	"chronicledb/internal/calendar"
)

// scriptClock hands out the chronons queued for the next call, one a
// tuple, and repeats the last once the queue is empty.
type scriptClock struct {
	mu    sync.Mutex
	queue []int64
	last  int64
}

func (c *scriptClock) read() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.queue) > 0 {
		c.last, c.queue = c.queue[0], c.queue[1:]
	}
	return c.last
}

// cohortRow is one appended tuple with the chronon it was stamped with.
type cohortRow struct {
	chronon int64
	acct    string
	minutes int64
}

// refFamily is a family as the reference fold sees it: its calendar, its
// expiry, its aggregations over minutes, and the row it was made at.
type refFamily struct {
	name   string
	aggs   []string // SUM COUNT MAX MIN AVG LAST, over the σ'd minutes
	cal    *calendar.Periodic
	expire int64 // <0 keeps every instance
	since  int   // index of the first row appended after its CREATE
}

// cohort names what the engine matches families on, beyond the σ and key
// every family of these cases shares.
func (f *refFamily) cohort() string { return fmt.Sprintf("%s|%d", f.cal, f.expire) }

func (f *refFamily) ddl() string {
	sel := make([]string, len(f.aggs))
	for i, a := range f.aggs {
		col := "minutes"
		if a == "COUNT" {
			col = "*"
		}
		sel[i] = fmt.Sprintf("%s(%s) AS c%d", a, col, i)
	}
	stmt := fmt.Sprintf(`CREATE PERIODIC VIEW %s AS SELECT acct, %s FROM calls WHERE minutes > 1 GROUP BY acct EVERY %d WIDTH %d`,
		f.name, strings.Join(sel, ", "), f.cal.Period, f.cal.Width)
	if f.cal.Offset != 0 {
		stmt += fmt.Sprintf(" OFFSET %d", f.cal.Offset)
	}
	if f.expire >= 0 {
		stmt += fmt.Sprintf(" EXPIRE %d", f.expire)
	}
	return stmt
}

// cohortScript drives one database and keeps the reference: every row
// appended, the live families, and where each cohort was founded — the
// stream's high-water chronon is its cohort's, kept from the row its first
// member was made at while any member lives.
type cohortScript struct {
	t        *testing.T
	clock    *scriptClock
	rng      *rand.Rand
	now      int64
	rows     []cohortRow
	families map[string]*refFamily
	founded  map[string]int // cohort -> index of its first row
}

func (s *cohortScript) create(db *chronicledb.DB, f refFamily) {
	s.t.Helper()
	f.since = len(s.rows)
	alive := false
	for _, g := range s.families {
		alive = alive || g.cohort() == f.cohort()
	}
	if !alive {
		s.founded[f.cohort()] = len(s.rows)
	}
	mustExec(s.t, db, f.ddl())
	s.families[f.name] = &f
}

func (s *cohortScript) drop(db *chronicledb.DB, name string) {
	s.t.Helper()
	mustExec(s.t, db, "DROP VIEW "+name)
	delete(s.families, name)
}

// call appends one call of up to 30 rows. Its chronons run on from the
// last call's 7 apart, so a call crosses window boundaries; one call in
// four runs backwards, and one in five starts 150 before the last, so rows
// arrive out of chronon order within a call and across calls.
func (s *cohortScript) call(db *chronicledb.DB) {
	s.t.Helper()
	n := 1 + s.rng.Intn(30)
	step := int64(7)
	if s.rng.Intn(4) == 0 {
		step = -5
	}
	if s.rng.Intn(5) == 0 {
		s.now = max(s.now-150, 1)
	}
	tuples := make([]chronicledb.Tuple, n)
	chronons := make([]int64, n)
	for i := range tuples {
		s.now = max(s.now+step, 1)
		r := cohortRow{chronon: s.now, acct: fmt.Sprintf("a%d", s.rng.Intn(8)), minutes: int64(s.rng.Intn(20))}
		s.rows = append(s.rows, r)
		chronons[i] = r.chronon
		tuples[i] = chronicledb.Tuple{chronicledb.Str(r.acct), chronicledb.Int(r.minutes)}
	}
	s.now = max(s.now, slices.Max(chronons))
	s.clock.mu.Lock()
	s.clock.queue = chronons
	s.clock.mu.Unlock()
	if _, _, err := db.AppendRows("calls", tuples); err != nil {
		s.t.Fatal(err)
	}
}

// want folds, for family f, every row appended since its CREATE into the
// intervals of its calendar that contain the row's chronon and that its
// cohort's high-water chronon has not expired: interval → acct → results,
// as SELECT renders them.
func (s *cohortScript) want(f *refFamily) map[calendar.Interval]map[string][]string {
	var high int64
	for _, r := range s.rows[s.founded[f.cohort()]:] {
		if len(f.cal.IntervalsAt(r.chronon)) > 0 {
			high = max(high, r.chronon)
		}
	}
	// A group's states, then its row count (AVG's denominator).
	folded := map[calendar.Interval]map[string][]int64{}
	for _, r := range s.rows[f.since:] {
		for _, iv := range f.cal.IntervalsAt(r.chronon) {
			if f.expire >= 0 && iv.End+f.expire <= high {
				continue
			}
			groups := folded[iv]
			if groups == nil {
				groups = map[string][]int64{}
				folded[iv] = groups
			}
			if r.minutes <= 1 {
				continue
			}
			g, seen := groups[r.acct]
			if !seen {
				g = make([]int64, len(f.aggs)+1)
			}
			g[len(f.aggs)]++
			for i, a := range f.aggs {
				switch {
				case a == "SUM" || a == "AVG":
					g[i] += r.minutes
				case a == "COUNT":
					g[i]++
				case a == "LAST" || !seen:
					g[i] = r.minutes
				case a == "MAX":
					g[i] = max(g[i], r.minutes)
				case a == "MIN":
					g[i] = min(g[i], r.minutes)
				}
			}
			groups[r.acct] = g
		}
	}
	out := map[calendar.Interval]map[string][]string{}
	for iv, groups := range folded {
		out[iv] = map[string][]string{}
		for acct, g := range groups {
			vals := make([]string, len(f.aggs))
			for i, a := range f.aggs {
				vals[i] = chronicledb.Int(g[i]).String()
				if a == "AVG" {
					vals[i] = chronicledb.Float(float64(g[i]) / float64(g[len(f.aggs)])).String()
				}
			}
			out[iv][acct] = vals
		}
	}
	return out
}

// check compares every live family of db, read through SQL, with the
// reference, instance by instance.
func (s *cohortScript) check(what string, db *chronicledb.DB) {
	s.t.Helper()
	for _, name := range slices.Sorted(maps.Keys(s.families)) {
		f := s.families[name]
		want := s.want(f)
		got := map[calendar.Interval]map[string][]string{}
		for _, inst := range familySQL(s.t, db, name) {
			groups := map[string][]string{}
			for _, row := range inst.Rows {
				vals := make([]string, len(f.aggs))
				for i := range vals {
					vals[i] = row[1+i].String()
				}
				groups[row[0].AsString()] = vals
			}
			got[inst.Interval] = groups
		}
		if g, w := fmt.Sprint(got), fmt.Sprint(want); g != w {
			s.t.Errorf("%s: %s holds\n  %s\nwant\n  %s", what, name, g, w)
		}
	}
}

// cohorts groups the live families by what the engine matches them on.
func (s *cohortScript) cohorts() map[string][]string {
	out := map[string][]string{}
	for _, name := range slices.Sorted(maps.Keys(s.families)) {
		k := s.families[name].cohort()
		out[k] = append(out[k], name)
	}
	return out
}

// checkShared asserts that each family's instances share tables with its
// whole cohort, and that SHOW VIEWS and EXPLAIN VIEW say so: the calls
// before it opened intervals no member had.
func (s *cohortScript) checkShared(what string, db *chronicledb.DB) {
	s.t.Helper()
	tableViews := map[string]int64{}
	for _, r := range familyQuery(s.t, db, "SHOW VIEWS").Rows {
		tableViews[strings.TrimSuffix(r[0].AsString(), " (periodic)")] = r[7].AsInt()
	}
	for _, members := range s.cohorts() {
		for _, name := range members {
			want := append([]string{name}, slices.DeleteFunc(slices.Clone(members), func(m string) bool { return m == name })...)
			pv, _ := chronicledb.Kernel(db).PeriodicView(name)
			got := pv.TableFamilies()
			slices.Sort(got[1:])
			if !slices.Equal(got, want) {
				s.t.Errorf("%s: %s shares its tables with %v, want %v", what, name, got, want)
			}
			if tableViews[name] != int64(len(want)) {
				s.t.Errorf("%s: SHOW VIEWS counts %d table_views for %s, want %d", what, tableViews[name], name, len(want))
			}
			groups := "own table"
			if len(want) > 1 {
				groups = "shared with " + strings.Join(want[1:], ", ")
			}
			for _, r := range familyQuery(s.t, db, "EXPLAIN VIEW "+name).Rows {
				if r[0].AsString() != "groups" {
					continue
				}
				// The others are named in the order they joined the cohort.
				others, ok := strings.CutPrefix(r[1].AsString(), "shared with ")
				if ok {
					names := strings.Split(others, ", ")
					slices.Sort(names)
					others = "shared with " + strings.Join(names, ", ")
				}
				if others != groups {
					s.t.Errorf("%s: EXPLAIN VIEW %s: groups %q, want %q", what, name, r[1].AsString(), groups)
				}
			}
		}
	}
}

// TestCohortFoldsEachFamilyAsAlone is Thm 4.2 for families that share
// their instances' tables: in every case each family's every live instance
// equals the reference fold of the rows since its CREATE in that interval,
// live, on a follower bootstrapped from a checkpoint, after Close and Open,
// and after calls that follow the reopen.
//
// Every statement precedes the checkpoint: a statement after it replays
// before the whole WAL tail on reopen (ROADMAP item 2), which no family
// could fold alike. The cases:
//   - boundaries: three families of one cohort over calls that cross window
//     boundaries and arrive out of chronon order;
//   - late: a family made while the cohort's instances are live keeps its
//     own tables for them, and shares the next interval born;
//   - drop-first: the cohort's first family is dropped mid-stream, and one
//     of its name made again later;
//   - expiring: a cohort whose instances expire, with a late member;
//   - offset: two families differing only in OFFSET do not share; the one
//     matching the first does;
//   - expiry: two families differing only in EXPIRE do not share.
//
// Mutation-checked: matching cohorts without the calendar fails offset;
// letting a late member join a live interval's table fails late.
func TestCohortFoldsEachFamilyAsAlone(t *testing.T) {
	every := func(offset int64) *calendar.Periodic {
		cal, err := calendar.NewPeriodic(offset, 100, 200)
		if err != nil {
			t.Fatal(err)
		}
		return cal
	}
	kept := int64(-1)
	type step func(s *cohortScript, db *chronicledb.DB)
	create := func(name string, cal *calendar.Periodic, expire int64, aggs ...string) step {
		return func(s *cohortScript, db *chronicledb.DB) {
			s.create(db, refFamily{name: name, aggs: aggs, cal: cal, expire: expire})
		}
	}
	calls := func(n int) step {
		return func(s *cohortScript, db *chronicledb.DB) {
			for range n {
				s.call(db)
			}
		}
	}
	drop := func(name string) step {
		return func(s *cohortScript, db *chronicledb.DB) { s.drop(db, name) }
	}
	for _, tc := range []struct {
		name   string
		before []step // up to the checkpoint: every statement is here
		after  []step // appends only
	}{
		{"boundaries", []step{
			create("f0", every(0), kept, "SUM"), create("f1", every(0), kept, "COUNT", "MAX"),
			create("f2", every(0), kept, "SUM", "LAST", "MIN"), calls(6),
		}, []step{calls(6)}},
		{"late", []step{
			create("f0", every(0), kept, "SUM"), create("f1", every(0), kept, "COUNT", "MAX"), calls(4),
			create("f2", every(0), kept, "MIN", "LAST"), calls(3),
		}, []step{calls(6)}},
		{"drop-first", []step{
			create("f0", every(0), kept, "SUM"), create("f1", every(0), kept, "COUNT"),
			create("f2", every(0), kept, "MAX", "SUM"), calls(4), drop("f0"), calls(3),
			create("f0", every(0), kept, "LAST", "COUNT"), calls(2),
		}, []step{calls(6)}},
		{"expiring", []step{
			create("f0", every(0), 50, "SUM"), create("f1", every(0), 50, "COUNT", "MAX"), calls(4),
			create("f2", every(0), 50, "LAST"), calls(3),
		}, []step{calls(8)}},
		{"offset", []step{
			create("f0", every(0), kept, "SUM"), create("f1", every(50), kept, "SUM"),
			create("f2", every(0), kept, "COUNT"), calls(5),
		}, []step{calls(5)}},
		{"expiry", []step{
			create("f0", every(0), 100, "SUM"), create("f1", every(0), 300, "SUM"), calls(5),
		}, []step{calls(5)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clock := &scriptClock{}
			opts := chronicledb.Options{Dir: t.TempDir(), Shards: 2, Clock: clock.read}
			db, ts := openPrimary(t, opts)
			defer func() { ts.Close(); db.Close() }()
			s := &cohortScript{t: t, clock: clock, rng: rand.New(rand.NewSource(int64(len(tc.name)))), now: 50,
				families: map[string]*refFamily{}, founded: map[string]int{}}
			mustExec(t, db, `CREATE CHRONICLE calls (acct STRING, minutes INT)`)
			for _, st := range tc.before {
				st(s, db)
			}
			s.check("before the checkpoint", db)
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			// Past every live window: the calls after the checkpoint open
			// intervals no member has, which every member of a cohort shares.
			s.now += 200
			for _, st := range tc.after {
				st(s, db)
			}
			s.check("live", db)
			s.checkShared("live", db)

			f := openFollower(t, ts.URL, t.TempDir(), chronicledb.Options{Shards: 2})
			waitUntil(t, 10*time.Second, "follower resync", func() bool {
				st, ok := f.ReplState()
				return ok && st.Resyncs > 0 && st.AppliedLSN >= chronicledb.Kernel(db).LSN()
			})
			s.check("on the follower", f)
			s.checkShared("on the follower", f)
			f.Close()

			ts.Close()
			db.Close()
			db, ts = openPrimary(t, opts)
			// A restore gives each instance a table of its own, and the WAL
			// tail's births share theirs again.
			s.check("after Close and Open", db)
			s.checkShared("after Close and Open", db)
			s.now += 200
			calls(4)(s, db)
			s.check("folding after the reopen", db)
			s.checkShared("folding after the reopen", db)
		})
	}
}

// TestFamilyReportsDuringFolds reads SHOW VIEWS and EXPLAIN VIEW of an
// expiring cohort while calls make and expire its instances: the
// reports read the families under the lock their maintenance holds, so
// under -race neither side sees the other's instances half made.
func TestFamilyReportsDuringFolds(t *testing.T) {
	clock := &twinClock{}
	clock.step.Store(3)
	db, err := chronicledb.Open(chronicledb.Options{Clock: clock.read})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, `CREATE CHRONICLE calls (acct STRING, minutes INT)`)
	for i, agg := range []string{"SUM(minutes) AS s", "COUNT(*) AS n"} {
		mustExec(t, db, fmt.Sprintf(`CREATE PERIODIC VIEW f%d AS SELECT acct, %s FROM calls GROUP BY acct EVERY 20 WIDTH 40 EXPIRE 10`, i, agg))
	}
	done := make(chan error, 1)
	go func() {
		rows := make([]chronicledb.Tuple, 10)
		for i := range rows {
			rows[i] = chronicledb.Tuple{chronicledb.Str(fmt.Sprintf("a%d", i)), chronicledb.Int(1)}
		}
		for range 300 {
			if _, _, err := db.AppendRows("calls", rows); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			pv, _ := chronicledb.Kernel(db).PeriodicView("f0")
			if pv.Expired() == 0 {
				t.Fatal("no instance expired while the reports ran")
			}
			return
		default:
		}
		familyQuery(t, db, "SHOW VIEWS")
		familyQuery(t, db, "EXPLAIN VIEW f1")
	}
}
