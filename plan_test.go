package chronicledb_test

import (
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	chronicledb "chronicledb"
	"chronicledb/internal/value"
)

// The shared-delta plan changes one view at a time: CREATE VIEW interns its
// own expression, DROP VIEW unlinks the nodes no other view holds. These
// tests check that maintenance stays exact across that churn, that EXPLAIN
// names the same plan nodes wherever the catalog is replayed, and that the
// read path keeps answering while it happens.

// churnDefs share σ prefixes: minutes >= 10 under four of them, stacked
// under a second atom in two.
var churnDefs = map[string]string{
	"big":   `SELECT acct, SUM(minutes) AS m FROM calls WHERE minutes >= 10 GROUP BY acct`,
	"bign":  `SELECT acct, COUNT(*) AS n FROM calls WHERE minutes >= 10 GROUP BY acct`,
	"bigc":  `SELECT acct, SUM(cost) AS c FROM calls WHERE minutes >= 10 AND cost >= 0 GROUP BY acct`,
	"mixed": `SELECT acct, MIN(cost) AS lo FROM calls WHERE minutes >= 10 AND plan != 'basic' GROUP BY acct`,
	"gold":  `SELECT acct, MAX(minutes) AS top FROM calls WHERE plan = 'gold' GROUP BY acct`,
	"all":   `SELECT acct, COUNT(*) AS n FROM calls GROUP BY acct`,
}

// TestPlanChurnEqualsTwins: one database holds every view of churnDefs, and
// one database per view holds that view alone (its twin). Random calls go
// to all of them while views are dropped and re-created in the first —
// the first view made, whose expression the shared nodes were interned
// from, among them. After every round each view equals its twin and its
// expression recomputed over the retained chronicle.
func TestPlanChurnEqualsTwins(t *testing.T) {
	const ddl = `CREATE CHRONICLE calls (acct STRING, minutes INT, cost FLOAT, plan STRING) RETAIN ALL`
	open := func() *chronicledb.DB {
		db, err := chronicledb.Open(chronicledb.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		mustExec(t, db, ddl)
		return db
	}
	names := slices.Sorted(maps.Keys(churnDefs))
	fused, twins := open(), map[string]*chronicledb.DB{}
	live := map[string]bool{}
	create := func(name string) {
		for _, db := range []*chronicledb.DB{fused, twins[name]} {
			mustExec(t, db, fmt.Sprintf("CREATE VIEW %s AS %s", name, churnDefs[name]))
		}
		live[name] = true
	}
	for _, name := range names {
		twins[name] = open()
		create(name)
	}
	rng := rand.New(rand.NewSource(46))
	plans := []string{"basic", "gold", "pro"}
	for round := range 80 {
		rows := make([]value.Tuple, 1+rng.Intn(30))
		for i := range rows {
			rows[i] = value.Tuple{value.Str(fmt.Sprintf("a%d", rng.Intn(12))), value.Int(int64(rng.Intn(40))),
				value.Float(float64(rng.Intn(100)-10) / 4), value.Str(plans[rng.Intn(len(plans))])}
		}
		for _, db := range append([]*chronicledb.DB{fused}, slices.Collect(maps.Values(twins))...) {
			if _, _, err := db.AppendRows("calls", rows); err != nil {
				t.Fatal(err)
			}
		}
		name := names[rng.Intn(len(names))]
		switch {
		case live[name] && rng.Intn(3) == 0:
			mustExec(t, fused, "DROP VIEW "+name)
			mustExec(t, twins[name], "DROP VIEW "+name)
			delete(live, name)
		case !live[name]:
			create(name)
		}
		for _, name := range names {
			if !live[name] {
				continue
			}
			got, want := sortedRows(t, fused, name), sortedRows(t, twins[name], name)
			if !slices.Equal(got, want) {
				t.Fatalf("round %d: %s beside the others\n%s\nalone\n%s", round, name, strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
			v, _ := fused.View(name)
			rec, err := v.Recompute()
			if err != nil {
				t.Fatal(err)
			}
			var recomputed []string
			for _, r := range rec {
				recomputed = append(recomputed, fmt.Sprint(r))
			}
			if !slices.Equal(got, recomputed) {
				t.Fatalf("round %d: %s\n%s\nrecomputed\n%s", round, name, strings.Join(got, "\n"), strings.Join(recomputed, "\n"))
			}
		}
	}
}

// planLines returns the plan_node rows of EXPLAIN VIEW name, one string
// each, in the order printed; nil when the statement fails.
func planLines(db *chronicledb.DB, name string) []string {
	res, err := db.Exec("EXPLAIN VIEW " + name)
	if err != nil {
		return nil
	}
	var out []string
	for _, r := range res.Rows {
		if p := r[0].AsString(); strings.HasPrefix(p, "plan_node_") {
			out = append(out, p+" "+r[1].AsString())
		}
	}
	return out
}

// TestExplainPlanStableAcrossReplay: node ids follow creation order, and the
// catalog replays in that order, so EXPLAIN VIEW prints the same plan_node
// lines — ids, consumer counts, expressions — live, on a follower that
// streamed the catalog, and after Close and Open; drops and re-creates
// included, so some ids are gone for good.
func TestExplainPlanStableAcrossReplay(t *testing.T) {
	dir := t.TempDir()
	db, ts := openPrimary(t, chronicledb.Options{Dir: dir, Shards: 2})
	defer ts.Close()
	mustExec(t, db, `CREATE CHRONICLE calls (acct STRING, minutes INT, cost FLOAT, plan STRING)`)
	mustExec(t, db, `CREATE CHRONICLE pings (acct STRING, n INT)`)
	for _, name := range slices.Sorted(maps.Keys(churnDefs)) {
		mustExec(t, db, fmt.Sprintf("CREATE VIEW %s AS %s", name, churnDefs[name]))
	}
	for _, stmt := range []string{
		`CREATE VIEW pn AS SELECT acct, SUM(n) AS s FROM pings WHERE n > 2 GROUP BY acct`,
		`DROP VIEW bign`,
		`DROP VIEW big`,
		`CREATE PERIODIC VIEW weekly AS SELECT acct, SUM(minutes) AS m FROM calls WHERE minutes >= 10 GROUP BY acct EVERY 1000 WIDTH 1000`,
		fmt.Sprintf("CREATE VIEW big AS %s", churnDefs["big"]),
		`CREATE VIEW late AS SELECT acct, MAX(cost) AS hi FROM calls WHERE cost > 1.5 GROUP BY acct`,
	} {
		mustExec(t, db, stmt)
	}
	for i := range 20 {
		if _, _, err := db.AppendRows("calls", []chronicledb.Tuple{{chronicledb.Str(fmt.Sprint("a", i%3)), chronicledb.Int(int64(i)), chronicledb.Float(2), chronicledb.Str("gold")}}); err != nil {
			t.Fatal(err)
		}
	}
	views := []string{"all", "big", "bigc", "gold", "late", "mixed", "pn", "weekly"}
	want := map[string][]string{}
	for _, name := range views {
		if want[name] = planLines(db, name); len(want[name]) == 0 {
			t.Fatalf("EXPLAIN VIEW %s prints no plan nodes", name)
		}
	}
	same := func(where string, other *chronicledb.DB) bool {
		for _, name := range views {
			if got := planLines(other, name); !slices.Equal(got, want[name]) {
				if where != "" {
					t.Errorf("%s: EXPLAIN VIEW %s\n%s\nlive\n%s", where, name, strings.Join(got, "\n"), strings.Join(want[name], "\n"))
				}
				return false
			}
		}
		return true
	}

	f := openFollower(t, ts.URL, t.TempDir(), chronicledb.Options{Shards: 2})
	defer f.Close()
	deadline := time.Now().Add(10 * time.Second)
	for !same("", f) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	same("follower", f)

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := chronicledb.Open(chronicledb.Options{Dir: dir, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	same("after Close and Open", re)
}

// TestPlanReadersDuringDDL races the read path that names views — EXPLAIN
// VIEW, SHOW VIEWS and point SELECTs — against CREATE and DROP churn and
// appends. The view that is never dropped answers every read, with its
// plan nodes; the churned views answer or are unknown, never anything else.
// make bench-maint runs it ten times under the race detector.
func TestPlanReadersDuringDDL(t *testing.T) {
	db, err := chronicledb.Open(chronicledb.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, `CREATE CHRONICLE calls (acct STRING, minutes INT, cost FLOAT, plan STRING)`)
	mustExec(t, db, `CREATE VIEW stable AS `+churnDefs["big"])
	churn := []string{"bign", "bigc", "mixed", "gold"}

	var wg sync.WaitGroup
	done := make(chan struct{})
	fail := make(chan string, 16)
	report := func(format string, args ...any) {
		select {
		case fail <- fmt.Sprintf(format, args...):
		default:
		}
	}
	sums := map[string]int64{}
	var reads, appends atomic.Int64
	wg.Add(1)
	go func() { // appends
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			row := chronicledb.Tuple{chronicledb.Str(fmt.Sprint("a", i%5)), chronicledb.Int(int64(10 + i%20)), chronicledb.Float(1), chronicledb.Str("gold")}
			if _, _, err := db.AppendRows("calls", []chronicledb.Tuple{row, row}); err != nil {
				report("append: %v", err)
				return
			}
			sums[row[0].AsString()] += 2 * row[1].AsInt()
			appends.Add(1)
		}
	}()
	for range 2 {
		wg.Add(1)
		go func() { // readers
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				if lines := planLines(db, "stable"); len(lines) != 2 {
					report("EXPLAIN VIEW stable: %q", lines)
				}
				planLines(db, churn[i%len(churn)])
				res, err := db.Exec("SHOW VIEWS")
				if err != nil || !slices.ContainsFunc(res.Rows, func(r chronicledb.Row) bool { return r[0].AsString() == "stable" }) {
					report("SHOW VIEWS: %v", err)
				}
				if res, err := db.Exec(`SELECT * FROM stable WHERE acct = 'a1'`); err != nil || len(res.Rows) > 1 {
					report("point SELECT on stable: %v", err)
				}
				if _, err := db.Exec(fmt.Sprintf(`SELECT * FROM %s WHERE acct = 'a1'`, churn[i%len(churn)])); err != nil &&
					!strings.Contains(err.Error(), "unknown") && !strings.Contains(err.Error(), "no view") {
					report("point SELECT on %s: %v", churn[i%len(churn)], err)
				}
				reads.Add(1)
			}
		}()
	}
	for i := range 120 {
		name := churn[i%len(churn)]
		if i/len(churn)%2 == 0 {
			mustExec(t, db, fmt.Sprintf("CREATE VIEW %s AS %s", name, churnDefs[name]))
		} else {
			mustExec(t, db, "DROP VIEW "+name)
		}
		// Let the readers and the appender in between statements.
		for r, a := reads.Load(), appends.Load(); reads.Load() < r+2 || appends.Load() < a+1; {
			runtime.Gosched()
		}
	}
	close(done)
	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Error(msg)
	}
	for acct, sum := range sums {
		if row, ok, err := db.Lookup("stable", chronicledb.Str(acct)); err != nil || !ok || row[1].AsInt() != sum {
			t.Errorf("stable[%s] = %v (%v, %v), want %d", acct, row, ok, err, sum)
		}
	}
}
