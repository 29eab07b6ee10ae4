package chronicledb_test

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	chronicledb "chronicledb"
	"chronicledb/internal/value"
)

// The views of one key directory share one table
// when they are made before it holds a group: one group per key holds the
// union of their aggregations. These tests check that a view of a shared
// table is the view it would be alone (Theorem 4.2 under fusion), and that
// its lock-free readers stay whole while the table publishes.

// tableDDL is the catalog both sides of TestSharedTableEqualsTwins start
// from: calls is retained, so every view of it can be recomputed; pings is
// not, so a view made late sees only the rows after it.
var tableDDL = []string{
	`CREATE CHRONICLE calls (acct STRING, minutes INT, cost FLOAT, plan STRING) RETAIN ALL`,
	`CREATE CHRONICLE pings (acct STRING, n INT) RETAIN NONE`,
}

// tableMembers fold σ(acct != 'x')(calls) by acct, and pingMembers pings by
// acct: each list one directory. Across the calls members ten states keep a
// seen bit, so the union's spill past word 0's eight is exercised; sums and
// again share SUM(minutes) under two names.
var (
	tableMembers = map[string]string{
		"sums":    `SELECT acct, SUM(minutes) AS total, COUNT(*) AS n FROM calls WHERE acct != 'x' GROUP BY acct`,
		"again":   `SELECT acct, SUM(minutes) AS again FROM calls WHERE acct != 'x' GROUP BY acct`,
		"moments": `SELECT acct, AVG(cost) AS avg_c, VAR(cost) AS var_c, STDDEV(minutes) AS sd_m FROM calls WHERE acct != 'x' GROUP BY acct`,
		"edges":   `SELECT acct, FIRST(minutes) AS first_m, LAST(plan) AS last_p FROM calls WHERE acct != 'x' GROUP BY acct`,
		"names":   `SELECT acct, MIN(plan) AS lo, MAX(plan) AS hi FROM calls WHERE acct != 'x' GROUP BY acct`,
		"more":    `SELECT acct, SUM(cost) AS spent, MIN(cost) AS cheap, MAX(minutes) AS longest, LAST(cost) AS last_c, FIRST(plan) AS first_p FROM calls WHERE acct != 'x' GROUP BY acct`,
		"accts":   `SELECT DISTINCT acct FROM calls WHERE acct != 'x'`,
	}
	pingMembers = map[string]string{
		"p_sum":  `SELECT acct, SUM(n) AS s FROM pings GROUP BY acct`,
		"p_n":    `SELECT acct, COUNT(*) AS c, MAX(n) AS top FROM pings GROUP BY acct`,
		"p_keys": `SELECT DISTINCT acct FROM pings`,
	}
	lateMembers = map[string]string{
		"late":   `SELECT acct, MAX(cost) AS top, COUNT(*) AS n FROM calls WHERE acct != 'x' GROUP BY acct`,
		"p_late": `SELECT acct, MIN(n) AS low FROM pings GROUP BY acct`,
	}
)

// sortedRows renders a view's rows in key order, one string each.
func sortedRows(t *testing.T, db *chronicledb.DB, name string) []string {
	t.Helper()
	var out []string
	if err := db.ScanView(name, func(r chronicledb.Row) bool {
		out = append(out, fmt.Sprint(r))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSharedTableEqualsTwins: random multi-row calls go to one database
// whose views share tables and to one database per view, where each view
// has a table of its own (its twin). After every round each view equals its
// twin, and each view of the retained chronicle equals its expression
// recomputed over the whole chronicle. On the way, a view made after the
// table has groups gets a table of its own — with retained history to fold,
// and without (pings keeps none, so a shared table would show it groups of
// rows it never saw) — and a member is dropped and re-made.
func TestSharedTableEqualsTwins(t *testing.T) {
	open := func() *chronicledb.DB {
		db, err := chronicledb.Open(chronicledb.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		for _, s := range tableDDL {
			mustExec(t, db, s)
		}
		return db
	}
	create := func(db *chronicledb.DB, name, sel string) {
		t.Helper()
		mustExec(t, db, fmt.Sprintf("CREATE VIEW %s AS %s", name, sel))
	}
	fused := open()
	twins := map[string]*chronicledb.DB{}
	for _, members := range []map[string]string{tableMembers, pingMembers, lateMembers} {
		for _, name := range slices.Sorted(maps.Keys(members)) {
			twins[name] = open()
			if _, late := lateMembers[name]; !late {
				create(fused, name, members[name])
				create(twins[name], name, members[name])
			}
		}
	}

	shares := func(name string, want ...string) {
		t.Helper()
		v, _ := fused.View(name)
		if got := v.TableViews(); !slices.Equal(slices.Sorted(slices.Values(got)), want) {
			t.Errorf("%s shares its table with %v, want %v", name, got, want)
		}
	}
	callsTable := slices.Sorted(maps.Keys(tableMembers))
	pingsTable := slices.Sorted(maps.Keys(pingMembers))
	for _, n := range callsTable {
		shares(n, callsTable...)
	}
	for _, n := range pingsTable {
		shares(n, pingsTable...)
	}

	rng := rand.New(rand.NewSource(42))
	plans := []string{"basic", "gold", "", "pro", "zeta"}
	call := func() []value.Tuple {
		rows := make([]value.Tuple, 1+rng.Intn(40))
		for i := range rows {
			acct := value.Str(fmt.Sprintf("a%02d", rng.Intn(25)))
			if rng.Intn(20) == 0 {
				acct = value.Str("x") // σ drops it
			}
			minutes, cost, plan := value.Int(int64(rng.Intn(200)-20)), value.Float(float64(rng.Intn(1000))/8), value.Str(plans[rng.Intn(len(plans))])
			switch rng.Intn(6) {
			case 0:
				minutes = value.Null()
			case 1:
				cost = value.Null()
			case 2:
				plan = value.Null()
			}
			rows[i] = value.Tuple{acct, minutes, cost, plan}
		}
		return rows
	}
	ping := func() []value.Tuple {
		rows := make([]value.Tuple, 1+rng.Intn(20))
		for i := range rows {
			rows[i] = value.Tuple{value.Str(fmt.Sprintf("p%d", rng.Intn(12))), value.Int(int64(rng.Intn(50)))}
		}
		return rows
	}
	dbs := func() []*chronicledb.DB {
		all := []*chronicledb.DB{fused}
		for _, n := range slices.Sorted(maps.Keys(twins)) {
			all = append(all, twins[n])
		}
		return all
	}
	appendAll := func(chron string, rows []value.Tuple, oneTxn bool) {
		t.Helper()
		for _, db := range dbs() {
			var err error
			if oneTxn {
				_, err = db.Append(chron, rows...)
			} else {
				_, _, err = db.AppendRows(chron, rows)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(round int) {
		t.Helper()
		for _, name := range slices.Sorted(maps.Keys(twins)) {
			if _, ok := fused.View(name); !ok {
				continue
			}
			got, want := sortedRows(t, fused, name), sortedRows(t, twins[name], name)
			if !slices.Equal(got, want) {
				t.Fatalf("round %d: %s sharing a table\n%s\nalone\n%s", round, name, strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
			if _, isPing := pingMembers[name]; isPing || name == "p_late" {
				continue
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

	for round := range 60 {
		appendAll("calls", call(), rng.Intn(3) == 0)
		if rng.Intn(2) == 0 {
			appendAll("pings", ping(), false)
		}
		switch round {
		case 10: // late members: the tables hold groups now
			for _, name := range slices.Sorted(maps.Keys(lateMembers)) {
				create(fused, name, lateMembers[name])
				create(twins[name], name, lateMembers[name])
				shares(name, name)
			}
		case 20: // a member goes, and comes back with a table of its own
			mustExec(t, fused, "DROP VIEW again")
			mustExec(t, twins["again"], "DROP VIEW again")
			shares("sums", slices.DeleteFunc(slices.Clone(callsTable), func(n string) bool { return n == "again" })...)
		case 30:
			create(fused, "again", tableMembers["again"])
			create(twins["again"], "again", tableMembers["again"])
			shares("again", "again")
		}
		check(round)
	}

	// Observability: SHOW VIEWS counts the views sharing each view's
	// groups, and EXPLAIN VIEW names them.
	res := familyQuery(t, fused, "SHOW VIEWS")
	col := slices.Index(res.Columns, "table_views")
	for _, r := range res.Rows {
		name, n := r[0].AsString(), r[col].AsInt()
		want := int64(1)
		switch {
		case slices.Contains(callsTable, name) && name != "again":
			want = int64(len(callsTable) - 1)
		case slices.Contains(pingsTable, name):
			want = int64(len(pingsTable))
		}
		if n != want {
			t.Errorf("SHOW VIEWS: %s table_views %d, want %d", name, n, want)
		}
	}
	for name, want := range map[string]string{
		"p_sum":  "shared with p_keys, p_n",
		"late":   "own table",
		"again":  "own table",
		"p_keys": "shared with p_n, p_sum",
	} {
		if got := explainProperty(t, fused, name, "groups"); got != want {
			t.Errorf("EXPLAIN VIEW %s: groups %q, want %q", name, got, want)
		}
	}
}

// explainProperty returns one property of EXPLAIN VIEW name.
func explainProperty(t *testing.T, db *chronicledb.DB, name, prop string) string {
	t.Helper()
	for _, r := range familyQuery(t, db, "EXPLAIN VIEW "+name).Rows {
		if r[0].AsString() == prop {
			return r[1].AsString()
		}
	}
	t.Fatalf("EXPLAIN VIEW %s has no %s", name, prop)
	return ""
}

// TestSharedTableReadersLockFree: readers look up, scan and take the latest
// rows of every view of a shared table while a writer appends calls that
// every view folds and drops one of the views halfway. Call c appends one
// row of minutes = c for each account it has reached, a new one each call,
// so every row a reader sees is whole only if its states agree — account
// aNNN has folded c - NNN rows summing to the last c - NNN call numbers —
// and a scan or latest-N read is of one publication only if all its rows
// stand at the same call. Run under the race detector (make bench-maint), it
// also checks that the views' lock-free readers and the table's one writer
// share no unsynchronized memory.
func TestSharedTableReadersLockFree(t *testing.T) {
	db, err := chronicledb.Open(chronicledb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, `CREATE CHRONICLE calls (acct STRING, minutes INT)`)
	members := []string{"m_sum", "m_max", "m_last", "m_keys"}
	for name, sel := range map[string]string{
		"m_sum":  `SELECT acct, SUM(minutes) AS total, COUNT(*) AS n, MAX(minutes) AS top FROM calls GROUP BY acct`,
		"m_max":  `SELECT acct, MAX(minutes) AS top FROM calls GROUP BY acct`,
		"m_last": `SELECT acct, LAST(minutes) AS last, COUNT(*) AS n FROM calls GROUP BY acct`,
		"m_keys": `SELECT DISTINCT acct FROM calls`,
	} {
		mustExec(t, db, fmt.Sprintf("CREATE VIEW %s AS %s", name, sel))
	}
	if v, _ := db.View("m_sum"); len(v.TableViews()) != len(members) {
		t.Fatalf("m_sum shares its table with %v, want all of %v", v.TableViews(), members)
	}

	const calls, accounts, dropAt = 240, 120, 120
	var dropped atomic.Bool
	// whole checks one row of a view and returns the call it stands at (0
	// for a DISTINCT row, which has no states).
	whole := func(name string, r chronicledb.Row) (int64, error) {
		var a int64
		if _, err := fmt.Sscanf(r[0].AsString(), "a%03d", &a); err != nil {
			return 0, err
		}
		switch name {
		case "m_sum":
			total, n, top := r[1].AsInt(), r[2].AsInt(), r[3].AsInt()
			if n != top-a || total != n*(2*top-n+1)/2 {
				return 0, fmt.Errorf("torn %s row %v", name, r)
			}
			return top, nil
		case "m_last":
			if last, n := r[1].AsInt(), r[2].AsInt(); n != last-a {
				return 0, fmt.Errorf("torn %s row %v", name, r)
			}
			return r[1].AsInt(), nil
		case "m_max":
			return r[1].AsInt(), nil
		}
		return 0, nil
	}
	// onePublication checks a read's rows and that they stand at one call.
	onePublication := func(name string, rows []chronicledb.Row) error {
		at := int64(-1)
		for _, r := range rows {
			c, err := whole(name, r)
			if err != nil {
				return err
			}
			if at >= 0 && c != at {
				return fmt.Errorf("%s read mixes calls %d and %d", name, at, c)
			}
			at = c
		}
		return nil
	}

	var wg sync.WaitGroup
	var done atomic.Bool
	var reads atomic.Int64
	errs := make(chan error, 8)
	for r := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for !done.Load() {
				for _, name := range members {
					if name == "m_last" && dropped.Load() {
						continue
					}
					key := value.Str(fmt.Sprintf("a%03d", rng.Intn(accounts)))
					row, ok, err := db.Lookup(name, key)
					if err == nil && ok {
						_, err = whole(name, row)
					}
					var all []chronicledb.Row
					if err == nil {
						err = db.ScanView(name, func(r chronicledb.Row) bool {
							all = append(all, r)
							return true
						})
					}
					if err == nil {
						err = onePublication(name, all)
					}
					if err == nil {
						var latest []chronicledb.Row
						if latest, err = db.LatestViewRows(name, 3); err == nil {
							err = onePublication(name, latest)
						}
					}
					if err != nil && !(name == "m_last" && dropped.Load()) {
						errs <- err
						return
					}
					reads.Add(1)
				}
			}
		}()
	}
	for c := int64(1); c <= calls; c++ {
		rows := make([]value.Tuple, 0, accounts)
		for a := range min(c, accounts) {
			rows = append(rows, value.Tuple{value.Str(fmt.Sprintf("a%03d", a)), value.Int(c)})
		}
		if _, _, err := db.AppendRows("calls", rows); err != nil {
			t.Fatal(err)
		}
		if c == dropAt {
			dropped.Store(true)
			mustExec(t, db, "DROP VIEW m_last")
		}
	}
	done.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if reads.Load() == 0 {
		t.Error("no read completed")
	}
	// The writer is done: every view left stands at the last call.
	for _, name := range []string{"m_sum", "m_max"} {
		row, ok, err := db.Lookup(name, value.Str("a000"))
		if err != nil || !ok || row[len(row)-1].AsInt() != calls {
			t.Errorf("%s a000 = %v %v %v, want standing at call %d", name, row, ok, err, calls)
		}
	}
}
