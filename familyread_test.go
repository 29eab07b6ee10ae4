package chronicledb_test

import (
	"errors"
	"fmt"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"chronicledb"
	"chronicledb/internal/calendar"
	"chronicledb/internal/server"
)

// familyInstance is one live instance of a periodic family as SQL reads it.
type familyInstance struct {
	Interval calendar.Interval
	Rows     []chronicledb.Row
}

// familySQL reads every live instance of a periodic family through SQL:
// EXPLAIN VIEW lists the live intervals, and SELECT … FOR INTERVAL reads each
// of them.
func familySQL(t testing.TB, db *chronicledb.DB, name string) []familyInstance {
	t.Helper()
	res, err := db.Exec("EXPLAIN VIEW " + name)
	if err != nil {
		t.Fatalf("EXPLAIN VIEW %s: %v", name, err)
	}
	var out []familyInstance
	for _, r := range res.Rows {
		if r[0].AsString() != "interval" {
			continue
		}
		var iv calendar.Interval
		if _, err := fmt.Sscanf(r[1].AsString(), "[%d,%d)", &iv.Start, &iv.End); err != nil {
			t.Fatalf("EXPLAIN VIEW %s: interval %q: %v", name, r[1].AsString(), err)
		}
		out = append(out, familyInstance{iv, queryRows(t, db, fmt.Sprintf("SELECT * FROM %s FOR INTERVAL %d", name, iv.Start))})
	}
	return out
}

// queryRows runs one SELECT and returns its rows.
func queryRows(t testing.TB, db *chronicledb.DB, stmt string) []chronicledb.Row {
	t.Helper()
	res, err := db.Exec(stmt)
	if err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
	return res.Rows
}

// familyReadDDL is the family matrix of the read tests: a tumbling family,
// one whose windows overlap three deep, one that expires its instances, and
// two that fold one expression by one key on one calendar, so that their
// instances share one table (a cohort).
var familyReadDDL = []string{
	`CREATE CHRONICLE calls (acct STRING, minutes INT)`,
	`CREATE PERIODIC VIEW tumbling AS SELECT acct, SUM(minutes) AS total, COUNT(*) AS n FROM calls GROUP BY acct EVERY 10`,
	`CREATE PERIODIC VIEW overlapping AS SELECT acct, SUM(minutes) AS total FROM calls GROUP BY acct EVERY 10 WIDTH 30`,
	`CREATE PERIODIC VIEW expiring AS SELECT acct, MAX(minutes) AS top FROM calls GROUP BY acct EVERY 10 EXPIRE 15`,
	`CREATE PERIODIC VIEW shared_sum AS SELECT acct, SUM(minutes) AS total FROM calls WHERE minutes > 2 GROUP BY acct EVERY 20`,
	`CREATE PERIODIC VIEW shared_n AS SELECT acct, COUNT(*) AS n FROM calls WHERE minutes > 2 GROUP BY acct EVERY 20`,
}

var familyReadNames = []string{"tumbling", "overlapping", "expiring", "shared_sum", "shared_n"}

// checkFamilyReads holds every family's SQL reads to its kernel instances:
// for every live interval, SELECT … FOR INTERVAL its start returns At's rows,
// and so do a point query and an ordered limit walk of it; the family's name
// alone reads the instance with the latest start; POST /exec returns what
// Exec does; and a start that names no live instance — expired, unborn, or
// no interval's start — is ErrNoInstance, naming the family and the start.
// expired maps a family to the start of an instance it has expired.
func checkFamilyReads(t *testing.T, what string, db *chronicledb.DB, expired map[string]int64) {
	t.Helper()
	ts := httptest.NewServer(server.New(db))
	defer ts.Close()
	client := server.NewClient(ts.URL)
	for _, name := range familyReadNames {
		pv, ok := chronicledb.Kernel(db).PeriodicView(name)
		if !ok {
			t.Fatalf("%s: no family %s", what, name)
		}
		insts := pv.Instances()
		if len(insts) < 2 {
			t.Fatalf("%s: %s has %d live instances, want several", what, name, len(insts))
		}
		got := familySQL(t, db, name)
		if len(got) != len(insts) {
			t.Fatalf("%s: EXPLAIN VIEW %s lists %d intervals, the family has %d live", what, name, len(got), len(insts))
		}
		for i, inst := range insts {
			at, ok := pv.At(inst.Interval)
			if !ok || at != inst.View {
				t.Fatalf("%s: %s.At(%s) = %v, %v", what, name, inst.Interval, at, ok)
			}
			want := at.Rows()
			if len(want) == 0 {
				t.Fatalf("%s: %s%s holds no rows", what, name, inst.Interval)
			}
			if got[i].Interval != inst.Interval || fmt.Sprint(got[i].Rows) != fmt.Sprint(want) {
				t.Errorf("%s: SELECT * FROM %s FOR INTERVAL %d = %v %v, At(%s) = %v",
					what, name, inst.Interval.Start, got[i].Interval, got[i].Rows, inst.Interval, want)
			}
			key := want[len(want)/2]
			point := queryRows(t, db, fmt.Sprintf("SELECT * FROM %s FOR INTERVAL %d WHERE acct = '%s'", name, inst.Interval.Start, key[0].AsString()))
			if fmt.Sprint(point) != fmt.Sprint([]chronicledb.Row{key}) {
				t.Errorf("%s: point read of %s%s = %v, want %v", what, name, inst.Interval, point, key)
			}
			top := queryRows(t, db, fmt.Sprintf("SELECT * FROM %s FOR INTERVAL %d ORDER BY acct DESC LIMIT 2", name, inst.Interval.Start))
			wantTop := slices.Clone(want[max(0, len(want)-2):])
			slices.Reverse(wantTop)
			if fmt.Sprint(top) != fmt.Sprint(wantTop) {
				t.Errorf("%s: latest-2 of %s%s = %v, want %v", what, name, inst.Interval, top, wantTop)
			}
		}
		latest := insts[len(insts)-1]
		stmt := "SELECT * FROM " + name
		rows := queryRows(t, db, stmt)
		if fmt.Sprint(rows) != fmt.Sprint(latest.View.Rows()) {
			t.Errorf("%s: %s = %v, the latest instance %s holds %v", what, stmt, rows, latest.Interval, latest.View.Rows())
		}
		for _, stmt := range []string{stmt, fmt.Sprintf("%s FOR INTERVAL %d", stmt, insts[0].Interval.Start)} {
			res, err := client.Exec(stmt)
			if err != nil {
				t.Fatalf("%s: POST /exec %s: %v", what, stmt, err)
			}
			local := queryRows(t, db, stmt)
			if len(res.Rows) != len(local) {
				t.Fatalf("%s: POST /exec %s returned %d rows, Exec %d", what, stmt, len(res.Rows), len(local))
			}
			for i, r := range res.Rows {
				for j, cell := range r {
					if fmt.Sprint(cell) != local[i][j].String() {
						t.Errorf("%s: POST /exec %s row %d = %v, Exec %v", what, stmt, i, r, local[i])
						break
					}
				}
			}
		}

		last := insts[len(insts)-1].Interval
		bad := map[string]int64{
			"unborn":      last.Start + 1000,
			"not a start": last.Start + 1,
			"before any":  -10,
		}
		if start, ok := expired[name]; ok {
			bad["expired"] = start
		}
		for kind, start := range bad {
			stmt := fmt.Sprintf("SELECT * FROM %s FOR INTERVAL %d", name, start)
			_, err := db.Exec(stmt)
			if !errors.Is(err, chronicledb.ErrNoInstance) {
				t.Errorf("%s: %s (%s) = %v, want ErrNoInstance", what, stmt, kind, err)
				continue
			}
			if msg := err.Error(); !strings.Contains(msg, name) || !strings.Contains(msg, fmt.Sprint(start)) {
				t.Errorf("%s: %s: error %q names neither the family nor the start", what, stmt, msg)
			}
			if _, err := db.Exec("EXPLAIN " + stmt); !errors.Is(err, chronicledb.ErrNoInstance) {
				t.Errorf("%s: EXPLAIN %s = %v, want ErrNoInstance", what, stmt, err)
			}
		}
	}
}

// TestFamilySQLEqualsInstances: every live instance of every family of the
// matrix reads the same through SQL as through the kernel, before and after
// a reopen (over a checkpoint and a WAL tail), at one shard and at two.
func TestFamilySQLEqualsInstances(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			var now atomic.Int64
			opts := chronicledb.Options{Dir: t.TempDir(), Shards: shards, Clock: now.Load}
			db, err := chronicledb.Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, stmt := range familyReadDDL {
				if _, err := db.Exec(stmt); err != nil {
					t.Fatal(err)
				}
			}
			// 16-row calls, two a chronon step of 3, over 24 accounts: the
			// tumbling and overlapping families keep every instance, the
			// expiring one keeps its last two.
			call := 0
			appendCalls := func(n int) {
				for ; n > 0; n-- {
					now.Store(int64(3 * (call / 2)))
					rows := make([]chronicledb.Tuple, 16)
					for i := range rows {
						rows[i] = chronicledb.Tuple{chronicledb.Str(fmt.Sprintf("a%02d", (call*7+i*5)%24)), chronicledb.Int(int64(1 + (call+i)%6))}
					}
					if _, _, err := db.AppendRows("calls", rows); err != nil {
						t.Fatal(err)
					}
					call++
				}
			}
			appendCalls(30)
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			appendCalls(10)
			expired := map[string]int64{"expiring": 0}
			if _, err := db.Exec("SELECT * FROM expiring FOR INTERVAL 0"); !errors.Is(err, chronicledb.ErrNoInstance) {
				t.Fatalf("expiring's first instance is still live at chronon %d: %v", now.Load(), err)
			}
			checkFamilyReads(t, "live", db, expired)
			if got := shares(t, db, "shared_sum"); got != "shared with shared_n" {
				t.Errorf("shared_sum's groups: %q, want shared with shared_n", got)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			if db, err = chronicledb.Open(opts); err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			checkFamilyReads(t, "reopened", db, expired)
			appendCalls(6)
			checkFamilyReads(t, "reopened and appended to", db, expired)
		})
	}
}

// shares reads the groups line of a family's EXPLAIN VIEW.
func shares(t *testing.T, db *chronicledb.DB, name string) string {
	t.Helper()
	for _, r := range queryRows(t, db, "EXPLAIN VIEW "+name) {
		if r[0].AsString() == "groups" {
			return r[1].AsString()
		}
	}
	return ""
}

// TestFamilyReadsWithoutInstances: a family with no live instance reads as
// empty, with its columns, and every start is ErrNoInstance; a SELECT over a
// view, relation or chronicle cannot name an interval.
func TestFamilyReadsWithoutInstances(t *testing.T) {
	db, err := chronicledb.Open(chronicledb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, stmt := range []string{
		`CREATE CHRONICLE calls (acct STRING, minutes INT)`,
		`CREATE RELATION rates (acct STRING, rate INT, KEY(acct))`,
		`CREATE VIEW usage AS SELECT acct, SUM(minutes) AS total FROM calls GROUP BY acct`,
		`CREATE PERIODIC VIEW mw AS SELECT acct, SUM(minutes) AS total FROM calls GROUP BY acct EVERY 10 WIDTH 30`,
	} {
		if _, err := db.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	res, err := db.Exec(`SELECT * FROM mw WHERE acct = 'a' ORDER BY total DESC`)
	if err != nil || len(res.Rows) != 0 || !slices.Equal(res.Columns, []string{"acct", "total"}) {
		t.Errorf("SELECT from a family with no instance = %v %v, %v", res.Columns, res.Rows, err)
	}
	if _, err := db.Exec(`SELECT * FROM mw FOR INTERVAL 0`); !errors.Is(err, chronicledb.ErrNoInstance) {
		t.Errorf("FOR INTERVAL 0 before any row = %v, want ErrNoInstance", err)
	}
	for _, name := range []string{"usage", "rates", "calls"} {
		if _, err := db.Exec("SELECT * FROM " + name + " FOR INTERVAL 0"); err == nil || !strings.Contains(err.Error(), "FOR INTERVAL") {
			t.Errorf("SELECT * FROM %s FOR INTERVAL 0 = %v, want an error about FOR INTERVAL", name, err)
		}
	}
}

// TestFamilyReadersDuringMaintenance races SQL reads of families — the
// latest instance, and instances named by start — against 16-row calls that
// bear and expire instances of a tumbling and an overlapping family. A read
// sees the instances of one whole call: every row it returns is an account's
// whole count of rows of one chronon step, each worth one minute. Run under
// -race: a read of the family's instances that is not the published list
// races the writer.
func TestFamilyReadersDuringMaintenance(t *testing.T) {
	var now atomic.Int64
	db, err := chronicledb.Open(chronicledb.Options{Shards: 2, Clock: now.Load})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, stmt := range []string{
		`CREATE CHRONICLE calls (acct STRING, minutes INT)`,
		`CREATE PERIODIC VIEW tumbling AS SELECT acct, SUM(minutes) AS total, COUNT(*) AS n FROM calls GROUP BY acct EVERY 4 EXPIRE 4`,
		`CREATE PERIODIC VIEW overlapping AS SELECT acct, SUM(minutes) AS total, COUNT(*) AS n FROM calls GROUP BY acct EVERY 4 WIDTH 12 EXPIRE 0`,
	} {
		if _, err := db.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	const calls, reads = 200, 400
	var done atomic.Bool
	var read atomic.Int64
	var readers sync.WaitGroup
	for r := range 4 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; !done.Load(); i++ {
				name := []string{"tumbling", "overlapping"}[(r+i)%2]
				stmt := "SELECT * FROM " + name
				switch i % 3 {
				case 1:
					stmt += fmt.Sprintf(" FOR INTERVAL %d", now.Load()/4*4-4*int64(i%4))
				case 2:
					stmt += " WHERE acct = 'a03'"
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
					if total, n := row[1].AsInt(), row[2].AsInt(); total != n || n%2 != 0 {
						t.Errorf("%s: row %v is not whole calls of one minute a row, two rows an account", stmt, row)
						return
					}
				}
			}
		}()
	}
	// The calls go on until the readers have read enough beside them.
	for c := 0; c < calls || read.Load() < reads && !t.Failed(); c++ {
		now.Store(int64(c / 2))
		rows := make([]chronicledb.Tuple, 16)
		for i := range rows {
			rows[i] = chronicledb.Tuple{chronicledb.Str(fmt.Sprintf("a%02d", i/2)), chronicledb.Int(1)}
		}
		if _, _, err := db.AppendRows("calls", rows); err != nil {
			t.Fatal(err)
		}
	}
	done.Store(true)
	readers.Wait()
	for _, name := range []string{"tumbling", "overlapping"} {
		pv, _ := chronicledb.Kernel(db).PeriodicView(name)
		if pv.Expired() == 0 || pv.Live() == 0 {
			t.Errorf("%s: %d live, %d expired: the calls bore and expired no instance", name, pv.Live(), pv.Expired())
		}
	}
}
