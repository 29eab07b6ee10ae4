// Maintenance fan-out benchmarks and guards for the shared-delta pipeline.
// The claim under test (E22): when V views share expression structure, the
// per-append maintenance cost of computing their deltas is the cost of the
// DISTINCT subexpressions, not Σ(per-view tree cost) — the shared plan
// computes each common prefix once per batch and fans the rows out. The
// alloc guard pins the second half of the claim: the shared-delta path adds
// zero steady-state allocations over the classic per-view apply.
// `make bench-maint` (wired into `make check`) runs both.
package chronicledb_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	chronicledb "chronicledb"
	"chronicledb/internal/dedup"
	"chronicledb/internal/engine"
	"chronicledb/internal/shard"
	"chronicledb/internal/view"
)

// fanoutDB builds an in-memory DB with V summary views over one chronicle.
// shape "shared" gives every view the identical σ prefix (one plan node
// serves all V); shape "duplicated" gives each view its own constant, so
// every view evaluates its own σ — same fold work per view (the probe
// tuple passes every filter), different delta-computation sharing.
func fanoutDB(tb testing.TB, shape string, V int) *chronicledb.DB {
	tb.Helper()
	return openFanout(tb, chronicledb.Options{}, `CREATE CHRONICLE calls (acct STRING, minutes INT)`, shape, V)
}

// openFanout is fanoutDB over the chronicle calls that ddl creates, opened
// with opts.
func openFanout(tb testing.TB, opts chronicledb.Options, ddl, shape string, V int) *chronicledb.DB {
	tb.Helper()
	db, err := chronicledb.Open(opts)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := db.Exec(ddl); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < V; i++ {
		where := "minutes >= 0"
		if shape == "duplicated" {
			where = fmt.Sprintf("minutes >= %d", i)
		}
		stmt := fmt.Sprintf(`CREATE VIEW v%d AS SELECT acct, SUM(minutes) AS m
			FROM calls WHERE %s GROUP BY acct`, i, where)
		if _, err := db.Exec(stmt); err != nil {
			tb.Fatal(err)
		}
	}
	return db
}

// fanoutViews returns the handles of fanoutDB's views v0..v(V-1).
func fanoutViews(tb testing.TB, db *chronicledb.DB, V int) []*view.View {
	tb.Helper()
	views := make([]*view.View, V)
	for i := range views {
		v, ok := db.View(fmt.Sprintf("v%d", i))
		if !ok {
			tb.Fatalf("view v%d missing", i)
		}
		views[i] = v
	}
	return views
}

// fanoutTuple passes every filter of both shapes (minutes = 1000 ≥ 255), so
// shared and duplicated runs fold identical rows into identical view states
// and differ only in delta computation.
var fanoutTuple = chronicledb.Tuple{chronicledb.Str("acct-fan"), chronicledb.Int(1000)}

func BenchmarkMaintainFanout(b *testing.B) {
	for _, shape := range []string{"shared", "duplicated"} {
		for _, V := range []int{1, 4, 16, 64, 256} {
			b.Run(fmt.Sprintf("%s/views=%d", shape, V), func(b *testing.B) {
				db := fanoutDB(b, shape, V)
				defer db.Close()
				for i := 0; i < 50; i++ { // warm scratch, plan buffers, stores
					if _, err := db.Append("calls", fanoutTuple); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := db.Append("calls", fanoutTuple); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				st := db.Stats()
				b.ReportMetric(float64(st.MaintenanceNs)/float64(st.Appends), "maint-ns/append")
				b.ReportMetric(float64(st.SharedHits)/float64(st.Appends), "shared-hits/append")
			})
		}
	}
	b.Run("call64/groups=20000", benchCall64)
	b.Run("load1000", benchLoad1000)
}

// BenchmarkFamilyOverlap is E55: 16-row calls over 500 accounts into one
// SUM family of windows EVERY 10 WIDTH 10·r, one chronon a call, at r
// windows a chronon. A row folds once, into its span's pane, whatever r is,
// and a window's close costs nothing: open or closed, it reads through its
// panes. What still grows with r is a window's birth and the panes a read
// merges; live-panes reports the panes the instances read through when the
// run ends. A family that keeps its windows (r) keeps its panes with them; one
// whose windows expire as they close (expiring/r, EXPIRE 0) frees a pane
// with the last window reading it. Folding every row into every window that
// holds it would show as µs per call growing with r in both.
//
// closed-read/r reads the window [10, 10+10·r) of a kept family after it
// has closed: a point SELECT … FOR INTERVAL of one account (point-µs) and
// the whole window (scan-µs), each a merge of up to r panes a key. In a
// window of r = 1, its own pane, neither merges.
func BenchmarkFamilyOverlap(b *testing.B) {
	const every = 10
	for _, expire := range []string{"", " EXPIRE 0"} {
		for _, r := range []int{1, 2, 8, 30} {
			name := fmt.Sprint(r)
			if expire != "" {
				name = "expiring/" + name
			}
			b.Run(name, func(b *testing.B) {
				db, call := overlapDB(b, r, expire)
				for range every * (r + 2) { // past the first windows' close
					call()
				}
				b.ResetTimer()
				for range b.N {
					call()
				}
				b.StopTimer()
				b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "µs/call")
				pv, _ := chronicledb.Kernel(db).PeriodicView("w")
				panes := map[*view.View]bool{}
				for _, inst := range pv.Instances() {
					for _, p := range pv.PanesOf(inst.Interval) {
						panes[p] = true
					}
				}
				b.ReportMetric(float64(len(panes)), "live-panes")
			})
		}
	}
	for _, r := range []int{1, 2, 8, 30} {
		b.Run(fmt.Sprintf("closed-read/%d", r), func(b *testing.B) {
			db, call := overlapDB(b, r, "")
			for range every * (r + 2) { // past the close of [10, 10+10·r)
				call()
			}
			scan := `SELECT * FROM w FOR INTERVAL 10`
			res, err := db.Exec(scan)
			if err != nil || len(res.Rows) == 0 {
				b.Fatalf("%s: %v, %v", scan, res, err)
			}
			point := fmt.Sprintf(`SELECT * FROM w FOR INTERVAL 10 WHERE acct = '%s'`, res.Rows[0][0].AsString())
			var pointT, scanT time.Duration
			b.ResetTimer()
			for range b.N {
				start := time.Now()
				if _, err := db.Exec(point); err != nil {
					b.Fatal(err)
				}
				mid := time.Now()
				if _, err := db.Exec(scan); err != nil {
					b.Fatal(err)
				}
				pointT, scanT = pointT+mid.Sub(start), scanT+time.Since(mid)
			}
			b.StopTimer()
			b.ReportMetric(float64(pointT.Nanoseconds())/1e3/float64(b.N), "point-µs")
			b.ReportMetric(float64(scanT.Nanoseconds())/1e3/float64(b.N), "scan-µs")
		})
	}
}

// overlapDB is BenchmarkFamilyOverlap's database: the family w of windows
// EVERY 10 WIDTH 10·r with expire's clause, and call, which appends the next
// of 64 fixed 16-row calls over 500 accounts at the next chronon.
func overlapDB(b *testing.B, r int, expire string) (*chronicledb.DB, func()) {
	const every, keys = 10, 500
	var now atomic.Int64
	db, err := chronicledb.Open(chronicledb.Options{Clock: now.Load})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	for _, stmt := range []string{
		`CREATE CHRONICLE calls (acct STRING, minutes INT)`,
		fmt.Sprintf(`CREATE PERIODIC VIEW w AS SELECT acct, SUM(minutes) AS total FROM calls GROUP BY acct EVERY %d WIDTH %d%s`, every, every*r, expire),
	} {
		if _, err := db.Exec(stmt); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(int64(r)))
	calls := make([][]chronicledb.Tuple, 64)
	for i := range calls {
		calls[i] = make([]chronicledb.Tuple, 16)
		for j := range calls[i] {
			calls[i][j] = chronicledb.Tuple{chronicledb.Str(fmt.Sprintf("acct%03d", rng.Intn(keys))), chronicledb.Int(int64(1 + rng.Intn(60)))}
		}
	}
	n := 0
	return db, func() {
		now.Store(int64(n))
		if _, _, err := db.AppendRows("calls", calls[n%len(calls)]); err != nil {
			b.Fatal(err)
		}
		n++
	}
}

// BenchmarkCreateView is E53: the paper's §5.2 catalog of one view per
// customer, CREATE VIEW vN AS … WHERE acct = 'aN' GROUP BY acct, made n
// times in a durable database, which is then closed and reopened. It reports
// the µs per view of the creates and of the reopen, which replays them;
// families=n makes n such CREATE PERIODIC VIEWs instead. A DDL statement
// that cost the catalog, not its own view, would show here as a per-view
// cost that doubles with n.
func BenchmarkCreateView(b *testing.B) {
	view := func(i int) string {
		return fmt.Sprintf(`CREATE VIEW v%d AS SELECT acct, SUM(minutes) AS m FROM calls WHERE acct = 'a%d' GROUP BY acct`, i, i)
	}
	family := func(i int) string {
		return fmt.Sprintf(`CREATE PERIODIC VIEW f%d AS SELECT acct, SUM(minutes) AS m FROM calls WHERE acct = 'a%d' GROUP BY acct EVERY 1000 WIDTH 1000`, i, i)
	}
	run := func(b *testing.B, n int, stmt func(int) string) {
		var create, reopen time.Duration
		for range b.N {
			dir := b.TempDir()
			db, err := chronicledb.Open(chronicledb.Options{Dir: dir})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := db.Exec(`CREATE CHRONICLE calls (acct STRING, minutes INT)`); err != nil {
				b.Fatal(err)
			}
			start := time.Now()
			for i := range n {
				if _, err := db.Exec(stmt(i)); err != nil {
					b.Fatal(err)
				}
			}
			create += time.Since(start)
			if err := db.Close(); err != nil {
				b.Fatal(err)
			}
			start = time.Now()
			if db, err = chronicledb.Open(chronicledb.Options{Dir: dir}); err != nil {
				b.Fatal(err)
			}
			reopen += time.Since(start)
			db.Close()
		}
		per := func(d time.Duration) float64 { return float64(d.Microseconds()) / float64(b.N*n) }
		b.ReportMetric(per(create), "create-us/view")
		b.ReportMetric(per(reopen), "reopen-us/view")
	}
	for _, n := range []int{500, 1000, 2000, 4000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) { run(b, n, view) })
	}
	for _, n := range []int{250, 500, 1000} {
		b.Run(fmt.Sprintf("families=%d", n), func(b *testing.B) { run(b, n, family) })
	}
}

// benchLoad1000 is the shape of the benchmark suite's set-up: 1 000-row
// AppendRows calls, every row a group no view holds yet, into the 64-view
// fan-out and maintain-fanout's four moving windows (loadDB) — 20 calls into
// an empty database, then over again. One iteration is one call, so ns/op ÷
// 1000 is the load cost per row across 64 views and the windows' one pane,
// which their open instances read through.
func benchLoad1000(b *testing.B) {
	const callK, callsPerDB = 1000, 20
	calls := make([][]chronicledb.Tuple, callsPerDB)
	for i := range calls {
		calls[i] = make([]chronicledb.Tuple, callK)
		for j := range calls[i] {
			calls[i][j] = chronicledb.Tuple{chronicledb.Str(fmt.Sprintf("acct%05d", i*callK+j)), chronicledb.Int(1000), chronicledb.Float(0.5)}
		}
	}
	var db *chronicledb.DB
	defer func() { db.Close(); loadHeld = db }()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%callsPerDB == 0 {
			b.StopTimer()
			if db != nil {
				db.Close()
			}
			db = loadDB(b)
			b.StartTimer()
		}
		if _, _, err := db.AppendRows("calls", calls[i%callsPerDB]); err != nil {
			b.Fatal(err)
		}
	}
}

// loadDB is benchLoad1000's database: fanoutDB's 64 views of one σ, over a
// chronicle that carries maintain-fanout's cost column too, and
// maintain-fanout's four moving windows (benchmark/catalog.go: SUM(minutes),
// SUM(cost), COUNT(*) and the three together, EVERY 400 000 WIDTH 800 000).
// As in the suite's in-process workload, the clock ticks once a row from a
// full window in, so each row lies in two instances of every window — and,
// every row being in one span, folds into one pane the four share.
func loadDB(tb testing.TB) *chronicledb.DB {
	tb.Helper()
	const every, width = 400_000, 800_000
	tick := int64(width)
	db := openFanout(tb, chronicledb.Options{Clock: func() int64 { tick++; return tick }},
		`CREATE CHRONICLE calls (acct STRING, minutes INT, cost FLOAT)`, "shared", 64)
	for _, w := range [][2]string{
		{"w_min", "SUM(minutes) AS v_min"}, {"w_cost", "SUM(cost) AS v_cost"}, {"w_n", "COUNT(*) AS v_n"},
		{"w_all", "SUM(minutes) AS v_min, SUM(cost) AS v_cost, COUNT(*) AS v_n"},
	} {
		stmt := fmt.Sprintf(`CREATE PERIODIC VIEW %s AS SELECT acct, %s FROM calls GROUP BY acct EVERY %d WIDTH %d`, w[0], w[1], every, width)
		if _, err := db.Exec(stmt); err != nil {
			tb.Fatal(err)
		}
	}
	return db
}

// loadHeld keeps benchLoad1000's last database reachable once the benchmark
// returns: a -test.memprofile is written after the benchmarks end, and its
// in-use sample then shows what the loaded views hold (make prof-load
// prints it).
var loadHeld *chronicledb.DB

// benchCall64 is one 64-row AppendRows call against a 20 000-group view
// created WITH STORE BTREE, every row a different existing group. Its B/op
// is the line to watch: a call versions each of its groups once, from the
// entry versions the calls before replaced, and orders no key — every one is
// in the directory already — so warm it allocates nothing
// (TestTreeCallBytesGuard). When the view kept its own copy-on-write B-tree,
// a publication per row path-copied the root and every interior node 64
// times over (≈24 KB a row).
func benchCall64(b *testing.B) {
	db, calls := call64DB(b)
	defer db.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := db.AppendRows("calls", calls[i%len(calls)]); err != nil {
			b.Fatal(err)
		}
	}
}

// call64DB is benchCall64's database — one view of 20 000 groups, created
// WITH STORE BTREE and loaded — and 64 calls of 64 rows that stride through
// the groups, so the rows of a call spread over the key order.
func call64DB(tb testing.TB) (*chronicledb.DB, [][]chronicledb.Tuple) {
	tb.Helper()
	const groups, callK = 20000, 64
	db, err := chronicledb.Open(chronicledb.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	for _, stmt := range []string{
		`CREATE CHRONICLE calls (acct STRING, minutes INT)`,
		`CREATE VIEW usage AS SELECT acct, SUM(minutes) AS m FROM calls GROUP BY acct WITH STORE BTREE`,
	} {
		if _, err := db.Exec(stmt); err != nil {
			tb.Fatal(err)
		}
	}
	tuples := make([]chronicledb.Tuple, groups)
	for i := range tuples {
		tuples[i] = chronicledb.Tuple{chronicledb.Str(fmt.Sprintf("acct%05d", i)), chronicledb.Int(1)}
	}
	if _, _, err := db.AppendRows("calls", tuples); err != nil {
		tb.Fatal(err)
	}
	calls := make([][]chronicledb.Tuple, 64)
	for i := range calls {
		calls[i] = make([]chronicledb.Tuple, callK)
		for j := range calls[i] {
			calls[i][j] = tuples[(i*callK+j)*311%groups]
		}
	}
	return db, calls
}

// TestTreeCallBytesGuard pins what a warm 64-row call into a 20 000-group
// ordered view — created WITH STORE BTREE, a member of its key directory
// like any view — allocates: at most 512 B and 2 objects. The call copies
// each group's entry, but a publication that finds no reader recycles the
// versions the call before replaced, so the copies are filled from the
// view's free shells, and an existing key costs the directory's order
// nothing. The view's own copy-on-write B-tree, with its nodes recycled the
// same way, read 151 B in 2 objects here; dropping the replaced nodes and
// versions to the collector instead showed 112 855 B and 316 objects a call.
func TestTreeCallBytesGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const maxBytes, maxAllocs = 512, 2
	db, calls := call64DB(t)
	defer db.Close()
	n := 0
	call := func() {
		if _, _, err := db.AppendRows("calls", calls[n%len(calls)]); err != nil {
			t.Fatal(err)
		}
		n++
	}
	for i := 0; i < 2*len(calls); i++ {
		call()
	}
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		call()
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	allocs := testing.AllocsPerRun(runs, call)
	t.Logf("warm 64-row call into a 20 000-group ordered view: %.0f B, %.1f allocs (budget %d B, %d)", bytes, allocs, maxBytes, maxAllocs)
	if bytes > maxBytes || allocs > maxAllocs {
		t.Errorf("a warm call allocates %.0f B in %.1f objects, budget %d B and %d", bytes, allocs, maxBytes, maxAllocs)
	}
}

// TestMaintPublishesOncePerCall is the structural guard of call-scoped
// publication: one AppendRows call of 64 rows into the 64-view fan-out
// publishes every view exactly once — and so does a multi-tuple Append, and a
// call that touches a view with only some of its rows. A per-row publication
// coming back shows here as 64.
func TestMaintPublishesOncePerCall(t *testing.T) {
	const V, callK = 64, 64
	db := fanoutDB(t, "duplicated", V) // view i keeps minutes >= i
	defer db.Close()
	views := fanoutViews(t, db, V)
	publishes := func() []int64 {
		out := make([]int64, V)
		for i, v := range views {
			out[i] = v.Stats().Publishes
		}
		return out
	}
	// Row j carries minutes = j: view i sees the rows with j >= i, so every
	// view is touched by at least one row and most by many.
	tuples := make([]chronicledb.Tuple, callK)
	for j := range tuples {
		tuples[j] = chronicledb.Tuple{chronicledb.Str(fmt.Sprintf("acct%d", j%8)), chronicledb.Int(int64(j))}
	}
	for _, tc := range []struct {
		name string
		call func() error
	}{
		{"AppendRows", func() error { _, _, err := db.AppendRows("calls", tuples); return err }},
		{"AppendRowsIdem", func() error { _, _, _, err := db.AppendRowsIdem("calls", tuples, "c", "r"); return err }},
		{"Append", func() error { _, err := db.Append("calls", tuples...); return err }},
	} {
		before := publishes()
		if err := tc.call(); err != nil {
			t.Fatal(err)
		}
		for i, after := range publishes() {
			if got := after - before[i]; got != 1 {
				t.Errorf("%s of %d rows: view v%d published %d times, want exactly 1", tc.name, callK, i, got)
			}
		}
	}
	// A call none of whose rows reach a view leaves it unpublished.
	before := publishes()
	if _, _, err := db.AppendRows("calls", tuples[:V/2]); err != nil {
		t.Fatal(err)
	}
	for i, after := range publishes() {
		want := int64(1)
		if i >= V/2 {
			want = 0 // minutes < V/2 < i: filtered out
		}
		if got := after - before[i]; got != want {
			t.Errorf("half call: view v%d published %d times, want %d", i, got, want)
		}
	}
}

// TestMaintFoldsOncePerCall is the structural guard of call-scoped folding:
// one AppendRows call of 64 rows into the 64-view fan-out is ONE maintenance
// round — each affected view is visited once (not once per row), folds once
// the rows that pass its σ, and publishes once; the rows are still 64 append
// transactions. A per-row round coming back shows here as ×64.
func TestMaintFoldsOncePerCall(t *testing.T) {
	const V, callK = 64, 64
	db := fanoutDB(t, "duplicated", V) // view i keeps minutes >= i
	defer db.Close()
	views := fanoutViews(t, db, V)
	stats := func() (engine.Stats, []view.Stats) {
		out := make([]view.Stats, V)
		for i, v := range views {
			out[i] = v.Stats()
		}
		return db.Stats(), out
	}
	// Row j carries minutes = j, so view i keeps the callK-i rows with j >= i.
	tuples := make([]chronicledb.Tuple, callK)
	for j := range tuples {
		tuples[j] = chronicledb.Tuple{chronicledb.Str(fmt.Sprintf("acct%d", j%8)), chronicledb.Int(int64(j))}
	}
	for _, tc := range []struct {
		name string
		rows int
		call func(rows []chronicledb.Tuple) error
	}{
		{"AppendRows", callK, func(rows []chronicledb.Tuple) error { _, _, err := db.AppendRows("calls", rows); return err }},
		{"AppendRowsIdem", callK, func(rows []chronicledb.Tuple) error {
			_, _, _, err := db.AppendRowsIdem("calls", rows, "c", "r")
			return err
		}},
		// The first half of the rows passes the σ of the first half of the
		// views only; the rest are dispatched (they depend on the chronicle)
		// and fold an empty delta, which leaves nothing to publish.
		{"half AppendRows", callK / 2, func(rows []chronicledb.Tuple) error { _, _, err := db.AppendRows("calls", rows); return err }},
	} {
		db0, v0 := stats()
		if err := tc.call(tuples[:tc.rows]); err != nil {
			t.Fatal(err)
		}
		db1, v1 := stats()
		if got := db1.ViewsMaintained - db0.ViewsMaintained; got != V {
			t.Errorf("%s: ViewsMaintained rose by %d, want %d (one per affected view per call)", tc.name, got, V)
		}
		if got := db1.Appends - db0.Appends; got != int64(tc.rows) {
			t.Errorf("%s: Appends rose by %d, want %d (a tuple is still its own transaction)", tc.name, got, tc.rows)
		}
		for i := range views {
			want := view.Stats{Applies: 1}
			if i < tc.rows {
				want = view.Stats{Applies: 1, DeltaRows: int64(tc.rows - i), Publishes: 1}
			}
			got := view.Stats{
				Applies:   v1[i].Applies - v0[i].Applies,
				DeltaRows: v1[i].DeltaRows - v0[i].DeltaRows,
				Publishes: v1[i].Publishes - v0[i].Publishes,
			}
			if got != want {
				t.Errorf("%s: view v%d folded %+v, want %+v", tc.name, i, got, want)
			}
		}
	}
}

// TestMaintAllocGuards pins the allocation behavior of the shared-delta
// fan-out: appending with 64 views sharing one σ prefix stays on the same
// fixed budget as the single-view append — sharing adds nothing — and the
// shared plan's hit counter proves the prefix was computed once per batch.
// TestLoadAllocGuard is the allocation ceiling for the load shape (the
// benchmark suite's set-up, benchLoad1000): one 1 000-row AppendRows of
// groups no view holds yet, into the 64-view fan-out, into a database that
// has taken nine such calls already. A new group is carved from its view's
// chunks and installed by its tag, so the call allocates a few objects per
// view — chunks, a table that doubles, the pending list — and the row copies
// of the chronicle, not five to seven objects per row per view (320 000
// before entries were carved).
func TestLoadAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const callK, budget = 1000, 32000
	db := fanoutDB(t, "shared", 64)
	defer db.Close()
	call := func(c int) []chronicledb.Tuple {
		rows := make([]chronicledb.Tuple, callK)
		for j := range rows {
			rows[j] = chronicledb.Tuple{chronicledb.Str(fmt.Sprintf("acct%05d", c*callK+j)), chronicledb.Int(1000)}
		}
		return rows
	}
	for c := 0; c < 9; c++ {
		if _, _, err := db.AppendRows("calls", call(c)); err != nil {
			t.Fatal(err)
		}
	}
	rows := call(9)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, _, err := db.AppendRows("calls", rows); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	allocs := after.Mallocs - before.Mallocs
	t.Logf("1 000 new groups into 64 views: %d objects allocated (%.2f a row a view)", allocs, float64(allocs)/callK/64)
	if allocs > budget {
		t.Errorf("the load call allocated %d objects, budget %d", allocs, budget)
	}
	if v, _ := db.View("v63"); v.Len() != 10*callK {
		t.Fatalf("v63 holds %d groups, want %d", v.Len(), 10*callK)
	}
}

// TestGroupBytesGuard pins what a group costs a view in memory, the way the
// alloc guards pin what a call costs in allocations: the live heap a view
// gains per new group, read after a collection, over 100 000 groups appended
// in 1 000-row calls. The chronicle retains nothing, so the growth is the
// view's — its shell of state words, key, and the directory's share: its
// table slot, the key's place in the key order, and the view's slot in its
// array of entries. A group is its key and its words; a second copy of the
// group values, or a state that repeats what its view's layout fixes, shows
// here. Views by one column of one chronicle share a key directory, whatever
// their σ, so five of them cost less per view-group than one: the key, its
// table slot and its place in the order are paid once — and a view created
// WITH STORE BTREE is one of
// them like any other, and so is a periodic family's every instance, which
// the family cases measure per instance-group. Made before the first group,
// they share one table too, so a group's count word, shell and entry slot
// are paid once as well; a view made later pays its own. So do families of
// one calendar: their instances of an interval born after they were made
// share its table, and a family made while an interval is live has a table
// of its own for it.
func TestGroupBytesGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are not meaningful under -race")
	}
	const groups, callK = 100_000, 1_000
	sigma := func(aggs ...string) []string {
		out := make([]string, len(aggs))
		for i, agg := range aggs {
			out[i] = fmt.Sprintf(`CREATE VIEW v%d AS SELECT acct, %s FROM calls WHERE minutes > 0 GROUP BY acct`, i, agg)
		}
		out[0] = strings.Replace(out[0], "v0", "v", 1)
		return out
	}
	five := sigma("SUM(minutes) AS a", "COUNT(*) AS a", "MAX(minutes) AS a", "MIN(minutes) AS a", "AVG(minutes) AS a")
	// maintain-fanout's shape: the first of a σ's summaries is read in key
	// order (created WITH STORE BTREE), the others by key.
	eight := sigma("SUM(minutes) AS m, COUNT(*) AS n, MAX(minutes) AS hi", "SUM(minutes) AS a", "COUNT(*) AS a",
		"MAX(minutes) AS a", "MIN(minutes) AS a", "AVG(minutes) AS a", "FIRST(minutes) AS a", "LAST(minutes) AS a")
	eight[0] += " WITH STORE BTREE"
	// maintain-fanout's four moving windows; the clock puts every row in the
	// windows [0,200) and [100,300), so each family keeps two live instances.
	var windows []string
	for i, agg := range []string{"SUM(minutes) AS m", "COUNT(*) AS n", "MAX(minutes) AS hi", "SUM(minutes) AS m, COUNT(*) AS n, MAX(minutes) AS hi"} {
		windows = append(windows, fmt.Sprintf(`CREATE PERIODIC VIEW w%d AS SELECT acct, %s FROM calls GROUP BY acct EVERY 100 WIDTH 200`, i, agg))
	}
	// Eight σ prefixes over one key, a view each, every row passing all
	// eight: the views share the key's directory, not a table.
	var prefixes []string
	for p := range 8 {
		prefixes = append(prefixes, fmt.Sprintf(`CREATE VIEW v%d AS SELECT acct, SUM(minutes) AS m FROM calls WHERE minutes > %d GROUP BY acct`, p, -p))
	}
	for _, tc := range []struct {
		name   string
		views  []string
		late   []string // created once the views' table holds a group
		loner  string   // the late view or family, whose groups are its own
		budget float64
		perKey bool // the budget is per key, for all the views: not per view-group
	}{
		// Each budget is the reading once a group became its words alone —
		// no entry head, the seen bits in the count word — plus at most 4 B.
		// The reading before that follows each case.
		{"hash-one-aggregate", []string{`CREATE VIEW v AS SELECT acct, SUM(minutes) AS m FROM calls GROUP BY acct`}, nil, "", 85, false}, // 97 B
		// 124 B when the view kept its own B-tree of key copies.
		{"btree-three-aggregates", []string{`CREATE VIEW v AS SELECT acct, SUM(minutes) AS m, COUNT(*) AS n, MAX(minutes) AS hi
			FROM calls GROUP BY acct WITH STORE BTREE`}, nil, "", 93, false}, // 105 B
		{"distinct", []string{`CREATE VIEW v AS SELECT DISTINCT acct FROM calls`}, nil, "", 77, false}, // 81 B
		// A string-held MIN keeps the row's string in a slot beside the words
		// (174 B when each state boxed it).
		{"hash-string-min", []string{`CREATE VIEW v AS SELECT acct, MIN(acct) AS lo FROM calls GROUP BY acct`}, nil, "", 109, false}, // 121 B
		// Bytes per view-group: one key directory holds the five views' keys
		// (90 B when each view kept its own table and key copies), and one
		// table their groups (37 and 34 B when each view kept a group of its
		// own: each budget is the shared table's reading plus at most 4 B).
		{"five-hash-views-one-sigma", five, nil, "", 27, false},          // 49 B
		{"eight-views-one-sigma-one-ordered", eight, nil, "", 20, false}, // 48 B
		// A view made after the table holds a group has a table of its own in
		// the directory it shares: the pair costs a lone view (81 B) plus the
		// late view's own shell and entry slot (17 B), 49 B per view-group.
		{"late-member-own-table", sigma("SUM(minutes) AS a"), sigma("", "COUNT(*) AS a")[1:], "v1", 53, false},
		// Bytes per instance-group (94 B when each instance kept a
		// directory of its own, 33 B when each kept a table of its own: the
		// budget is the reading once an interval's four instances share one
		// table, plus 4 B).
		{"four-window-families-two-instances", windows, nil, "", 19, false}, // 46 B, 33 B
		// The fourth family, made while both intervals are live, keeps a
		// table of its own for each; the other three share theirs. Two
		// tables an interval for eight instances: between the two cases.
		{"late-window-family-own-tables", windows[:3], windows[3:], "w3", 28, false},
		// Bytes per key for all eight (645 B when each σ kept a directory of
		// its own): one directory holds the key, its table slot and its place
		// in the order once, and each σ keeps a table of its own.
		{name: "eight-sigmas-one-key", views: prefixes, budget: 269, perKey: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, err := chronicledb.Open(chronicledb.Options{Clock: func() int64 { return 150 }})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			for _, stmt := range append([]string{`CREATE CHRONICLE calls (acct STRING, minutes INT)`}, tc.views...) {
				if _, err := db.Exec(stmt); err != nil {
					t.Fatal(err)
				}
			}
			if len(tc.late) > 0 {
				if _, err := db.Append("calls", chronicledb.Tuple{chronicledb.Str("acct000000"), chronicledb.Int(1)}); err != nil {
					t.Fatal(err)
				}
				for _, stmt := range tc.late {
					if _, err := db.Exec(stmt); err != nil {
						t.Fatal(err)
					}
				}
			}
			rows := make([]chronicledb.Tuple, callK)
			heap := func() uint64 {
				var m runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&m)
				return m.HeapAlloc
			}
			before := heap()
			for c := 0; c < groups/callK; c++ {
				for j := range rows {
					rows[j] = chronicledb.Tuple{chronicledb.Str(fmt.Sprintf("acct%06d", c*callK+j)), chronicledb.Int(1)}
				}
				if _, _, err := db.AppendRows("calls", rows); err != nil {
					t.Fatal(err)
				}
			}
			clear(rows)
			// A read in key order keeps nothing: the order is the directory's.
			if _, ok := db.View("v"); ok {
				if last, err := db.LatestViewRows("v", 3); err != nil || len(last) != 3 || last[0][0].AsString() != fmt.Sprintf("acct%06d", groups-1) {
					t.Fatalf("the latest groups: %v %v", last, err)
				}
			}
			var members []*view.View // the views, and the families' instances
			for _, n := range chronicledb.Kernel(db).Names(shard.Views) {
				v, _ := db.View(n)
				members = append(members, v)
			}
			for _, n := range chronicledb.Kernel(db).Names(shard.PeriodicViews) {
				pv, _ := chronicledb.Kernel(db).PeriodicView(n)
				for _, inst := range pv.Instances() {
					members = append(members, inst.View)
				}
			}
			perGroup := float64(int64(heap())-int64(before)) / groups
			if !tc.perKey {
				perGroup /= float64(len(members))
			}
			if tc.loner != "" {
				if shares := tableShares(db, tc.loner); len(shares) != 1 {
					t.Fatalf("the late %s shares a table with %v", tc.loner, shares)
				}
			}
			for _, v := range members {
				if v.Len() != groups {
					t.Fatalf("%s holds %d groups, want %d", v.Name(), v.Len(), groups)
				}
			}
			unit := "group"
			if tc.perKey {
				unit = "key"
			}
			t.Logf("%s: %.0f B/%s (budget %.0f)", tc.name, perGroup, unit, tc.budget)
			if perGroup > tc.budget {
				t.Errorf("%s: %.0f B/%s, budget %.0f — a group grew", tc.name, perGroup, unit, tc.budget)
			}
		})
	}
}

// tableShares names the views, or the families, whose groups name reads
// from one table with its own, name among them.
func tableShares(db *chronicledb.DB, name string) []string {
	if v, ok := db.View(name); ok {
		return v.TableViews()
	}
	pv, _ := chronicledb.Kernel(db).PeriodicView(name)
	return pv.TableFamilies()
}

func TestMaintAllocGuards(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	measure := func(V int) (allocs float64, db *chronicledb.DB) {
		db = fanoutDB(t, "shared", V)
		for i := 0; i < 200; i++ {
			if _, err := db.Append("calls", fanoutTuple); err != nil {
				t.Fatal(err)
			}
		}
		allocs = testing.AllocsPerRun(500, func() {
			if _, err := db.Append("calls", fanoutTuple); err != nil {
				t.Fatal(err)
			}
		})
		return allocs, db
	}

	one, db1 := measure(1)
	defer db1.Close()
	many, db64 := measure(64)
	defer db64.Close()
	t.Logf("allocs/append: 1 view = %.1f, 64 shared views = %.1f", one, many)
	// Same end-to-end budget as the engine-append guard: the fan-out path
	// must not allocate per view.
	if many > 2 {
		t.Errorf("64-view shared append: %.1f allocs/op, budget 2", many)
	}
	if many-one > 0.5 {
		t.Errorf("shared fan-out adds %.1f allocs/op over a single view, want 0", many-one)
	}

	// Shared-hit accounting: every batch evaluates the common σ prefix once
	// and serves the other 63 views (plus the scan leaf) from the cache, so
	// hits grow by ≥ V-1 per append.
	st := db64.Stats()
	if min := st.Appends * 63; st.SharedHits < min {
		t.Errorf("SharedHits = %d over %d appends, want ≥ %d", st.SharedHits, st.Appends, min)
	}
}

// liveHeap is the heap in use after a collection.
func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestRelationBytesGuard pins what a relation row costs in memory, as the
// group-bytes guard (TestGroupBytesGuard) pins a group: the live heap 100 000
// customers rows take, loaded once through UPSERT statements and once through a checkpoint
// restore. A row is one string in the relation's B-tree — its key, then its
// value-encoded tuple — so a per-row object graph coming back shows here.
// Both loads insert in key order, so the tree splits its right edge at its
// end and its leaves stay full: leaves split at their middle read about
// 100 B/row.
func TestRelationBytesGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are not meaningful under -race")
	}
	const rows, stmtK, budget = 100_000, 1_000, 80
	plans := []string{"basic", "gold", "family"}
	load := func(t *testing.T, db *chronicledb.DB) {
		var sb strings.Builder
		for lo := 0; lo < rows; lo += stmtK {
			sb.Reset()
			sb.WriteString("UPSERT INTO customers VALUES ")
			for a := lo; a < lo+stmtK; a++ {
				if a > lo {
					sb.WriteString(", ")
				}
				fmt.Fprintf(&sb, "('acct%06d', 's%d', '%s')", a, a%50, plans[a%len(plans)])
			}
			if _, err := db.Exec(sb.String()); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(t *testing.T, path string, db *chronicledb.DB, grew uint64) {
		t.Helper()
		if r, _ := db.Relation("customers"); r.Len() != rows {
			t.Fatalf("customers holds %d rows, want %d", r.Len(), rows)
		}
		perRow := float64(grew) / rows
		t.Logf("%s: %.0f B/row (budget %d)", path, perRow, budget)
		if perRow > budget {
			t.Errorf("%s: %.0f B/row, budget %d — a relation row grew", path, perRow, budget)
		}
	}
	const ddl = `CREATE RELATION customers (acct STRING, state STRING, plan STRING, KEY(acct))`
	t.Run("upsert", func(t *testing.T) {
		db, err := chronicledb.Open(chronicledb.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if _, err := db.Exec(ddl); err != nil {
			t.Fatal(err)
		}
		before := liveHeap()
		load(t, db)
		check(t, "upsert", db, liveHeap()-before)
	})
	t.Run("restore", func(t *testing.T) {
		dir := t.TempDir()
		db, err := chronicledb.Open(chronicledb.Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.Exec(ddl); err != nil {
			t.Fatal(err)
		}
		load(t, db)
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		db.Close()
		before := liveHeap()
		db, err = chronicledb.Open(chronicledb.Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		check(t, "restore", db, liveHeap()-before)
	})
}

// TestDedupBytesGuard pins what an idempotency entry costs: the live heap of
// a default table's entries, put with fresh id strings as JSON decoding
// hands them to the table. An entry is a 24-byte record, its key's bytes in
// the key ring and its share of the index; a key string per entry, a map
// slot, or the caller's id strings retained shows here. At 20 000 entries
// the table is part full; at 65 536 it is full and has evicted 30 000, and
// another 100 000 puts, each evicting the oldest, must not grow its heap.
// There the request ids are of one length, so the key bytes a full table
// holds stay put.
func TestDedupBytesGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are not meaningful under -race")
	}
	const budget = 64
	put := func(table *dedup.Table, ridFormat string, from, to int) {
		for i := from; i < to; i++ {
			cid := fmt.Sprintf("bench-client-%d", i%4)
			rid := fmt.Sprintf(ridFormat, i)
			table.Put(cid, rid, dedup.Ack{Chronicle: "calls", FirstSN: int64(16 * i), LastSN: int64(16*i + 15), Rows: 16})
		}
	}
	check := func(t *testing.T, what string, table *dedup.Table, entries int, grew uint64) {
		t.Helper()
		if table.Len() != entries {
			t.Fatalf("the table holds %d entries, want %d", table.Len(), entries)
		}
		perEntry := float64(grew) / float64(entries)
		t.Logf("%s: %.0f B/entry (budget %d)", what, perEntry, budget)
		if perEntry > budget {
			t.Errorf("%s: %.0f B/entry, budget %d — a dedup entry grew", what, perEntry, budget)
		}
	}
	t.Run("part-full", func(t *testing.T) {
		before := liveHeap()
		table := dedup.NewTable(0)
		put(table, "q%d", 0, 20_000)
		check(t, "20 000 entries", table, 20_000, liveHeap()-before)
	})
	t.Run("full", func(t *testing.T) {
		const churn, more = 30_000, 100_000
		before := liveHeap()
		table := dedup.NewTable(0)
		put(table, "q%06d", 0, dedup.DefaultCap+churn)
		full := liveHeap()
		check(t, "65 536 entries after 30 000 evictions", table, dedup.DefaultCap, full-before)
		put(table, "q%06d", dedup.DefaultCap+churn, dedup.DefaultCap+churn+more)
		after := liveHeap()
		t.Logf("100 000 more puts: live heap %+d B", int64(after)-int64(full))
		if after > full+16<<10 {
			t.Errorf("100 000 more puts grew the full table's live heap by %d B", after-full)
		}
		if got := table.Evictions(); got != churn+more {
			t.Errorf("%d evictions, want %d", got, churn+more)
		}
	})
}
