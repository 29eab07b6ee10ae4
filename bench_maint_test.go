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
	"runtime"
	"strings"
	"testing"

	chronicledb "chronicledb"
	"chronicledb/internal/dedup"
	"chronicledb/internal/engine"
	"chronicledb/internal/view"
)

// fanoutDB builds an in-memory DB with V summary views over one chronicle.
// shape "shared" gives every view the identical σ prefix (one plan node
// serves all V); shape "duplicated" gives each view its own constant, so
// every view evaluates its own σ — same fold work per view (the probe
// tuple passes every filter), different delta-computation sharing.
func fanoutDB(tb testing.TB, shape string, V int) *chronicledb.DB {
	tb.Helper()
	db, err := chronicledb.Open(chronicledb.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := db.Exec(`CREATE CHRONICLE calls (acct STRING, minutes INT)`); err != nil {
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
	b.Run("call64/btree=20000", benchCall64)
	b.Run("load1000", benchLoad1000)
}

// benchLoad1000 is the shape of the benchmark suite's set-up: 1 000-row
// AppendRows calls, every row a group no view holds yet, into the 64-view
// fan-out — 20 calls into an empty database, then over again. One iteration
// is one call, so ns/op ÷ 1000 is the load cost per row across 64 views.
func benchLoad1000(b *testing.B) {
	const callK, callsPerDB = 1000, 20
	calls := make([][]chronicledb.Tuple, callsPerDB)
	for i := range calls {
		calls[i] = make([]chronicledb.Tuple, callK)
		for j := range calls[i] {
			calls[i][j] = chronicledb.Tuple{chronicledb.Str(fmt.Sprintf("acct%05d", i*callK+j)), chronicledb.Int(1000)}
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
			db = fanoutDB(b, "shared", 64)
			b.StartTimer()
		}
		if _, _, err := db.AppendRows("calls", calls[i%callsPerDB]); err != nil {
			b.Fatal(err)
		}
	}
}

// loadHeld keeps benchLoad1000's last database reachable once the benchmark
// returns: a -test.memprofile is written after the benchmarks end, and its
// in-use sample then shows what the loaded views hold (make prof-load
// prints it).
var loadHeld *chronicledb.DB

// benchCall64 is one 64-row AppendRows call against a 20 000-group B-tree
// view, every row a different existing group. Its B/op is the line to watch:
// with one publication per call a node on the way to two of the call's
// groups is path-copied once; with one per row the root and every interior
// node were copied 64 times over (≈24 KB a row). The copies reuse the nodes
// and entry versions the calls before replaced, so warm they allocate
// nothing (TestTreeCallBytesGuard).
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

// call64DB is benchCall64's database — one B-tree view of 20 000 groups,
// loaded — and 64 calls of 64 rows that stride through the groups, so the
// rows of a call spread over the tree.
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
// B-tree view allocates: at most 8 KB and 32 objects. The call path-copies
// the nodes on the way to its groups and copies each group's entry, but a
// publication that finds no reader recycles what the call before replaced,
// so the copies are filled from the view's free lists. Dropping the
// replaced nodes and versions to the collector instead showed here as
// 112 855 B and 316 objects a call.
func TestTreeCallBytesGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const maxBytes, maxAllocs = 8 << 10, 32
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
	t.Logf("warm 64-row call into a 20 000-group B-tree view: %.0f B, %.1f allocs (budget %d B, %d)", bytes, allocs, maxBytes, maxAllocs)
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
// view's — entry shell, states, key, and the store's index share. A group is
// its key and its states; a second copy of the group values shows here.
func TestGroupBytesGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are not meaningful under -race")
	}
	const groups, callK = 100_000, 1_000
	for _, tc := range []struct {
		name, view string
		budget     float64
	}{
		{"hash-one-aggregate", `CREATE VIEW v AS SELECT acct, SUM(minutes) AS m FROM calls GROUP BY acct`, 150},
		{"btree-three-aggregates", `CREATE VIEW v AS SELECT acct, SUM(minutes) AS m, COUNT(*) AS n, MAX(minutes) AS hi
			FROM calls GROUP BY acct WITH STORE BTREE`, 290},
		{"distinct", `CREATE VIEW v AS SELECT DISTINCT acct FROM calls`, 110},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, err := chronicledb.Open(chronicledb.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			for _, stmt := range []string{`CREATE CHRONICLE calls (acct STRING, minutes INT)`, tc.view} {
				if _, err := db.Exec(stmt); err != nil {
					t.Fatal(err)
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
			perGroup := float64(int64(heap())-int64(before)) / groups
			if v, _ := db.View("v"); v.Len() != groups {
				t.Fatalf("the view holds %d groups, want %d", v.Len(), groups)
			}
			t.Logf("%s: %.0f B/group (budget %.0f)", tc.name, perGroup, tc.budget)
			if perGroup > tc.budget {
				t.Errorf("%s: %.0f B/group, budget %.0f — a group grew", tc.name, perGroup, tc.budget)
			}
		})
	}
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

// TestRelationBytesGuard pins what a relation row costs in memory, the way
// TestGroupBytesGuard pins a group: the live heap 100 000 customers rows
// take, loaded once through UPSERT statements and once through a checkpoint
// restore. A row is one string in the relation's B-tree — its key, then its
// value-encoded tuple — so a per-row object graph coming back shows here.
func TestRelationBytesGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are not meaningful under -race")
	}
	const rows, stmtK, budget = 100_000, 1_000, 120
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
// 20 000 entries put with fresh id strings, as JSON decoding hands them to
// the table. An entry is one record in the table's ring, one index slot and
// one key string; retaining the caller's two id strings shows here.
func TestDedupBytesGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are not meaningful under -race")
	}
	const entries, budget = 20_000, 125
	before := liveHeap()
	table := dedup.NewTable(0)
	for i := 0; i < entries; i++ {
		cid := fmt.Sprintf("bench-client-%d", i%4)
		rid := fmt.Sprintf("q%d", i)
		table.Put(cid, rid, dedup.Ack{Chronicle: "calls", FirstSN: int64(16 * i), LastSN: int64(16*i + 15), Rows: 16})
	}
	perEntry := float64(liveHeap()-before) / entries
	if table.Len() != entries {
		t.Fatalf("the table holds %d entries, want %d", table.Len(), entries)
	}
	t.Logf("%.0f B/entry (budget %d)", perEntry, budget)
	if perEntry > budget {
		t.Errorf("%.0f B/entry, budget %d — a dedup entry grew", perEntry, budget)
	}
}
