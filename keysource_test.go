// Views whose group keys trace to the same columns of one chronicle share
// one key directory, whatever their σ: the paper's many summaries of one
// chronicle by one attribute hold each key once.
package chronicledb_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	chronicledb "chronicledb"
	"chronicledb/internal/aggregate"
	"chronicledb/internal/algebra"
	"chronicledb/internal/calendar"
	"chronicledb/internal/chronicle"
	"chronicledb/internal/pred"
	"chronicledb/internal/shard"
	"chronicledb/internal/value"
	"chronicledb/internal/view"
)

// keySourceViews is the DDL of the SQL members of the account directory:
// eight σ prefixes, each with a SUM and a COUNT view (s7, minutes ≥ 98,
// keeps about one row in fifty), a DISTINCT acct, and a moving-window
// family that keeps its instances.
func keySourceViews() []string {
	var out []string
	for p := range 8 {
		where := fmt.Sprintf("WHERE minutes >= %d", 2*p*p)
		out = append(out,
			fmt.Sprintf(`CREATE VIEW s%d_sum AS SELECT acct, SUM(minutes) AS total FROM calls %s GROUP BY acct`, p, where),
			fmt.Sprintf(`CREATE VIEW s%d_n AS SELECT acct, COUNT(*) AS n FROM calls %s GROUP BY acct`, p, where))
	}
	return append(out,
		`CREATE VIEW d_acct AS SELECT DISTINCT acct FROM calls WHERE minutes >= 50`,
		`CREATE PERIODIC VIEW w AS SELECT acct, SUM(minutes) AS total, COUNT(*) AS n FROM calls GROUP BY acct EVERY 300 WIDTH 600`)
}

// createSwapped makes the member SQL cannot write, through the engine: a Π
// that moves the account to column 1 of σ[minutes ≥ 20](calls), grouped by
// it. Its key sits at another position than its siblings', and traces to
// the same chronicle column.
func createSwapped(t *testing.T, db *chronicledb.DB) {
	t.Helper()
	calls, ok := db.Chronicle("calls")
	if !ok {
		t.Fatal("no chronicle calls")
	}
	sel, err := algebra.NewSelect(algebra.NewScan(calls), pred.Or(pred.ColConst(1, pred.Ge, value.Int(20))))
	if err != nil {
		t.Fatal(err)
	}
	swapped, err := algebra.NewProject(sel, []int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Engine().CreateView(view.Def{
		Name: "swapped", Expr: swapped, Mode: view.SummarizeGroupBy, GroupCols: []int{1},
		Aggs: []aggregate.Spec{{Func: aggregate.Sum, Col: 0, Name: "total"}, {Func: aggregate.Count, Col: -1, Name: "n"}},
	}); err != nil {
		t.Fatal(err)
	}
}

// TestViewsOfOneKeyShareADirectory: the σ views, the DISTINCT, the Π view
// whose key is its column 1 and the window family all keep their keys in one
// directory, at one shard and two, in memory and durable with a view cache
// too small to hold one σ view (so every view pages). A reference database
// that retains the chronicle takes the same statements and calls; each view
// equals its reference's fold of algebra.Evaluate (Thm 4.2, View.Recompute),
// and each live window instance the fold of the rows its interval holds —
// live, and in the durable runs after a checkpoint, Close and Open. Latest-N
// and a key range on s7_sum, the most selective σ, return its groups and
// none of its siblings', and SHOW VIEWS names one directory for every member.
// The Π view is not in the catalog, which records SQL: it folds across the
// checkpoint, which does not image it, and is gone after the reopen.
//
// Mutation-checked: a directory that encodes every member's rows with its
// first member's key columns fails the Π view. (A resolution reused across
// table keys cannot show here: the plan gives each σ and Π node rows of its
// own, so TestDirMembersOfOtherKeys in internal/view folds one slice into
// two table keys of one directory.)
func TestViewsOfOneKeyShareADirectory(t *testing.T) {
	for _, shards := range []int{1, 2} {
		for _, durable := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards=%d/durable=%v", shards, durable), func(t *testing.T) {
				testOneKeyDirectory(t, shards, durable)
			})
		}
	}
}

func testOneKeyDirectory(t *testing.T, shards int, durable bool) {
	clock := &twinClock{} // frozen: each call's chronon is set before it
	opts := chronicledb.Options{Shards: shards, Clock: clock.read}
	if durable {
		// One σ0 view's state is some 200 groups of ~20 bytes: the cache
		// holds under half of it.
		opts.Dir, opts.ViewBlockBytes, opts.ViewCacheBytes = t.TempDir(), 256, 1024
	}
	ref, err := chronicledb.Open(chronicledb.Options{Clock: clock.read, DefaultRetention: chronicledb.RetainAll})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	db, err := chronicledb.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { db.Close() }()
	for _, d := range []*chronicledb.DB{ref, db} {
		mustExec(t, d, `CREATE CHRONICLE calls (acct STRING, minutes INT)`)
		for _, stmt := range keySourceViews() {
			mustExec(t, d, stmt)
		}
		createSwapped(t, d)
	}

	rng := rand.New(rand.NewSource(41))
	calls := 0
	appendRound := func() {
		t.Helper()
		calls++
		clock.now.Store(100 * int64(calls))
		rows := make([]chronicledb.Tuple, 60)
		for j := range rows {
			rows[j] = chronicledb.Tuple{chronicledb.Str(fmt.Sprintf("a%03d", rng.Intn(200))), chronicledb.Int(int64(rng.Intn(100)))}
		}
		for _, d := range []*chronicledb.DB{ref, db} {
			if _, _, err := d.AppendRows("calls", rows); err != nil {
				t.Fatal(err)
			}
		}
	}
	lines := func(rows []value.Tuple) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = fmt.Sprint(r)
		}
		return out
	}
	check := func(what string) {
		t.Helper()
		names := db.Engine().Names(shard.Views)
		for _, name := range names {
			rv, ok := ref.View(name)
			if !ok {
				t.Fatalf("%s: the reference has no view %s", what, name)
			}
			want, err := rv.Recompute()
			if err != nil {
				t.Fatal(err)
			}
			if got := sortedRows(t, db, name); !slices.Equal(got, lines(want)) {
				t.Errorf("%s: %s\n%v\nits reference fold\n%v", what, name, got, lines(want))
			}
		}
		pv, _ := db.Engine().PeriodicView("w")
		rpv, _ := ref.Engine().PeriodicView("w")
		evaluated, err := algebra.Evaluate(rpv.Def().Expr)
		if err != nil {
			t.Fatal(err)
		}
		if pv.Live() != rpv.Live() {
			t.Errorf("%s: w has %d live instances, the reference %d", what, pv.Live(), rpv.Live())
		}
		for _, inst := range rpv.Instances() {
			got, ok := pv.At(inst.Interval)
			if !ok {
				t.Errorf("%s: w has no instance %v", what, inst.Interval)
				continue
			}
			if want := intervalFold(t, rpv.Def(), evaluated, inst.Interval); !slices.Equal(lines(got.Rows()), lines(want)) {
				t.Errorf("%s: w%v\n%v\nits reference fold\n%v", what, inst.Interval, got.Rows(), want)
			}
		}

		// The most selective σ's ordered reads walk the directory's order,
		// past its siblings' keys, and return its own groups alone.
		want, _ := mustView(t, ref, "s7_sum").Recompute()
		if len(want) < 5 || len(want) > 150 {
			t.Fatalf("%s: s7_sum holds %d of 200 accounts; the σ should keep a sparse few", what, len(want))
		}
		last, err := db.LatestViewRows("s7_sum", 3)
		if err != nil {
			t.Fatal(err)
		}
		top := lines(want[len(want)-3:])
		slices.Reverse(top)
		if !slices.Equal(lines(last), top) {
			t.Errorf("%s: latest 3 of s7_sum: %v, want the last of %v", what, last, lines(want))
		}
		lo, hi := chronicledb.Str("a050"), chronicledb.Str("a150")
		ranged, err := db.LookupRange("s7_sum", chronicledb.Tuple{lo}, chronicledb.Tuple{hi})
		if err != nil {
			t.Fatal(err)
		}
		var inRange []value.Tuple
		for _, r := range want {
			if k := r[0].AsString(); k >= lo.AsString() && k < hi.AsString() {
				inRange = append(inRange, r)
			}
		}
		if !slices.Equal(lines(ranged), lines(inRange)) {
			t.Errorf("%s: s7_sum over [a050, a150): %v, want %v", what, ranged, inRange)
		}

		// One directory, counting every member; it holds the accounts once.
		res := familyQuery(t, db, "SHOW VIEWS")
		dirCol, viewsCol, storeCol := slices.Index(res.Columns, "directory"), slices.Index(res.Columns, "dir_views"), slices.Index(res.Columns, "store")
		dirs := map[string]bool{}
		for _, r := range res.Rows {
			dirs[r[dirCol].AsString()] = true
			if n := r[viewsCol].AsInt(); n != int64(len(names)+1) {
				t.Errorf("%s: SHOW VIEWS %s: dir_views %d, want %d", what, r[0].AsString(), n, len(names)+1)
			}
			if durable && r[storeCol].AsString() == "resident" && r[0].AsString() != "w (periodic)" {
				t.Errorf("%s: %s does not page", what, r[0].AsString())
			}
		}
		if len(dirs) != 1 || len(res.Rows) != len(names)+1 {
			t.Errorf("%s: SHOW VIEWS names %d directories for %d members, want one", what, len(dirs), len(res.Rows))
		}
		if usage := mustView(t, db, "s0_sum"); usage.Dir().Len() != usage.Len() {
			t.Errorf("%s: the directory holds %d keys, s0_sum, which keeps every row, %d", what, usage.Dir().Len(), usage.Len())
		}
	}

	for range 8 {
		appendRound()
	}
	check("live")
	if !durable {
		return
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	appendRound()
	check("after a checkpoint")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = chronicledb.Open(opts); err != nil {
		t.Fatal(err)
	}
	if _, ok := db.View("swapped"); ok {
		t.Error("the reopen remade swapped, which no catalog statement makes")
	}
	check("after a reopen")
	misses := db.WALStats().ViewCacheMisses
	for range 4 {
		appendRound()
	}
	check("folding after the reopen")
	if db.WALStats().ViewCacheMisses == misses {
		t.Error("no read after the reopen faulted a block: the views did not page")
	}
}

// intervalFold is the reference of a family's instance of iv: def folded
// over the evaluated rows whose chronon lies in iv.
func intervalFold(t *testing.T, def view.Def, evaluated []chronicle.Row, iv calendar.Interval) []value.Tuple {
	t.Helper()
	v, err := view.New(def)
	if err != nil {
		t.Fatal(err)
	}
	var in []chronicle.Row
	for _, r := range evaluated {
		if r.Chronon >= iv.Start && r.Chronon < iv.End {
			in = append(in, r)
		}
	}
	v.ApplyRows(in)
	v.Publish()
	return v.Rows()
}

func mustView(t *testing.T, db *chronicledb.DB, name string) *view.View {
	t.Helper()
	v, ok := db.View(name)
	if !ok {
		t.Fatalf("no view %s", name)
	}
	return v
}

// TestDirResolvesOncePerTableKey: paged views a0 (σ0, SUM), b (σ1, SUM) and
// a1 (σ0, COUNT), made in that order, share one directory, and a 1 000-row
// call is hashed once for σ0 and once for σ1 — 2 000 keys — though the
// round folds b between the two views of σ0. Paged views never join a
// table, so a0 and a1 fold the same rows into tables of their own.
func TestDirResolvesOncePerTableKey(t *testing.T) {
	db, err := chronicledb.Open(chronicledb.Options{Dir: t.TempDir(), Shards: 1, DefaultRetention: chronicledb.RetainAll})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, `CREATE CHRONICLE calls (acct STRING, minutes INT)`)
	mustExec(t, db, `CREATE VIEW a0 AS SELECT acct, SUM(minutes) AS total FROM calls WHERE minutes >= 0 GROUP BY acct`)
	mustExec(t, db, `CREATE VIEW b AS SELECT acct, SUM(minutes) AS total FROM calls WHERE minutes < 1000 GROUP BY acct`)
	mustExec(t, db, `CREATE VIEW a1 AS SELECT acct, COUNT(*) AS n FROM calls WHERE minutes >= 0 GROUP BY acct`)
	a0, b, a1 := mustView(t, db, "a0"), mustView(t, db, "b"), mustView(t, db, "a1")
	if a0.Dir() != b.Dir() || a0.Dir() != a1.Dir() {
		t.Fatal("the three views do not share a directory")
	}
	rows := make([]chronicledb.Tuple, 1000)
	for i := range rows {
		rows[i] = chronicledb.Tuple{chronicledb.Str(fmt.Sprintf("a%03d", i%300)), chronicledb.Int(int64(i % 100))}
	}
	before := a0.Dir().Stats().Hashes
	if _, _, err := db.AppendRows("calls", rows); err != nil {
		t.Fatal(err)
	}
	if got := a0.Dir().Stats().Hashes - before; got != 2*int64(len(rows)) {
		t.Errorf("a %d-row call hashed %d keys, want %d: one resolution per table key", len(rows), got, 2*len(rows))
	}
	for _, v := range []*view.View{a0, b, a1} {
		want, err := v.Recompute()
		if err != nil {
			t.Fatal(err)
		}
		lines := make([]string, len(want))
		for i, r := range want {
			lines[i] = fmt.Sprint(r)
		}
		if got := sortedRows(t, db, v.Name()); len(got) != 300 || !slices.Equal(got, lines) {
			t.Errorf("%s:\n%v\nits reference fold\n%v", v.Name(), got, lines)
		}
	}
}

// TestEngineViewsStayOutOfCheckpoints: a view and a periodic family made
// through Engine() have no catalog statement, so a checkpoint must not
// image them — the next Open, finding an image of a view the catalog never
// made, would fail. They fold until the Close; the reopen brings back the
// catalog's view and family as they were, and nothing else.
func TestEngineViewsStayOutOfCheckpoints(t *testing.T) {
	dir := t.TempDir()
	opts := chronicledb.Options{Dir: dir, DefaultRetention: chronicledb.RetainAll}
	db, err := chronicledb.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE CHRONICLE calls (acct STRING, minutes INT)`)
	mustExec(t, db, `CREATE VIEW usage AS SELECT acct, SUM(minutes) AS total FROM calls GROUP BY acct`)
	mustExec(t, db, `CREATE PERIODIC VIEW w AS SELECT acct, COUNT(*) AS n FROM calls GROUP BY acct EVERY 300 WIDTH 600`)
	createSwapped(t, db)
	calls, _ := db.Chronicle("calls")
	cal, err := calendar.NewPeriodic(0, 100, 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Engine().CreatePeriodicView("fam", view.Def{
		Name: "fam", Expr: algebra.NewScan(calls), Mode: view.SummarizeGroupBy, GroupCols: []int{0},
		Aggs: []aggregate.Spec{{Func: aggregate.Count, Col: -1, Name: "n"}},
	}, cal, 0); err != nil {
		t.Fatal(err)
	}
	rows := make([]chronicledb.Tuple, 200)
	for i := range rows {
		rows[i] = chronicledb.Tuple{chronicledb.Str(fmt.Sprintf("a%02d", i%40)), chronicledb.Int(int64(i))}
	}
	if _, _, err := db.AppendRows("calls", rows); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := sortedRows(t, db, "usage")
	family := func(db *chronicledb.DB) string {
		pv, ok := db.Engine().PeriodicView("w")
		if !ok {
			return "no family w"
		}
		var b strings.Builder
		for _, inst := range pv.Instances() {
			fmt.Fprintln(&b, inst.Interval, inst.View.Rows())
		}
		return b.String()
	}
	wantW := family(db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = chronicledb.Open(opts); err != nil {
		t.Fatalf("reopening after a checkpoint taken with engine-made views: %v", err)
	}
	defer db.Close()
	if got := sortedRows(t, db, "usage"); !slices.Equal(got, want) {
		t.Errorf("usage after the reopen:\n%v\nbefore it:\n%v", got, want)
	}
	if got := family(db); got != wantW {
		t.Errorf("w after the reopen:\n%s\nbefore it:\n%s", got, wantW)
	}
	if _, ok := db.View("swapped"); ok {
		t.Error("swapped came back without a catalog statement")
	}
	if _, ok := db.Engine().PeriodicView("fam"); ok {
		t.Error("fam came back without a catalog statement")
	}
}
