package chronicledb_test

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	chronicledb "chronicledb"
	"chronicledb/internal/aggregate"
	"chronicledb/internal/algebra"
	"chronicledb/internal/chronicle"
	"chronicledb/internal/dispatch"
	"chronicledb/internal/pred"
	"chronicledb/internal/tiers"
	"chronicledb/internal/value"
	"chronicledb/internal/view"
)

// TestAllExperimentsRunQuick checks the claim of every experiment E1–E13 —
// the paper's cost bounds per append (§3's IM classes, Theorems 4.2–4.5) and
// its §5 designs — on counted work, not time: rows read, probes, hashes, key
// comparisons, tree heights, views maintained, records replayed. Each one
// appends through the database, so the work it counts is what an append
// does: dispatch picks the views, the shared plan computes each delta once,
// each view folds the whole call, and the engine publishes once. The counts
// are read from the engine's own views, families, chronicles and plan. They
// are deterministic, so each claim is an exact assertion in every go test
// run; EXPERIMENTS.md keeps the timed tables the experiments once printed.
func TestAllExperimentsRunQuick(t *testing.T) {
	for i, run := range []func(*testing.T){e1, e2, e3, e4, e5, e6, e7, e8, e9, e10, e11, e12, e13} {
		t.Run(fmt.Sprintf("E%d", i+1), run)
	}
}

// The exactness and bound claims of E8, E9 and E11 also run under names of
// their own, so a failure there names the claim it breaks.

// TestE8ExpirationBoundsInstances pins E8: expiration bounds the live
// instances of a periodic family.
func TestE8ExpirationBoundsInstances(t *testing.T) { e8(t) }

// TestE9ZeroDivergence pins E9: the incremental tiered discount equals the
// batch result exactly.
func TestE9ZeroDivergence(t *testing.T) { e9(t) }

// TestE11ZeroDivergence pins E11: the maintained join view equals the AsOf
// reference under proactive relation updates.
func TestE11ZeroDivergence(t *testing.T) { e11(t) }

// must fails the test on a set-up error.
func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// usageSQL is the canonical CA₁ view: totals per account.
const usageSQL = `CREATE VIEW usage AS SELECT acct, SUM(minutes) AS total_minutes, COUNT(*) AS n FROM calls GROUP BY acct`

// grown returns a workload whose chronicle retains n calls, with the CA₁
// view usage maintained over all of them.
func grown(t *testing.T, n int) *telecom {
	w := newTelecom(t, 1024, "ALL", chronicledb.Options{}, usageSQL)
	w.load(t, n)
	return w
}

// planWork sums the relation work the shared plan has counted on the nodes of
// view name's expression: the nodes the engine evaluates, which the view may
// share with others. The view's own expression (Def().Expr) counts nothing
// on a node another view put into the plan first.
func planWork(t *testing.T, db *chronicledb.DB, name string) algebra.RelWork {
	t.Helper()
	home, found := chronicledb.Kernel(db).Home(name)
	if !found {
		t.Fatalf("no view %s", name)
	}
	nodes, _ := home.ViewSharedPlan(name)
	var w algebra.RelWork
	for _, n := range nodes {
		w.Probes += n.Work.Probes
		w.Scanned += n.Work.Scanned
	}
	return w
}

// classViews names the views of classDB: a CA₁, two CA⋈ views sharing one
// key join (per state and per account), and a CA over the cross product.
var classViews = []string{"ca1", "cakey", "cakey_acct", "cacross"}

// classDB appends calls through classViews with customers rows in the
// relation, and returns the workload and the stored chronicle rows the
// appends read.
func classDB(t *testing.T, customers, appends int) (*telecom, int64) {
	w := newTelecom(t, 1024, "ALL", chronicledb.Options{},
		`CREATE VIEW ca1 AS SELECT acct, SUM(minutes) AS total_minutes, COUNT(*) AS n FROM calls GROUP BY acct`,
		`CREATE VIEW cakey AS SELECT state, SUM(minutes) AS total_minutes FROM calls JOIN customers ON calls.acct = customers.acct GROUP BY state`,
		`CREATE VIEW cakey_acct AS SELECT calls.acct, SUM(minutes) AS total_minutes FROM calls JOIN customers ON calls.acct = customers.acct GROUP BY calls.acct`,
		`CREATE VIEW cacross AS SELECT state, COUNT(*) AS n FROM calls CROSS JOIN customers GROUP BY state`)
	w.fillCustomers(t, customers)
	calls := w.calls(t)
	read := calls.RowsRead()
	w.appendCalls(t, appends)
	return w, calls.RowsRead() - read
}

// e1 — Theorems 4.4/4.5 vs Proposition 3.1: a CA₁ view's maintenance reads
// no stored chronicle row at any |C| and makes one directory probe and
// reaches one entry per delta row; recomputing the view (full relational
// algebra) reads all |C| rows.
func e1(t *testing.T) {
	const appends = 100
	for _, n := range []int{1_000, 10_000, 100_000} {
		w := grown(t, n)
		calls, v := w.calls(t), mustView(t, w.db, "usage")
		st, ds, read := v.Stats(), v.Dir().Stats(), calls.RowsRead()
		w.appendCalls(t, appends)
		if r := calls.RowsRead() - read; r != 0 {
			t.Errorf("|C|=%d: maintenance read %d stored rows, want 0", n, r)
		}
		after := v.Stats()
		rows, reached, probes := after.DeltaRows-st.DeltaRows, after.Touched-st.Touched, v.Dir().Stats().Probes-ds.Probes
		if rows != appends || reached != rows || probes != rows {
			t.Errorf("|C|=%d: %d appends, %d delta rows, %d entries reached, %d directory probes; want one each per append", n, appends, rows, reached, probes)
		}
		read = calls.RowsRead()
		want, err := v.Recompute()
		if r := calls.RowsRead() - read; r != int64(n+appends) {
			t.Errorf("|C|=%d: recompute read %d stored rows, want all %d", n, r, n+appends)
		}
		if must(t, err); !slices.EqualFunc(v.Rows(), want, value.TuplesEqual) {
			t.Errorf("|C|=%d: view and recompute differ", n)
		}
		w.db.Close()
	}
}

// e2 — Theorem 4.5 in |R|: CA₁ makes no relation probe; CA⋈ makes exactly
// one key probe per delta row, each a descent of at most 1 + ⌈log₃₂ |R|⌉
// nodes, however many views share the join; the cross product visits all
// |R| rows per append.
func e2(t *testing.T) {
	const appends = 4
	for _, size := range []int{1_000, 8_000, 64_000} {
		// The 1 024 accounts all have a customer row, so every call joins.
		w, _ := classDB(t, size, appends)
		if wk := planWork(t, w.db, "ca1"); wk != (algebra.RelWork{}) {
			t.Errorf("|R|=%d: CA₁ read the relation: %+v", size, wk)
		}
		for _, name := range []string{"cakey", "cakey_acct"} {
			kw, rows := planWork(t, w.db, name), mustView(t, w.db, name).Stats().DeltaRows
			if kw.Probes != appends || rows != appends || kw.Scanned != 0 {
				t.Errorf("|R|=%d: %s's key join made %d probes, scanned %d rows, for %d delta rows; want one probe a row", size, name, kw.Probes, kw.Scanned, rows)
			}
		}
		rel, _ := chronicledb.Kernel(w.db).Relation("customers")
		if h := rel.Height(); !logHeight(h, size) {
			t.Errorf("|R|=%d: relation tree height %d", size, h)
		}
		cw, crows := planWork(t, w.db, "cacross"), mustView(t, w.db, "cacross").Stats().DeltaRows
		if want := int64(appends * size); crows != want || cw.Scanned != want || cw.Probes != 0 {
			t.Errorf("|R|=%d: the cross product got %d delta rows, scanned %d, probed %d; want |R| rows scanned an append", size, crows, cw.Scanned, cw.Probes)
		}
		w.db.Close()
	}
}

// logHeight reports whether a B-tree (32 to 64 children a node) holding n
// keys is h high: at most 1 + ⌈log₃₂ n⌉, and at least the levels 63-key
// nodes need to hold n.
func logHeight(h, n int) bool {
	bound, room := 1, 1
	for c := 1; c < n; c *= 32 {
		bound++
	}
	for range h {
		room *= 64
	}
	return h <= bound && room > n
}

// e3 — Section 3: the supportable transaction rate is set by the views' IM
// classes. Each view's declared class (Theorem 4.5) is the class of its
// counted work, as E1 and E2 count it (E1's recompute, reading every stored
// row, is IM-Cᵏ). The appends maintain every view together, so the stored
// rows they read count against each of them.
func e3(t *testing.T) {
	w, read := classDB(t, 1024, 50)
	for _, name := range classViews {
		v := mustView(t, w.db, name)
		if c := classOf(read, planWork(t, w.db, name)); c != v.IMClass() {
			t.Errorf("%s (%s) is declared %s, its counted work is %s", name, v.Lang(), v.IMClass(), c)
		}
	}
}

// classOf names the IM class of maintenance's counted work: reading stored
// chronicle rows is IM-Cᵏ, scanning relation rows IM-Rᵏ, key probes IM-log(R),
// none of them IM-Constant.
func classOf(chronicleRows int64, rel algebra.RelWork) algebra.IMClass {
	switch {
	case chronicleRows > 0:
		return algebra.IMCk
	case rel.Scanned > 0:
		return algebra.IMRk
	case rel.Probes > 0:
		return algebra.IMLogR
	}
	return algebra.IMConstant
}

// e4 — Section 1: a summary query is answered from the persistent view
// without reading a stored row at any |C|; answering it by scanning the
// stored sequence reads all |C| rows, for the same answer.
func e4(t *testing.T) {
	key := value.Str(acct(7))
	for _, n := range []int{1_000, 10_000, 100_000} {
		w := grown(t, n)
		calls := w.calls(t)
		read := calls.RowsRead()
		row, found, err := w.db.Lookup("usage", key)
		if r := calls.RowsRead() - read; r != 0 || !found || err != nil {
			t.Errorf("|C|=%d: the lookup read %d stored rows (found %v, %v), want 0", n, r, found, err)
		}
		read = calls.RowsRead()
		sum, err := scanQuery(calls, 0, key, 1)
		if r := calls.RowsRead() - read; r != int64(n) {
			t.Errorf("|C|=%d: the scan read %d stored rows, want all", n, r)
		}
		if must(t, err); !found || row[1].AsInt() != sum {
			t.Errorf("|C|=%d: view says %v, scan says %d", n, row, sum)
		}
		w.db.Close()
	}
}

// e5 — Theorem 4.2: an append's delta through u unions and j cross products
// with R has |R|ʲ rows (the unions' operands derive the same tuples, which
// set semantics collapses); through key joins it has one. No statement
// spells a union, so each shape is a view made from its algebra expression;
// all of them are in the plan together, and share its nodes.
func e5(t *testing.T) {
	const relSize = 16
	w := newTelecom(t, relSize, "NONE", chronicledb.Options{})
	w.fillCustomers(t, relSize)
	kernel := chronicledb.Kernel(w.db)
	calls := w.calls(t)
	cust, _ := kernel.Relation("customers")
	want := map[string]int64{}
	shape := func(u, j int, key bool, rows int64) {
		var expr algebra.Node = algebra.NewScan(calls)
		var err error
		for i := 0; i < u; i++ {
			sel, err := algebra.NewSelect(algebra.NewScan(calls), pred.Or(pred.ColConst(1, pred.Ge, value.Int(0))))
			must(t, err)
			expr, err = algebra.NewUnion(expr, sel)
			must(t, err)
		}
		for i := 0; i < j; i++ {
			if key {
				expr, err = algebra.NewJoinRel(expr, cust, []int{0}, []int{0})
			} else {
				expr, err = algebra.NewCrossRel(expr, cust)
			}
			must(t, err)
		}
		name := fmt.Sprintf("u%d_j%d_key%v", u, j, key)
		_, err = kernel.CreateView(view.Def{
			Name: name, Expr: expr, Mode: view.SummarizeGroupBy, GroupCols: []int{0},
			Aggs: []aggregate.Spec{{Func: aggregate.Count, Col: -1, Name: "n"}},
		})
		must(t, err)
		want[name] = rows
	}
	for u := 0; u <= 2; u++ {
		for j, rows := 0, int64(1); j <= 2; j, rows = j+1, rows*relSize {
			shape(u, j, false, rows)
		}
	}
	shape(2, 2, true, 1)
	before := map[string]int64{}
	for name := range want {
		before[name] = mustView(t, w.db, name).Stats().DeltaRows
	}
	w.appendCalls(t, 1)
	for name, rows := range want {
		if n := mustView(t, w.db, name).Stats().DeltaRows - before[name]; n != rows {
			t.Errorf("%s: %d delta rows for an append, want %d", name, n, rows)
		}
	}
}

// e6 — Section 5.1's moving window on the database's own path: a family of
// windows WIDTH = r·EVERY folds each row once, into its span's pane (for r
// = 1 the window is its own pane), whatever r is; every live instance of a
// window more than one span, open or closed, reads through at most 2r panes
// and holds no group of its own; and every live instance equals a naive fold
// of the rows in its window, across chronons the rows skip, once windows
// have closed.
func e6(t *testing.T) {
	const every, rows = 10, 2000
	for _, r := range []int64{1, 2, 8, 30} {
		w := newTelecom(t, 64, "NONE", chronicledb.Options{}, fmt.Sprintf(
			`CREATE PERIODIC VIEW moving AS SELECT acct, SUM(minutes) AS total_minutes, COUNT(*) AS n FROM calls GROUP BY acct EVERY %d WIDTH %d`, every, r*every))
		pv := w.family(t, "moving")
		type call struct {
			ch      int64
			acct    string
			minutes int64
		}
		var calls []call
		for i := 0; i < rows; i++ {
			w.now = int64(i/2) * 3 / 2 // every third chronon gets no rows
			row := w.call()
			calls = append(calls, call{w.now, row[0].AsString(), row[1].AsInt()})
			w.appendRows(t, row)
			if i%250 != 249 && i != rows-1 {
				continue
			}
			closed := 0
			for _, inst := range pv.Instances() {
				want := map[string][2]int64{}
				for _, c := range calls {
					if inst.Interval.Contains(c.ch) {
						g := want[c.acct]
						want[c.acct] = [2]int64{g[0] + c.minutes, g[1] + 1}
					}
				}
				got := inst.View.Rows()
				for _, row := range got {
					if g := want[row[0].AsString()]; row[1].AsInt() != g[0] || row[2].AsInt() != g[1] {
						t.Fatalf("r=%d after %d rows: %s%v = %v, want total %d of %d rows", r, i+1, pv.Name(), inst.Interval, row, g[0], g[1])
					}
				}
				if len(got) != len(want) {
					t.Fatalf("r=%d after %d rows: %s%v holds %d groups, want %d", r, i+1, pv.Name(), inst.Interval, len(got), len(want))
				}
				if inst.Interval.End <= w.now {
					closed++
				}
				if thru := inst.View.ReadsThrough(); thru != (r > 1) {
					t.Errorf("r=%d: %v reads through panes: %v", r, inst.Interval, thru)
				}
				if n := len(pv.PanesOf(inst.Interval)); n > int(2*r) {
					t.Errorf("r=%d: %v reads through %d panes, want at most %d", r, inst.Interval, n, 2*r)
				}
			}
			if closed == 0 && i == rows-1 {
				t.Errorf("r=%d: no window has closed", r)
			}
		}
		// Nothing expires, so every table that folded a row is still live:
		// each instance's, and each pane an instance reads through.
		folds, seen := int64(0), map[*view.View]bool{}
		for _, inst := range pv.Instances() {
			for _, v := range append(pv.PanesOf(inst.Interval), inst.View) {
				if !seen[v] {
					seen[v] = true
					folds += v.Stats().DeltaRows
				}
			}
		}
		if folds != rows {
			t.Errorf("r=%d: the family's tables folded %d delta rows for %d rows appended, want one each", r, folds, rows)
		}
		w.db.Close()
	}
}

// e7 — Section 5.2: identifying the affected views costs the same at 16 and
// at 16 384 registered per-account views: one equality-index probe per row,
// no target examined.
func e7(t *testing.T) {
	for _, n := range []int{16, 16_384} {
		calls, d := callsChronicle(t), dispatch.New()
		for i := 0; i < n; i++ {
			must(t, d.Register(&dispatch.Target{
				ID:              fmt.Sprintf("balance_%d", i),
				Chronicles:      []*chronicle.Chronicle{calls},
				Filter:          pred.Or(pred.ColConst(0, pred.Eq, value.Str(acct(i)))),
				FilterChronicle: calls,
			}))
		}
		rows := []chronicle.Row{{SN: 1, Vals: value.Tuple{value.Str(acct(3)), value.Int(7), value.Float(1)}}}
		before := d.Probes + d.Scanned
		if got := d.Affected(calls, rows); len(got) != 1 || got[0].ID != "balance_3" {
			t.Fatalf("%d views: %d affected", n, len(got))
		}
		if work := d.Probes + d.Scanned - before; work != 1 {
			t.Errorf("%d views: dispatch work %d for a one-row append, want 1 at any view count", n, work)
		}
	}
}

// e8 — Section 5.1: a periodic family whose instances expire keeps at most
// two live however many periods pass; without expiration every period's
// instance stays. Kept instances keep their keys in the family's one
// directory, which holds each key seen once, however many periods held it;
// an instance that expires keeps its own, which goes with it.
func e8(t *testing.T) {
	const perPeriod = 20
	for _, periods := range []int{12, 60} {
		for _, expire := range []string{" EXPIRE 1000", ""} { // one period of grace, or never
			w := newTelecom(t, 64, "NONE", chronicledb.Options{},
				`CREATE PERIODIC VIEW monthly AS SELECT acct, SUM(minutes) AS total_minutes, COUNT(*) AS n FROM calls GROUP BY acct EVERY 1000`+expire)
			pv := w.family(t, "monthly")
			seen, held := map[string]bool{}, 0 // keys seen; keys the instances ever held, summed
			for i := 0; i < periods*perPeriod; i++ {
				w.now = int64(i / perPeriod * 1000)
				row := w.call()
				seen[row[0].AsString()] = true
				w.appendRows(t, row)
				if i%perPeriod == perPeriod-1 {
					for _, inst := range pv.ActiveAt(w.now) {
						held += inst.Len()
					}
				}
			}
			if live := pv.Live(); expire != "" && live > 2 || expire == "" && live != periods {
				t.Errorf("%d periods%s: %d live instances", periods, expire, live)
			}
			if expire != "" {
				for _, inst := range pv.Instances() {
					if keys := inst.View.Dir().Len(); keys != inst.View.Len() {
						t.Errorf("%d periods%s: instance %v's directory holds %d keys for its %d groups",
							periods, expire, inst.Interval, keys, inst.View.Len())
					}
				}
			} else if keys := pv.Dir().Len(); keys != len(seen) || periods == 60 && held < 10*keys {
				t.Errorf("%d periods: the family's directory holds %d keys, want the %d seen (its instances held %d)",
					periods, keys, len(seen), held)
			}
			w.db.Close()
		}
	}
}

// e9 — Section 5.3: the tiered discount maintained per record equals the
// batch computation at period end, exactly.
func e9(t *testing.T) {
	sched, err := tiers.NewSchedule(tiers.AllUnits, tiers.Tier{Threshold: 10, Rate: 0.10}, tiers.Tier{Threshold: 25, Rate: 0.20})
	must(t, err)
	for _, n := range []int{1_000, 10_000} {
		rng := rand.New(rand.NewSource(3))
		amounts := make([]float64, n)
		tr := tiers.NewTracker(sched)
		for i := range amounts {
			amounts[i] = float64(rng.Intn(500)) / 100
			tr.Add("k", amounts[i])
		}
		if got, want := tr.Current("k").Discount, tiers.BatchCompute(sched, amounts).Discount; got != want {
			t.Errorf("%d records: incremental discount %v, batch %v", n, got, want)
		}
	}
}

// e10 — Theorem 4.4, "modulo index look ups": at any |V| the views that
// share a key directory cost one key hash and at most one directory probe per
// delta row per call for all of them, growth included, ≤ 1.01 keys read back
// a probe, and each view one entry version per distinct group per call. The
// order over the directory's keys — every view's ordered index — costs a new
// key at most 3·⌈log₂|V|⌉ keys read, and a key the directory holds none.
//
// The appends after the load are calls of two rows of one account, so a call
// folded row by row would reach its group twice.
//
// Mutation-checked: a directory that orders every resolved id, not only the
// new ones, reads keys for the appends' existing groups.
func e10(t *testing.T) {
	const calls, members, c = 500, 3, 3
	for _, size := range []int{1_000, 10_000, 100_000} {
		// Three summaries of one expression by one column: the engine puts
		// them in one directory.
		var stmts []string
		for i, agg := range []string{"SUM(minutes)", "COUNT(*)", "MAX(minutes)"}[:members] {
			stmts = append(stmts, fmt.Sprintf(`CREATE VIEW usage%d AS SELECT acct, %s AS m FROM calls GROUP BY acct`, i, agg))
		}
		w := newTelecom(t, size, "NONE", chronicledb.Options{}, stmts...)
		vs := make([]*view.View, members)
		for i := range vs {
			vs[i] = mustView(t, w.db, fmt.Sprintf("usage%d", i))
		}
		d := vs[0].Dir()
		for _, v := range vs[1:] {
			if v.Dir() != d {
				t.Fatalf("|V|=%d: %s and %s keep their keys in two directories", size, vs[0].Name(), v.Name())
			}
		}
		// |V| groups, one row each, loaded by calls of a thousand in no key
		// order: the directory's table doubles under published entries, and
		// every key is ordered by a search.
		rows := make([]value.Tuple, 1000)
		perm := rand.New(rand.NewSource(int64(size))).Perm(size)
		for lo := 0; lo < size; lo += len(rows) {
			for i := range rows {
				rows[i] = value.Tuple{value.Str(acct(perm[lo+i])), value.Int(1), value.Float(0.1)}
			}
			w.appendRows(t, rows...)
		}
		loaded := d.Stats()
		for i := 0; i < calls; i++ {
			row := w.call()
			w.appendRows(t, row, row)
		}
		folded, groups := int64(size+2*calls), int64(size+calls)
		for _, v := range vs {
			if st := v.Stats(); st.Touched != groups || st.Versions != groups {
				t.Errorf("|V|=%d %s: %d entries reached and %d versions for %d groups of their calls", size, v.Name(), st.Touched, st.Versions, groups)
			}
		}
		ds := d.Stats()
		if ds.Hashes != folded || ds.Probes != folded {
			t.Errorf("|V|=%d: %d hashes and %d directory probes for %d rows into %d views, want one of each a row", size, ds.Hashes, ds.Probes, folded, members)
		} else if float64(ds.KeyCompares) > 1.01*float64(ds.Probes) {
			t.Errorf("|V|=%d: %d keys read back over %d probes", size, ds.KeyCompares, ds.Probes)
		}
		bound := int64(c * bits.Len(uint(size-1)))
		perKey := float64(loaded.OrderVisits) / float64(size)
		t.Logf("|V|=%d: %.1f keys read to order a new key (bound %d)", size, perKey, bound)
		if loaded.OrderVisits > bound*int64(size) {
			t.Errorf("|V|=%d: ordering the keys read %.1f keys a key, bound %d", size, perKey, bound)
		}
		if d.Len() != size || ds.OrderVisits != loaded.OrderVisits {
			t.Errorf("|V|=%d: %d appends to existing groups read %d keys to order %d new ones, want none",
				size, calls, ds.OrderVisits-loaded.OrderVisits, d.Len()-size)
		}
		w.db.Close()
	}
}

// e11 — Section 2.3, Example 2.2: under proactive relation updates the
// maintained join view equals the reference that joins each call with the
// relation version at its instant (AsOf).
func e11(t *testing.T) {
	states := []string{"nj", "ny", "ca", "tx", "wa"}
	for _, n := range []int{1_000, 10_000} {
		w := newTelecom(t, 256, "ALL", chronicledb.Options{RelationHistory: true},
			`CREATE VIEW by_state AS SELECT state, SUM(minutes) AS total_minutes FROM calls JOIN customers ON calls.acct = customers.acct GROUP BY state`)
		w.fillCustomers(t, 256)
		v := mustView(t, w.db, "by_state")
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < n; i++ {
			if rng.Intn(10) != 0 {
				w.appendCalls(t, 1)
				continue
			}
			must(t, w.db.Upsert("customers", value.Tuple{value.Str(acct(rng.Intn(256))), value.Str(states[rng.Intn(len(states))]), value.Int(0)}))
		}
		want, err := v.Recompute()
		if must(t, err); !slices.EqualFunc(v.Rows(), want, value.TuplesEqual) {
			t.Errorf("%d steps: the view differs from the AsOf reference", n)
		}
		w.db.Close()
	}
}

// e12 — recovery costs the log tail, not the history: a reopen after a
// checkpoint applies exactly the records above its LSN, a reopen without
// one applies all n, and both recover every append.
func e12(t *testing.T) {
	const n, cut = 1024, 896
	for _, c := range []struct {
		checkpoint bool
		replayed   int64
	}{{false, n}, {true, n - cut}} {
		dir := t.TempDir()
		db := open(t, dir, `CREATE CHRONICLE calls (acct STRING, minutes INT)`,
			`CREATE VIEW usage AS SELECT acct, SUM(minutes) AS total FROM calls GROUP BY acct`)
		for i := 0; i < n; i++ {
			if appendCall(t, db, i%16); c.checkpoint && i == cut-1 {
				must(t, db.Checkpoint())
			}
		}
		must(t, db.Close())
		db = open(t, dir)
		if got := db.Stats().Appends; got != c.replayed {
			t.Errorf("checkpoint=%v: reopen applied %d append records, want %d", c.checkpoint, got, c.replayed)
		}
		if row, found, err := db.Lookup("usage", chronicledb.Str(acct(1))); err != nil || !found || row[1].AsInt() != n/16 {
			t.Errorf("checkpoint=%v: recovered %v %v %v, want total %d", c.checkpoint, row, found, err, n/16)
		}
		db.Close()
	}
}

// e13 — Sections 3 and 5.2 through the engine: an append maintains one of 64
// per-account views, and all of 16 unfiltered ones.
func e13(t *testing.T) {
	const appends = 100
	for _, c := range []struct {
		views    int
		filtered bool
		want     int64
	}{{64, true, 1}, {16, false, 16}} {
		stmts := []string{`CREATE CHRONICLE calls (acct STRING, minutes INT)`}
		for i := 0; i < c.views; i++ {
			where := ""
			if c.filtered {
				where = fmt.Sprintf("WHERE acct = '%s'", acct(i))
			}
			stmts = append(stmts, fmt.Sprintf(`CREATE VIEW v%d AS SELECT acct, SUM(minutes) AS m FROM calls %s GROUP BY acct`, i, where))
		}
		db := open(t, "", stmts...)
		before := db.Stats().ViewsMaintained
		for i := 0; i < appends; i++ {
			appendCall(t, db, i%64)
		}
		if got := db.Stats().ViewsMaintained - before; got != c.want*appends {
			t.Errorf("%d views (filtered=%v): %d maintained over %d appends, want %d each", c.views, c.filtered, got, appends, c.want)
		}
		db.Close()
	}
}

// open opens a database in dir (in memory when empty) and runs stmts.
func open(t *testing.T, dir string, stmts ...string) *chronicledb.DB {
	db, err := chronicledb.Open(chronicledb.Options{Dir: dir})
	must(t, err)
	for _, stmt := range stmts {
		_, err := db.Exec(stmt)
		must(t, err)
	}
	return db
}

// appendCall appends one one-minute call of account i.
func appendCall(t *testing.T, db *chronicledb.DB, i int) {
	_, err := db.Append("calls", chronicledb.Tuple{chronicledb.Str(acct(i)), chronicledb.Int(1)})
	must(t, err)
}
