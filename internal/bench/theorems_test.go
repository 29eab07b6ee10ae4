package bench

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	chronicledb "chronicledb"
	"chronicledb/internal/aggregate"
	"chronicledb/internal/algebra"
	"chronicledb/internal/baseline"
	"chronicledb/internal/calendar"
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
// comparisons, tree heights, views maintained, records replayed. The counts
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

// ok fails the test on a set-up error.
func ok(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// telecom builds the workload: accts accounts, customers of them with a row.
func telecom(t *testing.T, accts int, retain chronicle.Retention, history bool, customers int) *Telecom {
	w, err := NewTelecom(accts, retain, history)
	ok(t, err)
	ok(t, w.FillCustomers(customers))
	return w
}

func next(t *testing.T, w *Telecom) algebra.BatchDelta {
	d, _, err := w.NextCall()
	ok(t, err)
	return d
}

// grown returns a workload whose chronicle retains n calls, with a CA₁ view
// (totals per account) maintained over all of them.
func grown(t *testing.T, n int) (*Telecom, *view.View) {
	w := telecom(t, 1024, chronicle.RetainAll, false, 0)
	v := MustView(w.UsageDef("usage"))
	for i := 0; i < n; i++ {
		v.Apply(next(t, w))
	}
	return w, v
}

// classViews appends calls through a CA₁, a CA⋈ and a CA view (usage, per
// state by key join, per state over the cross product) with customers rows in
// the relation, and returns the views and the stored rows each one read.
func classViews(t *testing.T, customers, appends int) (*Telecom, []*view.View, []int64) {
	w := telecom(t, 1024, chronicle.RetainAll, false, customers)
	kd, err := w.KeyJoinDef("cakey")
	ok(t, err)
	cd, err := w.CrossDef("cacross")
	ok(t, err)
	views := []*view.View{MustView(w.UsageDef("ca1")), MustView(kd), MustView(cd)}
	read := make([]int64, len(views))
	for i := 0; i < appends; i++ {
		d := next(t, w)
		for j, v := range views {
			before := w.Calls.RowsRead()
			v.Apply(d)
			read[j] += w.Calls.RowsRead() - before
		}
	}
	return w, views, read
}

// e1 — Theorems 4.4/4.5 vs Proposition 3.1: a CA₁ view's maintenance reads
// no stored chronicle row at any |C| and makes one directory probe and
// reaches one entry per delta row; recomputing the view (full relational
// algebra) reads all |C| rows.
func e1(t *testing.T) {
	const appends = 100
	for _, n := range []int{1_000, 10_000, 100_000} {
		w, v := grown(t, n)
		st, ds, read := v.Stats(), v.Dir().Stats(), w.Calls.RowsRead()
		for i := 0; i < appends; i++ {
			v.Apply(next(t, w))
		}
		if r := w.Calls.RowsRead() - read; r != 0 {
			t.Errorf("|C|=%d: maintenance read %d stored rows, want 0", n, r)
		}
		after := v.Stats()
		rows, reached, probes := after.DeltaRows-st.DeltaRows, after.Touched-st.Touched, v.Dir().Stats().Probes-ds.Probes
		if rows != appends || reached != rows || probes != rows {
			t.Errorf("|C|=%d: %d appends, %d delta rows, %d entries reached, %d directory probes; want one each per append", n, appends, rows, reached, probes)
		}
		rc, err := baseline.NewRecompute(w.UsageDef("usage_rc"))
		ok(t, err)
		read = w.Calls.RowsRead()
		want, err := rc.Refresh()
		if r := w.Calls.RowsRead() - read; r != int64(n+appends) {
			t.Errorf("|C|=%d: recompute read %d stored rows, want all %d", n, r, n+appends)
		}
		if ok(t, err); !slices.EqualFunc(v.Rows(), want, sameRow) {
			t.Errorf("|C|=%d: view and recompute differ", n)
		}
	}
}

// e2 — Theorem 4.5 in |R|: CA₁ makes no relation probe; CA⋈ makes exactly
// one key probe per delta row, each a descent of at most 1 + ⌈log₃₂ |R|⌉
// nodes; the cross product visits all |R| rows per append.
func e2(t *testing.T) {
	const appends = 4
	for _, size := range []int{1_000, 8_000, 64_000} {
		// The 1 024 accounts all have a customer row, so every call joins.
		w, views, _ := classViews(t, size, appends)
		ca1, key, cross := views[0], views[1], views[2]
		if wk := algebra.RelationWork(ca1.Def().Expr); wk != (algebra.RelWork{}) {
			t.Errorf("|R|=%d: CA₁ read the relation: %+v", size, wk)
		}
		kw, rows := algebra.RelationWork(key.Def().Expr), key.Stats().DeltaRows
		if kw.Probes != appends || rows != appends || kw.Scanned != 0 {
			t.Errorf("|R|=%d: CA⋈ made %d probes, scanned %d rows, for %d delta rows; want one probe a row", size, kw.Probes, kw.Scanned, rows)
		}
		if h := w.Cust.Height(); !logHeight(h, size) {
			t.Errorf("|R|=%d: relation tree height %d", size, h)
		}
		cw, crows := algebra.RelationWork(cross.Def().Expr), cross.Stats().DeltaRows
		if want := int64(appends * size); crows != want || cw.Scanned != want || cw.Probes != 0 {
			t.Errorf("|R|=%d: the cross product got %d delta rows, scanned %d, probed %d; want |R| rows scanned an append", size, crows, cw.Scanned, cw.Probes)
		}
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
// row, is IM-Cᵏ).
func e3(t *testing.T) {
	_, views, read := classViews(t, 1024, 50)
	for j, v := range views {
		if c := classOf(read[j], algebra.RelationWork(v.Def().Expr)); c != v.IMClass() {
			t.Errorf("%s (%s) is declared %s, its counted work is %s", v.Name(), v.Lang(), v.IMClass(), c)
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
	acct := value.Str(Acct(7))
	for _, n := range []int{1_000, 10_000, 100_000} {
		w, v := grown(t, n)
		read := w.Calls.RowsRead()
		row, found := v.Lookup(value.Tuple{acct})
		if r := w.Calls.RowsRead() - read; r != 0 || !found {
			t.Errorf("|C|=%d: the lookup read %d stored rows (found %v), want 0", n, r, found)
		}
		read = w.Calls.RowsRead()
		sum, err := baseline.ScanQuery(w.Calls, 0, acct, aggregate.Sum, 1)
		if r := w.Calls.RowsRead() - read; r != int64(n) {
			t.Errorf("|C|=%d: the scan read %d stored rows, want all", n, r)
		}
		if ok(t, err); !found || !value.Equal(row[1], sum) {
			t.Errorf("|C|=%d: view says %v, scan says %v", n, row, sum)
		}
	}
}

// e5 — Theorem 4.2: an append's delta through u unions and j cross products
// with R has |R|ʲ rows (the unions' operands derive the same tuples, which
// set semantics collapses); through key joins it has one.
func e5(t *testing.T) {
	const relSize = 16
	w := telecom(t, relSize, chronicle.RetainNone, false, relSize)
	check := func(u, j int, key bool, want int) {
		var expr algebra.Node = algebra.NewScan(w.Calls)
		var err error
		for i := 0; i < u; i++ {
			sel, err := algebra.NewSelect(algebra.NewScan(w.Calls), pred.Or(pred.ColConst(1, pred.Ge, value.Int(0))))
			ok(t, err)
			expr, err = algebra.NewUnion(expr, sel)
			ok(t, err)
		}
		for i := 0; i < j; i++ {
			if key {
				expr, err = algebra.NewJoinRel(expr, w.Cust, []int{0}, []int{0})
			} else {
				expr, err = algebra.NewCrossRel(expr, w.Cust)
			}
			ok(t, err)
		}
		if n := len(algebra.Delta(expr, next(t, w))); n != want {
			t.Errorf("u=%d j=%d key=%v: %d delta rows for an append, want %d", u, j, key, n, want)
		}
	}
	for u := 0; u <= 2; u++ {
		for j, rows := 0, 1; j <= 2; j, rows = j+1, rows*relSize {
			check(u, j, false, rows)
		}
	}
	check(2, 2, true, 1)
}

// e6 — Section 5.1's moving window on the database's own path: a family of
// windows WIDTH = r·EVERY folds each row once, into its span's pane (for r
// = 1 the window is its own pane), whatever r is; a window that closes
// merges at most 2r pane groups per key into its table; and every live
// instance, open or closed, equals a naive fold of the rows in its window,
// across chronons the rows skip.
func e6(t *testing.T) {
	const every, rows = 10, 2000
	for _, r := range []int64{1, 2, 8, 30} {
		w := telecom(t, 64, chronicle.RetainNone, false, 0)
		cal, err := calendar.NewPeriodic(0, every, r*every)
		ok(t, err)
		pv, err := calendar.NewPeriodicView("moving", w.UsageDef("moving"), cal, -1, nil)
		ok(t, err)
		type call struct {
			ch      int64
			acct    string
			minutes int64
		}
		var calls []call
		folded := map[*view.View]int64{} // each table's folded rows when last seen
		var folds int64
		for i := 0; i < rows; i++ {
			d, ch, err := w.NextCallAt(int64(i/2) * 3 / 2) // every third chronon gets no rows
			ok(t, err)
			row := d[w.Calls][0]
			calls = append(calls, call{ch, row.Vals[0].AsString(), row.Vals[1].AsInt()})
			ok(t, pv.Apply(d))
			// A pane is freed only once no open window covers it, after the
			// calls that fold into it.
			tables := pv.PanesOf(calendar.Interval{Start: math.MinInt64, End: math.MaxInt64})
			for _, inst := range pv.Instances() {
				tables = append(tables, inst.View)
			}
			for _, v := range tables {
				n := v.Stats().DeltaRows
				folds += n - folded[v]
				folded[v] = n
			}
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
				if inst.View.ReadsThrough() {
					continue
				}
				closed++
				if m := inst.View.Stats().Merges; r == 1 && m != 0 || m > 2*r*int64(len(got)) {
					t.Errorf("r=%d: closing %v merged %d pane groups into its %d keys, want at most %d a key", r, inst.Interval, m, len(got), 2*r)
				}
			}
			if closed == 0 && i == rows-1 {
				t.Errorf("r=%d: no window has closed", r)
			}
		}
		if folds != rows {
			t.Errorf("r=%d: the family's tables folded %d delta rows for %d rows appended, want one each", r, folds, rows)
		}
	}
}

// e7 — Section 5.2: identifying the affected views costs the same at 16 and
// at 16 384 registered per-account views: one equality-index probe per row,
// no target examined.
func e7(t *testing.T) {
	for _, n := range []int{16, 16_384} {
		w, d := telecom(t, n, chronicle.RetainNone, false, 0), dispatch.New()
		for i := 0; i < n; i++ {
			ok(t, d.Register(&dispatch.Target{
				ID:              fmt.Sprintf("balance_%d", i),
				Chronicles:      []*chronicle.Chronicle{w.Calls},
				Filter:          pred.Or(pred.ColConst(0, pred.Eq, value.Str(Acct(i)))),
				FilterChronicle: w.Calls,
			}))
		}
		rows := []chronicle.Row{{SN: 1, Vals: value.Tuple{value.Str(Acct(3)), value.Int(7), value.Float(1)}}}
		before := d.Probes + d.Scanned
		if got := d.Affected(w.Calls, rows); len(got) != 1 || got[0].ID != "balance_3" {
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
		for _, expireAfter := range []int64{1000, -1} { // one period of grace, or never
			w := telecom(t, 64, chronicle.RetainNone, false, 0)
			cal, err := calendar.NewPeriodic(0, 1000, 1000)
			ok(t, err)
			pv, err := calendar.NewPeriodicView("monthly", w.UsageDef("monthly"), cal, expireAfter, nil)
			ok(t, err)
			seen, held := map[string]bool{}, 0 // keys seen; keys the instances ever held, summed
			for i := 0; i < periods*perPeriod; i++ {
				d, _, err := w.NextCallAt(int64(i / perPeriod * 1000))
				ok(t, err)
				for _, r := range d[w.Calls] {
					seen[r.Vals[0].AsString()] = true
				}
				ok(t, pv.Apply(d))
				if i%perPeriod == perPeriod-1 {
					for _, inst := range pv.ActiveAt(int64(i / perPeriod * 1000)) {
						held += inst.Len()
					}
				}
			}
			if live := pv.Live(); expireAfter >= 0 && live > 2 || expireAfter < 0 && live != periods {
				t.Errorf("%d periods, expireAfter %d: %d live instances", periods, expireAfter, live)
			}
			if expireAfter >= 0 {
				for _, inst := range pv.Instances() {
					if keys := inst.View.Dir().Len(); keys != inst.View.Len() {
						t.Errorf("%d periods, expireAfter %d: instance %v's directory holds %d keys for its %d groups",
							periods, expireAfter, inst.Interval, keys, inst.View.Len())
					}
				}
			} else if keys := pv.Dir().Len(); keys != len(seen) || periods == 60 && held < 10*keys {
				t.Errorf("%d periods, expireAfter %d: the family's directory holds %d keys, want the %d seen (its instances held %d)",
					periods, expireAfter, keys, len(seen), held)
			}
		}
	}
}

// e9 — Section 5.3: the tiered discount maintained per record equals the
// batch computation at period end, exactly.
func e9(t *testing.T) {
	sched, err := tiers.NewSchedule(tiers.AllUnits, tiers.Tier{Threshold: 10, Rate: 0.10}, tiers.Tier{Threshold: 25, Rate: 0.20})
	ok(t, err)
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
// Mutation-checked: a directory that orders every resolved id, not only the
// new ones, reads keys for the appends' existing groups.
func e10(t *testing.T) {
	const appends, members, c = 1000, 3, 3
	for _, size := range []int{1_000, 10_000, 100_000} {
		w := telecom(t, size, chronicle.RetainNone, false, 0)
		// Three summaries of one expression by one column, as the engine
		// builds them: they share one directory.
		d := view.NewDir("usage")
		vs := make([]*view.View, members)
		for i := range vs {
			v, err := view.NewIn(w.UsageDef(fmt.Sprintf("usage%d", i)), d)
			ok(t, err)
			vs[i] = v
		}
		call := uint64(0)
		fold := func(rows []chronicle.Row) {
			call++
			for _, v := range vs {
				v.ApplyCall(call, rows)
			}
			for _, v := range vs {
				v.Publish()
			}
		}
		// |V| groups, one synthesized row each, loaded by calls of a
		// thousand in no key order: the directory's table doubles under
		// published entries, and every key is ordered by a search.
		rows := make([]chronicle.Row, 1000)
		perm := rand.New(rand.NewSource(int64(size))).Perm(size)
		for lo := 0; lo < size; lo += len(rows) {
			for i := range rows {
				rows[i] = chronicle.Row{SN: int64(lo + i), Vals: value.Tuple{value.Str(Acct(perm[lo+i])), value.Int(1), value.Float(0.1)}}
			}
			fold(rows)
		}
		loaded := d.Stats()
		for i := 0; i < appends; i++ {
			fold(vs[0].Delta(next(t, w)))
		}
		folded := int64(size + appends)
		for _, v := range vs {
			if st := v.Stats(); st.Touched != folded || st.Versions != folded {
				t.Errorf("|V|=%d %s: %d entries reached and %d versions for %d rows, each a group of its call", size, v.Name(), st.Touched, st.Versions, folded)
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
				size, appends, ds.OrderVisits-loaded.OrderVisits, d.Len()-size)
		}
	}
}

// e11 — Section 2.3, Example 2.2: under proactive relation updates the
// maintained join view equals the reference that joins each call with the
// relation version at its instant (AsOf).
func e11(t *testing.T) {
	states := []string{"nj", "ny", "ca", "tx", "wa"}
	for _, n := range []int{1_000, 10_000} {
		w := telecom(t, 256, chronicle.RetainAll, true, 256)
		kd, err := w.KeyJoinDef("by_state")
		ok(t, err)
		v := MustView(kd)
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < n; i++ {
			if rng.Intn(10) != 0 {
				v.Apply(next(t, w))
				continue
			}
			w.lsn++
			ok(t, w.Cust.Upsert(w.lsn, value.Tuple{value.Str(Acct(rng.Intn(256))), value.Str(states[rng.Intn(len(states))]), value.Int(0)}))
		}
		want, err := v.Recompute()
		if ok(t, err); !slices.EqualFunc(v.Rows(), want, sameRow) {
			t.Errorf("%d steps: the view differs from the AsOf reference", n)
		}
	}
}

func sameRow(a, b value.Tuple) bool { return a.FullKey() == b.FullKey() }

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
				ok(t, db.Checkpoint())
			}
		}
		ok(t, db.Close())
		db = open(t, dir)
		if got := db.Stats().Appends; got != c.replayed {
			t.Errorf("checkpoint=%v: reopen applied %d append records, want %d", c.checkpoint, got, c.replayed)
		}
		if row, found, err := db.Lookup("usage", chronicledb.Str(Acct(1))); err != nil || !found || row[1].AsInt() != n/16 {
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
				where = fmt.Sprintf("WHERE acct = '%s'", Acct(i))
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
	ok(t, err)
	for _, stmt := range stmts {
		_, err := db.Exec(stmt)
		ok(t, err)
	}
	return db
}

// appendCall appends one one-minute call of account i.
func appendCall(t *testing.T, db *chronicledb.DB, i int) {
	_, err := db.Append("calls", chronicledb.Tuple{chronicledb.Str(Acct(i)), chronicledb.Int(1)})
	ok(t, err)
}
