package engine

import (
	"fmt"
	"testing"

	"chronicledb/internal/algebra"
	"chronicledb/internal/calendar"
	"chronicledb/internal/chronicle"
	"chronicledb/internal/pred"
	"chronicledb/internal/value"
	"chronicledb/internal/view"
)

// customerDef is the §5.2 view of one customer: σ(acct = 'aN')(calls)
// summarized by acct, two plan nodes (the scan and the σ).
func customerDef(t testing.TB, c *chronicle.Chronicle, name string, i int) view.Def {
	t.Helper()
	sel, err := algebra.NewSelect(algebra.NewScan(c), pred.Or(pred.ColConst(0, pred.Eq, value.Str(fmt.Sprint("a", i)))))
	if err != nil {
		t.Fatal(err)
	}
	def := usageDef(c)
	def.Name, def.Expr = name, sel
	return def
}

// TestCreateViewKeysItsOwnNodes is the counted guard of DDL cost: the n-th
// CREATE VIEW keys the two nodes of its own expression in the shared plan,
// for every n up to 2 000, and a periodic family keys its own the same way —
// nothing of the views before it. Dropping all of them leaves the plan
// empty.
func TestCreateViewKeysItsOwnNodes(t *testing.T) {
	e, _ := newEngine(t)
	c := mustCreateCalls(t, e)
	cal, err := calendar.NewPeriodic(0, 100, 100)
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	for i := range n {
		before := e.plan.Keyed()
		def := customerDef(t, c, fmt.Sprint("v", i), i)
		if i%10 == 9 {
			def.Name = fmt.Sprint("f", i)
			if _, err := e.CreatePeriodicView(def.Name, def, cal, -1); err != nil {
				t.Fatal(err)
			}
		} else if _, err := e.CreateView(def); err != nil {
			t.Fatal(err)
		}
		if keyed := e.plan.Keyed() - before; keyed != 2 {
			t.Fatalf("statement %d keyed %d plan nodes, want its own 2", i, keyed)
		}
	}
	if got := e.plan.Nodes(); got != n+1 { // one σ each over one shared scan
		t.Fatalf("%d plan nodes, want %d", got, n+1)
	}
	for i := range n {
		name := fmt.Sprint("v", i)
		if i%10 == 9 {
			name = fmt.Sprint("f", i)
		}
		if err := e.DropView(name); err != nil {
			t.Fatal(err)
		}
	}
	if e.plan.Nodes() != 0 || e.plan.Views() != 0 || len(e.cohorts) != 0 {
		t.Fatalf("after dropping every view: %d plan nodes, %d views, %d cohorts", e.plan.Nodes(), e.plan.Views(), len(e.cohorts))
	}
}

// TestPlanAfterDropsAndCall: 64 views over one σ prefix fold a 1 000-row
// call and are dropped; the plan is back to its one remaining view's nodes,
// which still maintain it.
func TestPlanAfterDropsAndCall(t *testing.T) {
	e, _ := newEngine(t)
	c := mustCreateCalls(t, e)
	if _, err := e.CreateView(usageDef(c)); err != nil {
		t.Fatal(err)
	}
	base := e.plan.Nodes()
	for i := range 64 {
		if _, err := e.CreateView(customerDef(t, c, fmt.Sprint("v", i), i)); err != nil {
			t.Fatal(err)
		}
	}
	rows := make([]value.Tuple, 1000)
	for i := range rows {
		rows[i] = value.Tuple{value.Str(fmt.Sprint("a", i%80)), value.Int(1)}
	}
	if _, _, err := appendEach(e, "calls", rows); err != nil {
		t.Fatal(err)
	}
	for i := range 64 {
		if err := e.DropView(fmt.Sprint("v", i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.plan.Nodes(); got != base {
		t.Fatalf("%d plan nodes after the drops, want %d", got, base)
	}
	if _, _, err := appendEach(e, "calls", rows[:16]); err != nil {
		t.Fatal(err)
	}
	got, ok := e.views["usage"].Lookup(value.Tuple{value.Str("a1")})
	if !ok || got[1].AsInt() != 14 { // 13 rows of the call and one of the 16
		t.Fatalf("usage[a1] = %v, %v; want a total of 14", got, ok)
	}
}

// TestCohortSurvivesItsFirstMember: the family a cohort is found by can be
// dropped; a family made after it joins the cohort of the ones left, and
// the last drop of a cohort takes its entry.
func TestCohortSurvivesItsFirstMember(t *testing.T) {
	e, _ := newEngine(t)
	c := mustCreateCalls(t, e)
	cal, err := calendar.NewPeriodic(0, 100, 100)
	if err != nil {
		t.Fatal(err)
	}
	family := func(name string, i int) *calendar.PeriodicView {
		t.Helper()
		pv, err := e.CreatePeriodicView(name, customerDef(t, c, name, i), cal, -1)
		if err != nil {
			t.Fatal(err)
		}
		return pv
	}
	family("a", 1)
	b := family("b", 1)
	other := family("other", 2) // another σ: a cohort of its own
	if other.Peer() != nil {
		t.Fatal("a family of another expression joined a cohort")
	}
	if err := e.DropView("a"); err != nil {
		t.Fatal(err)
	}
	if d := family("d", 1); d.Peer() != b {
		t.Fatalf("d joined %v's cohort, want b's", d.Peer())
	}
	for _, n := range []string{"b", "d", "other"} {
		if err := e.DropView(n); err != nil {
			t.Fatal(err)
		}
	}
	if len(e.cohorts) != 0 {
		t.Fatalf("%d cohorts left after the last drop", len(e.cohorts))
	}
}
