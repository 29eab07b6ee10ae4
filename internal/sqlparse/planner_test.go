package sqlparse

import (
	"fmt"
	"strings"
	"testing"

	"chronicledb/internal/aggregate"
	"chronicledb/internal/algebra"
	"chronicledb/internal/chronicle"
	"chronicledb/internal/relation"
	"chronicledb/internal/value"
	"chronicledb/internal/view"
)

// testCatalog is a static Catalog for planner tests.
type testCatalog struct {
	chronicles map[string]*chronicle.Chronicle
	relations  map[string]*relation.Relation
}

func (c *testCatalog) Chronicle(name string) (*chronicle.Chronicle, bool) {
	v, ok := c.chronicles[name]
	return v, ok
}

func (c *testCatalog) Relation(name string) (*relation.Relation, bool) {
	v, ok := c.relations[name]
	return v, ok
}

func newCatalog(t *testing.T) *testCatalog {
	t.Helper()
	g := chronicle.NewGroup("telecom")
	calls, err := g.NewChronicle("calls", value.NewSchema(
		value.Column{Name: "acct", Kind: value.KindString},
		value.Column{Name: "minutes", Kind: value.KindInt},
		value.Column{Name: "cost", Kind: value.KindFloat},
	), chronicle.RetainNone)
	if err != nil {
		t.Fatal(err)
	}
	payments, err := g.NewChronicle("payments", value.NewSchema(
		value.Column{Name: "acct", Kind: value.KindString},
		value.Column{Name: "amount", Kind: value.KindFloat},
	), chronicle.RetainNone)
	if err != nil {
		t.Fatal(err)
	}
	cust, err := relation.New("customers", value.NewSchema(
		value.Column{Name: "acct", Kind: value.KindString},
		value.Column{Name: "state", Kind: value.KindString},
	), []int{0}, false)
	if err != nil {
		t.Fatal(err)
	}
	return &testCatalog{
		chronicles: map[string]*chronicle.Chronicle{"calls": calls, "payments": payments},
		relations:  map[string]*relation.Relation{"customers": cust},
	}
}

func planView(t *testing.T, cat Catalog, src string) *ViewPlan {
	t.Helper()
	s, err := ParseOne(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	plan, err := PlanView(cat, s.(*CreateView))
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	return plan
}

func expectPlanError(t *testing.T, cat Catalog, src, fragment string) {
	t.Helper()
	s, err := ParseOne(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	_, err = PlanView(cat, s.(*CreateView))
	if err == nil {
		t.Fatalf("PlanView(%q) succeeded, want error about %q", src, fragment)
	}
	if !strings.Contains(err.Error(), fragment) {
		t.Errorf("error %q does not mention %q", err, fragment)
	}
}

func TestPlanSimpleGroupBy(t *testing.T) {
	cat := newCatalog(t)
	plan := planView(t, cat,
		"CREATE VIEW totals AS SELECT acct, SUM(cost) AS total, COUNT(*) AS n FROM calls GROUP BY acct")
	if plan.Def.Mode != view.SummarizeGroupBy {
		t.Errorf("mode = %v", plan.Def.Mode)
	}
	if len(plan.Def.GroupCols) != 1 || plan.Def.GroupCols[0] != 0 {
		t.Errorf("group cols = %v", plan.Def.GroupCols)
	}
	if len(plan.Def.Aggs) != 2 || plan.Def.Aggs[0].Col != 2 || plan.Def.Aggs[1].Col != -1 {
		t.Errorf("aggs = %+v", plan.Def.Aggs)
	}
	if plan.Info.Lang != algebra.LangCA1 || plan.Info.IMClass() != algebra.IMConstant {
		t.Errorf("classified %s/%s", plan.Info.Lang, plan.Info.IMClass())
	}
}

func TestPlanDefaultAggNames(t *testing.T) {
	cat := newCatalog(t)
	plan := planView(t, cat,
		"CREATE VIEW v AS SELECT acct, SUM(cost), COUNT(*) FROM calls GROUP BY acct")
	if plan.Def.Aggs[0].Name != "sum_cost" || plan.Def.Aggs[1].Name != "count" {
		t.Errorf("agg names = %+v", plan.Def.Aggs)
	}
}

func TestPlanKeyJoinClassifiesCAKey(t *testing.T) {
	cat := newCatalog(t)
	plan := planView(t, cat, `CREATE VIEW by_state AS
		SELECT state, SUM(minutes) AS total FROM calls
		JOIN customers ON calls.acct = customers.acct
		GROUP BY state`)
	if plan.Info.Lang != algebra.LangCAKey || plan.Info.IMClass() != algebra.IMLogR {
		t.Errorf("classified %s/%s", plan.Info.Lang, plan.Info.IMClass())
	}
	// state resolves to the relation-side column (index 4 after concat).
	if len(plan.Def.GroupCols) != 1 || plan.Def.GroupCols[0] != 4 {
		t.Errorf("group cols = %v", plan.Def.GroupCols)
	}
}

func TestPlanSwappedJoinSides(t *testing.T) {
	cat := newCatalog(t)
	plan := planView(t, cat, `CREATE VIEW v AS
		SELECT state, COUNT(*) AS n FROM calls
		JOIN customers ON customers.acct = calls.acct
		GROUP BY state`)
	if plan.Info.Lang != algebra.LangCAKey {
		t.Errorf("swapped join classified %s", plan.Info.Lang)
	}
}

func TestPlanNonKeyJoinClassifiesCA(t *testing.T) {
	cat := newCatalog(t)
	plan := planView(t, cat, `CREATE VIEW v AS
		SELECT minutes, COUNT(*) AS n FROM calls
		JOIN customers ON calls.acct = customers.state
		GROUP BY minutes`)
	if plan.Info.Lang != algebra.LangCA || plan.Info.IMClass() != algebra.IMRk {
		t.Errorf("non-key join classified %s/%s", plan.Info.Lang, plan.Info.IMClass())
	}
}

func TestPlanCrossJoinClassifiesCA(t *testing.T) {
	cat := newCatalog(t)
	plan := planView(t, cat,
		"CREATE VIEW v AS SELECT calls.acct, COUNT(*) AS n FROM calls CROSS JOIN customers GROUP BY calls.acct")
	if plan.Info.Lang != algebra.LangCA {
		t.Errorf("cross join classified %s", plan.Info.Lang)
	}
}

func TestPlanWhereStacksSelections(t *testing.T) {
	cat := newCatalog(t)
	plan := planView(t, cat, `CREATE VIEW v AS
		SELECT acct, SUM(cost) AS total FROM calls
		WHERE minutes > 0 AND (acct = 'a' OR acct = 'b')
		GROUP BY acct`)
	// Two stacked selections above the scan.
	s1, ok := plan.Def.Expr.(*algebra.Select)
	if !ok {
		t.Fatalf("root = %T", plan.Def.Expr)
	}
	if _, ok := s1.In.(*algebra.Select); !ok {
		t.Fatalf("second selection missing: %T", s1.In)
	}
}

func TestPlanDispatchFilterExtraction(t *testing.T) {
	cat := newCatalog(t)
	plan := planView(t, cat, `CREATE VIEW mine AS
		SELECT acct, SUM(cost) AS total FROM calls
		WHERE acct = 'acct7' AND minutes > 0
		GROUP BY acct`)
	filter, base := algebra.DispatchFilter(plan.Def.Expr)
	if base == nil {
		t.Fatal("dispatch filter not extracted")
	}
	if col, k, ok := filter.EqualityConstant(); !ok || col != 0 || k.AsString() != "acct7" {
		t.Errorf("filter = %v %v %v", col, k, ok)
	}
	// Range-only WHERE extracts nothing.
	plan = planView(t, cat, `CREATE VIEW big AS
		SELECT acct, SUM(cost) AS total FROM calls WHERE minutes > 100 GROUP BY acct`)
	if _, base := algebra.DispatchFilter(plan.Def.Expr); base != nil {
		t.Error("range filter wrongly used for dispatch index")
	}
}

func TestPlanProjectViews(t *testing.T) {
	cat := newCatalog(t)
	plan := planView(t, cat, "CREATE VIEW accts AS SELECT DISTINCT acct FROM calls")
	if plan.Def.Mode != view.SummarizeProject || len(plan.Def.Cols) != 1 || plan.Def.Cols[0] != 0 {
		t.Errorf("%+v", plan.Def)
	}
	plan = planView(t, cat, "CREATE VIEW everything AS SELECT * FROM calls")
	if len(plan.Def.Cols) != 3 {
		t.Errorf("star cols = %v", plan.Def.Cols)
	}
}

func TestPlanPeriodic(t *testing.T) {
	cat := newCatalog(t)
	plan := planView(t, cat, `CREATE PERIODIC VIEW monthly AS
		SELECT acct, SUM(cost) AS total FROM calls GROUP BY acct
		EVERY 100 WIDTH 300 EXPIRE 50`)
	if plan.Periodic == nil {
		t.Fatal("periodic plan missing")
	}
	if plan.Periodic.Calendar.Period != 100 || plan.Periodic.Calendar.Width != 300 {
		t.Errorf("calendar = %+v", plan.Periodic.Calendar)
	}
	if plan.Periodic.ExpireAfter != 50 {
		t.Errorf("expire = %d", plan.Periodic.ExpireAfter)
	}
	// Default width = period; default expire = -1.
	plan = planView(t, cat, `CREATE PERIODIC VIEW m2 AS
		SELECT acct, SUM(cost) AS total FROM calls GROUP BY acct EVERY 100`)
	if plan.Periodic.Calendar.Width != 100 || plan.Periodic.ExpireAfter != -1 {
		t.Errorf("defaults = %+v expire %d", plan.Periodic.Calendar, plan.Periodic.ExpireAfter)
	}
}

// TestPlanStoreSelection: every view has one store, and the WITH STORE
// clause of older DDL is accepted and changes nothing — the plan is the one
// without it.
func TestPlanStoreSelection(t *testing.T) {
	cat := newCatalog(t)
	const stmt = "CREATE VIEW v AS SELECT acct, COUNT(*) AS n FROM calls GROUP BY acct"
	want := planView(t, cat, stmt)
	for _, store := range []string{"BTREE", "HASH", "btree"} {
		plan := planView(t, cat, stmt+" WITH STORE "+store)
		if fmt.Sprint(plan.Def, plan.Info) != fmt.Sprint(want.Def, want.Info) {
			t.Errorf("WITH STORE %s planned %+v, want %+v", store, plan.Def, want.Def)
		}
	}
}

func TestPlanErrors(t *testing.T) {
	cat := newCatalog(t)
	expectPlanError(t, cat,
		"CREATE VIEW v AS SELECT acct, COUNT(*) AS n FROM nowhere GROUP BY acct",
		"unknown chronicle")
	expectPlanError(t, cat,
		"CREATE VIEW v AS SELECT acct, COUNT(*) AS n FROM customers GROUP BY acct",
		"is a relation")
	expectPlanError(t, cat,
		"CREATE VIEW v AS SELECT acct, COUNT(*) AS n FROM calls JOIN payments ON calls.acct = payments.acct GROUP BY acct",
		"Theorem 4.3")
	expectPlanError(t, cat,
		"CREATE VIEW v AS SELECT acct, COUNT(*) AS n FROM calls JOIN customers ON calls.minutes > customers.acct GROUP BY acct",
		"equijoin")
	expectPlanError(t, cat,
		"CREATE VIEW v AS SELECT acct, COUNT(*) AS n FROM calls JOIN customers ON calls.acct = 'x' GROUP BY acct",
		"compare columns")
	expectPlanError(t, cat,
		"CREATE VIEW v AS SELECT nothere, COUNT(*) AS n FROM calls GROUP BY nothere",
		"unknown column")
	expectPlanError(t, cat,
		"CREATE VIEW v AS SELECT minutes, SUM(cost) AS s FROM calls GROUP BY acct",
		"not in GROUP BY")
	expectPlanError(t, cat,
		"CREATE VIEW v AS SELECT acct, MEDIAN(cost) AS m FROM calls GROUP BY acct",
		"unknown aggregation")
	expectPlanError(t, cat,
		"CREATE VIEW v AS SELECT acct, SUM(*) AS s FROM calls GROUP BY acct",
		"COUNT(*)")
	expectPlanError(t, cat,
		"CREATE VIEW v AS SELECT acct FROM calls GROUP BY acct",
		"at least one aggregation")
	expectPlanError(t, cat,
		"CREATE VIEW v AS SELECT * FROM calls GROUP BY acct",
		"SELECT *")
	// Ambiguous column after join (acct exists on both sides).
	expectPlanError(t, cat, `CREATE VIEW v AS
		SELECT acct, COUNT(*) AS n FROM calls
		JOIN customers ON calls.acct = customers.acct GROUP BY acct`,
		"ambiguous")
}

func TestLowerWhere(t *testing.T) {
	names := []string{"acct", "total"}
	be := &BoolExpr{Conj: [][]Cond{
		{{Left: ColRef{Name: "acct"}, Op: "=", Right: value.Str("a")}},
		{{Left: ColRef{Name: "total"}, Op: ">", Right: value.Int(10)}},
	}}
	preds, err := LowerWhere(names, be)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 2 {
		t.Fatalf("preds = %d", len(preds))
	}
	row := value.Tuple{value.Str("a"), value.Int(20)}
	if !preds[0].Eval(row) || !preds[1].Eval(row) {
		t.Error("lowered predicates misevaluate")
	}
	if _, err := LowerWhere(names, &BoolExpr{Conj: [][]Cond{
		{{Left: ColRef{Name: "ghost"}, Op: "=", Right: value.Int(1)}},
	}}); err == nil {
		t.Error("unknown column accepted")
	}
	if got, err := LowerWhere(names, nil); err != nil || got != nil {
		t.Error("nil where should lower to nil")
	}
}

func TestPlanSNJoin(t *testing.T) {
	cat := newCatalog(t)
	plan := planView(t, cat, `CREATE VIEW joined AS
		SELECT calls.acct, SUM(amount) AS paid FROM calls
		JOIN payments ON SN
		GROUP BY calls.acct`)
	if plan.Info.Joins != 1 || plan.Info.Lang != algebra.LangCA1 {
		t.Errorf("SN join: joins=%d lang=%s", plan.Info.Joins, plan.Info.Lang)
	}
	// amount resolves to the payments side.
	if plan.Def.Aggs[0].Col != 4 {
		t.Errorf("agg col = %d", plan.Def.Aggs[0].Col)
	}
	expectPlanError(t, cat, `CREATE VIEW bad AS
		SELECT calls.acct, COUNT(*) AS n FROM calls JOIN customers ON SN GROUP BY calls.acct`,
		"not a chronicle")
}

func TestPlanNumericAggregateValidation(t *testing.T) {
	cat := newCatalog(t)
	expectPlanError(t, cat,
		"CREATE VIEW v AS SELECT minutes, SUM(acct) AS s FROM calls GROUP BY minutes",
		"numeric")
	expectPlanError(t, cat,
		"CREATE VIEW v AS SELECT minutes, STDDEV(acct) AS s FROM calls GROUP BY minutes",
		"numeric")
	// MIN/MAX over strings stay legal.
	plan := planView(t, cat,
		"CREATE VIEW v AS SELECT minutes, MIN(acct) AS first_acct FROM calls GROUP BY minutes")
	if plan.Def.Aggs[0].Func != aggregate.Min {
		t.Errorf("aggs = %+v", plan.Def.Aggs)
	}
}
