package algebra

import (
	"fmt"
	"strings"
	"testing"

	"chronicledb/internal/aggregate"
	"chronicledb/internal/chronicle"
	"chronicledb/internal/pred"
	"chronicledb/internal/relation"
	"chronicledb/internal/value"
)

// fixture is the shared test scenario: a telecom-ish chronicle group with
// two chronicles and a keyed customer relation with version history.
type fixture struct {
	group    *chronicle.Group
	calls    *chronicle.Chronicle // (acct string, minutes int)
	payments *chronicle.Chronicle // (acct string, amount int)
	cust     *relation.Relation   // (acct string KEY, state string, bonus int)
	lsn      uint64
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	g := chronicle.NewGroup("telecom")
	calls, err := g.NewChronicle("calls", value.NewSchema(
		value.Column{Name: "acct", Kind: value.KindString},
		value.Column{Name: "minutes", Kind: value.KindInt},
	), chronicle.RetainAll)
	if err != nil {
		t.Fatal(err)
	}
	payments, err := g.NewChronicle("payments", value.NewSchema(
		value.Column{Name: "acct", Kind: value.KindString},
		value.Column{Name: "amount", Kind: value.KindInt},
	), chronicle.RetainAll)
	if err != nil {
		t.Fatal(err)
	}
	cust, err := relation.New("customers", value.NewSchema(
		value.Column{Name: "acct", Kind: value.KindString},
		value.Column{Name: "state", Kind: value.KindString},
		value.Column{Name: "bonus", Kind: value.KindInt},
	), []int{0}, true)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{group: g, calls: calls, payments: payments, cust: cust}
}

func (f *fixture) nextLSN() uint64 { f.lsn++; return f.lsn }

func (f *fixture) upsertCust(t testing.TB, acct, state string, bonus int64) {
	t.Helper()
	if err := f.cust.Upsert(f.nextLSN(), value.Tuple{value.Str(acct), value.Str(state), value.Int(bonus)}); err != nil {
		t.Fatal(err)
	}
}

func (f *fixture) appendCall(t testing.TB, acct string, minutes int64) BatchDelta {
	t.Helper()
	rows, err := f.calls.Append(f.group.NextSN(), f.group.NextSN()*1000, f.nextLSN(),
		[]value.Tuple{{value.Str(acct), value.Int(minutes)}})
	if err != nil {
		t.Fatal(err)
	}
	return BatchDelta{f.calls: rows}
}

func (f *fixture) appendBoth(t testing.TB, acct string, minutes, amount int64) BatchDelta {
	t.Helper()
	got := BatchDelta{}
	if _, err := f.group.AppendBatchInto(f.group.NextSN(), f.group.NextSN()*1000, f.nextLSN(), []chronicle.BatchPart{
		{C: f.calls, Tuples: []value.Tuple{{value.Str(acct), value.Int(minutes)}}},
		{C: f.payments, Tuples: []value.Tuple{{value.Str(acct), value.Int(amount)}}},
	}, nil, got); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestScanNode(t *testing.T) {
	f := newFixture(t)
	s := NewScan(f.calls)
	if s.Schema() != f.calls.Schema() || s.Group() != f.group {
		t.Error("scan metadata mismatch")
	}
	if s.String() != "calls" {
		t.Errorf("String = %q", s.String())
	}
}

func TestSelectValidation(t *testing.T) {
	f := newFixture(t)
	if _, err := NewSelect(NewScan(f.calls), pred.Or(pred.ColConst(5, pred.Eq, value.Int(1)))); err == nil {
		t.Error("out-of-range predicate accepted")
	}
	s, err := NewSelect(NewScan(f.calls), pred.Or(pred.ColConst(1, pred.Gt, value.Int(10))))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s.String(), "minutes > 10") {
		t.Errorf("String = %q", s.String())
	}
}

func TestProjectValidation(t *testing.T) {
	f := newFixture(t)
	if _, err := NewProject(NewScan(f.calls), nil); err == nil {
		t.Error("empty projection accepted")
	}
	if _, err := NewProject(NewScan(f.calls), []int{9}); err == nil {
		t.Error("out-of-range projection accepted")
	}
	p, err := NewProject(NewScan(f.calls), []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if p.Schema().Len() != 1 || p.Schema().Col(0).Name != "minutes" {
		t.Errorf("projected schema = %v", p.Schema())
	}
}

func TestUnionDiffValidation(t *testing.T) {
	f := newFixture(t)
	callsScan, paymentsScan := NewScan(f.calls), NewScan(f.payments)
	// Same group, different type: rejected? Schemas differ in column name.
	if _, err := NewUnion(callsScan, paymentsScan); err == nil {
		t.Error("union of different types accepted")
	}
	if _, err := NewDiff(callsScan, paymentsScan); err == nil {
		t.Error("difference of different types accepted")
	}
	// Same type via projection onto acct.
	pc, _ := NewProject(callsScan, []int{0})
	pp, _ := NewProject(paymentsScan, []int{0})
	if _, err := NewUnion(pc, pp); err != nil {
		t.Errorf("compatible union rejected: %v", err)
	}
	// Cross-group operands rejected.
	other := chronicle.NewGroup("other")
	oc, _ := other.NewChronicle("calls2", f.calls.Schema(), chronicle.RetainAll)
	if _, err := NewUnion(callsScan, NewScan(oc)); err == nil {
		t.Error("cross-group union accepted")
	}
	if _, err := NewDiff(callsScan, NewScan(oc)); err == nil {
		t.Error("cross-group difference accepted")
	}
	if _, err := NewJoinSN(callsScan, NewScan(oc)); err == nil {
		t.Error("cross-group SN-join accepted")
	}
}

func TestJoinSNSchema(t *testing.T) {
	f := newFixture(t)
	j, err := NewJoinSN(NewScan(f.calls), NewScan(f.payments))
	if err != nil {
		t.Fatal(err)
	}
	// acct clashes and is prefixed on the right side.
	names := j.Schema().Names()
	want := []string{"acct", "minutes", "r.acct", "amount"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("join schema = %v, want %v", names, want)
		}
	}
}

func TestGroupBySNValidation(t *testing.T) {
	f := newFixture(t)
	scan := NewScan(f.calls)
	if _, err := NewGroupBySN(scan, []int{9}, []aggregate.Spec{{Func: aggregate.Count, Col: -1, Name: "n"}}); err == nil {
		t.Error("out-of-range group column accepted")
	}
	if _, err := NewGroupBySN(scan, nil, nil); err == nil {
		t.Error("no aggregations accepted")
	}
	if _, err := NewGroupBySN(scan, nil, []aggregate.Spec{{Func: aggregate.Sum, Col: 9, Name: "s"}}); err == nil {
		t.Error("out-of-range agg column accepted")
	}
	if _, err := NewGroupBySN(scan, nil, []aggregate.Spec{{Func: aggregate.Sum, Col: 1}}); err == nil {
		t.Error("unnamed aggregation accepted")
	}
	g, err := NewGroupBySN(scan, []int{0}, []aggregate.Spec{
		{Func: aggregate.Sum, Col: 1, Name: "total"},
		{Func: aggregate.Count, Col: -1, Name: "n"},
	})
	if err != nil {
		t.Fatal(err)
	}
	names := g.Schema().Names()
	if names[0] != "acct" || names[1] != "total" || names[2] != "n" {
		t.Errorf("groupby schema = %v", names)
	}
	if g.Schema().Col(1).Kind != value.KindInt || g.Schema().Col(2).Kind != value.KindInt {
		t.Errorf("groupby kinds = %v", g.Schema())
	}
}

func TestJoinRelValidation(t *testing.T) {
	f := newFixture(t)
	scan := NewScan(f.calls)
	if _, err := NewJoinRel(scan, nil, []int{0}, []int{0}); err == nil {
		t.Error("nil relation accepted")
	}
	if _, err := NewJoinRel(scan, f.cust, nil, nil); err == nil {
		t.Error("empty join columns accepted")
	}
	if _, err := NewJoinRel(scan, f.cust, []int{0}, []int{0, 1}); err == nil {
		t.Error("mismatched column lists accepted")
	}
	if _, err := NewJoinRel(scan, f.cust, []int{9}, []int{0}); err == nil {
		t.Error("out-of-range chronicle column accepted")
	}
	if _, err := NewJoinRel(scan, f.cust, []int{0}, []int{9}); err == nil {
		t.Error("out-of-range relation column accepted")
	}
	if _, err := NewJoinRel(scan, f.cust, []int{1}, []int{0}); err == nil {
		t.Error("kind-mismatched join accepted (int vs string)")
	}
	j, err := NewJoinRel(scan, f.cust, []int{0}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if !j.OnKey() {
		t.Error("join on key column not recognized")
	}
	nk, err := NewJoinRel(scan, f.cust, []int{0}, []int{1}) // state is not the key
	if err != nil {
		t.Fatal(err)
	}
	if nk.OnKey() {
		t.Error("non-key join misrecognized as key join")
	}
	if !strings.Contains(nk.String(), "non-key") {
		t.Errorf("non-key join String = %q", nk.String())
	}
}

func TestCrossRelSchema(t *testing.T) {
	f := newFixture(t)
	c, err := NewCrossRel(NewScan(f.calls), f.cust)
	if err != nil {
		t.Fatal(err)
	}
	names := c.Schema().Names()
	want := []string{"acct", "minutes", "customers.acct", "state", "bonus"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("cross schema = %v, want %v", names, want)
		}
	}
	if _, err := NewCrossRel(NewScan(f.calls), nil); err == nil {
		t.Error("nil relation accepted")
	}
}

func TestAnalyzeClassification(t *testing.T) {
	f := newFixture(t)
	scan := NewScan(f.calls)

	// CA1: selection + grouping only.
	sel, _ := NewSelect(scan, pred.Or(pred.ColConst(1, pred.Gt, value.Int(0))))
	g1, _ := NewGroupBySN(sel, []int{0}, []aggregate.Spec{{Func: aggregate.Sum, Col: 1, Name: "s"}})
	info := Analyze(g1)
	if info.Lang != LangCA1 || info.IMClass() != IMConstant {
		t.Errorf("CA1 expr classified as %s/%s", info.Lang, info.IMClass())
	}
	if info.Unions != 0 || info.Joins != 0 {
		t.Errorf("u=%d j=%d", info.Unions, info.Joins)
	}

	// CA⋈: key join.
	jk, _ := NewJoinRel(scan, f.cust, []int{0}, []int{0})
	info = Analyze(jk)
	if info.Lang != LangCAKey || info.IMClass() != IMLogR {
		t.Errorf("CA⋈ expr classified as %s/%s", info.Lang, info.IMClass())
	}
	if info.Joins != 1 {
		t.Errorf("j = %d", info.Joins)
	}

	// CA: cross product.
	cr, _ := NewCrossRel(scan, f.cust)
	info = Analyze(cr)
	if info.Lang != LangCA || info.IMClass() != IMRk {
		t.Errorf("CA expr classified as %s/%s", info.Lang, info.IMClass())
	}

	// CA: non-key join.
	nk, _ := NewJoinRel(scan, f.cust, []int{0}, []int{1})
	if got := Analyze(nk).Lang; got != LangCA {
		t.Errorf("non-key join classified as %s", got)
	}

	// Union and join counting on a compound expression.
	pc, _ := NewProject(NewScan(f.calls), []int{0})
	pp, _ := NewProject(NewScan(f.payments), []int{0})
	u, _ := NewUnion(pc, pp)
	j, _ := NewJoinSN(u, pc)
	info = Analyze(j)
	if info.Unions != 1 || info.Joins != 1 {
		t.Errorf("u=%d j=%d, want 1,1", info.Unions, info.Joins)
	}
	if len(info.Chronicles) != 2 {
		t.Errorf("chronicles = %d", len(info.Chronicles))
	}
	// A key join downstream of a cross product stays CA.
	mix, _ := NewJoinRel(cr, f.cust, []int{0}, []int{0})
	if got := Analyze(mix).Lang; got != LangCA {
		t.Errorf("cross+keyjoin classified as %s", got)
	}
}

func TestLangAndIMClassStrings(t *testing.T) {
	if LangCA1.String() != "CA1" || LangCAKey.String() != "CA⋈" || LangCA.String() != "CA" {
		t.Error("Lang strings")
	}
	if IMConstant.String() != "IM-Constant" || IMLogR.String() != "IM-log(R)" ||
		IMRk.String() != "IM-R^k" || IMCk.String() != "IM-C^k" {
		t.Error("IMClass strings")
	}
}

// TestDispatchFilter walks DispatchFilter's rule: the σ nearest the scan
// that tests a base column for a constant, through σ nodes and left join
// inputs only; a Π or GROUP BY SN hides the σ nodes above it, and a union or
// difference gives no filter.
func TestDispatchFilter(t *testing.T) {
	f := newFixture(t)
	must := func(n Node, err error) Node {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	sel := func(in Node, col int, op pred.Op, k value.Value) Node {
		return must(NewSelect(in, pred.Or(pred.ColConst(col, op, k))))
	}
	scan := NewScan(f.calls)
	eqA := sel(scan, 0, pred.Eq, value.Str("a"))
	joined := must(NewJoinRel(sel(scan, 0, pred.Eq, value.Str("a")), f.cust, []int{0}, []int{0}))
	crossed := must(NewCrossRel(scan, f.cust))
	snJoin := must(NewJoinSN(scan, NewScan(f.payments)))
	proj := must(NewProject(eqA, []int{1}))
	grouped := must(NewGroupBySN(scan, []int{0}, []aggregate.Spec{{Func: aggregate.Count, Col: -1, Name: "n"}}))
	for _, tc := range []struct {
		name string
		expr Node
		col  int    // -1: no filter
		k    string // the constant the filter tests
	}{
		{"scan", scan, -1, ""},
		{"σ", eqA, 0, "a"},
		{"range σ", sel(scan, 1, pred.Gt, value.Int(3)), -1, ""},
		{"nearest the scan", sel(sel(scan, 0, pred.Eq, value.Str("b")), 0, pred.Eq, value.Str("c")), 0, "b"},
		{"range below equality", sel(sel(scan, 1, pred.Gt, value.Int(3)), 0, pred.Eq, value.Str("c")), 0, "c"},
		{"σ over a key join", sel(must(NewJoinRel(scan, f.cust, []int{0}, []int{0})), 0, pred.Eq, value.Str("d")), 0, "d"},
		{"σ on a relation column", sel(must(NewJoinRel(scan, f.cust, []int{0}, []int{0})), 3, pred.Eq, value.Str("nj")), -1, ""},
		{"σ below a key join", joined, 0, "a"},
		{"σ over a cross product", sel(crossed, 0, pred.Eq, value.Str("e")), 0, "e"},
		{"σ over an SN join", sel(snJoin, 0, pred.Eq, value.Str("f")), 0, "f"},
		{"σ on the SN join's right input", sel(snJoin, 2, pred.Eq, value.Str("g")), -1, ""},
		{"σ under Π", proj, 0, "a"},
		{"σ over Π", sel(must(NewProject(scan, []int{0})), 0, pred.Eq, value.Str("h")), -1, ""},
		{"σ over GROUP BY SN", sel(grouped, 0, pred.Eq, value.Str("i")), -1, ""},
		{"union", must(NewUnion(eqA, eqA)), -1, ""},
		{"σ over a difference", sel(must(NewDiff(eqA, scan)), 0, pred.Eq, value.Str("j")), -1, ""},
	} {
		filter, base := DispatchFilter(tc.expr)
		if tc.col < 0 {
			if base != nil || !filter.IsTrue() {
				t.Errorf("%s: filter %v on %v, want none", tc.name, filter.Atoms(), base)
			}
			continue
		}
		col, k, ok := filter.EqualityConstant()
		if base != f.calls || !ok || col != tc.col || k.AsString() != tc.k {
			t.Errorf("%s: filter %v on %v, want col %d = %q on calls", tc.name, filter.Atoms(), base, tc.col, tc.k)
		}
	}
}

// TestKeySource traces key columns through σ and Π to the scan, and stops
// at any other operator: the key sources views share a directory by.
func TestKeySource(t *testing.T) {
	f := newFixture(t)
	must := func(n Node, err error) Node {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	scan := NewScan(f.calls)
	gt := func(in Node) Node { return must(NewSelect(in, pred.Or(pred.ColConst(1, pred.Gt, value.Int(3))))) }
	swapped := must(NewProject(gt(scan), []int{1, 0}))
	for _, tc := range []struct {
		name string
		expr Node
		cols []int
		base []int // nil: no source
	}{
		{"scan", scan, []int{0}, []int{0}},
		{"σ", gt(scan), []int{0, 1}, []int{0, 1}},
		{"Π moves the key", swapped, []int{1}, []int{0}},
		{"σ over Π over σ", gt(swapped), []int{1, 0}, []int{0, 1}},
		{"Π of Π", must(NewProject(swapped, []int{1})), []int{0}, []int{0}},
		{"key join", must(NewJoinRel(scan, f.cust, []int{0}, []int{0})), []int{0}, nil},
		{"union", must(NewUnion(scan, gt(scan))), []int{0}, nil},
		{"difference", must(NewDiff(scan, gt(scan))), []int{0}, nil},
		{"σ over an SN join", gt(must(NewJoinSN(scan, NewScan(f.payments)))), []int{0}, nil},
	} {
		got, base, ok := KeySource(tc.expr, tc.cols)
		if tc.base == nil {
			if ok {
				t.Errorf("%s: source %v %v, want none", tc.name, got, base)
			}
			continue
		}
		if !ok || got.C != f.calls || fmt.Sprint(base) != fmt.Sprint(tc.base) {
			t.Errorf("%s: source %v %v (%v), want calls %v", tc.name, got, base, ok, tc.base)
		}
	}
	cols := []int{1}
	if KeySource(swapped, cols); cols[0] != 1 {
		t.Errorf("KeySource rewrote its argument: %v", cols)
	}
}
