package algebra

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"chronicledb/internal/aggregate"
	"chronicledb/internal/chronicle"
	"chronicledb/internal/keyenc"
	"chronicledb/internal/pred"
	"chronicledb/internal/value"
)

// sortedKeys canonicalizes a row multiset for comparison.
func sortedKeys(rows []chronicle.Row) []string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = string(keyenc.AppendTuple(nil, append(value.Tuple{value.Int(r.SN), value.Int(r.Chronon)}, r.Vals...)))
	}
	sort.Strings(keys)
	return keys
}

func sameRows(t *testing.T, label string, got, want []chronicle.Row) {
	t.Helper()
	g, w := sortedKeys(got), sortedKeys(want)
	if len(g) != len(w) {
		t.Fatalf("%s: got %d rows, want %d\ngot:  %v\nwant: %v", label, len(g), len(w), dump(got), dump(want))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: row multiset mismatch\ngot:  %v\nwant: %v", label, dump(got), dump(want))
		}
	}
}

func dump(rows []chronicle.Row) string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprintf("sn=%d %s", r.SN, r.Vals)
	}
	sort.Strings(out)
	return fmt.Sprint(out)
}

func TestDeltaSelect(t *testing.T) {
	f := newFixture(t)
	sel, _ := NewSelect(NewScan(f.calls), pred.Or(pred.ColConst(1, pred.Gt, value.Int(10))))
	d := f.appendCall(t, "a", 5)
	if got := Delta(sel, d); len(got) != 0 {
		t.Errorf("non-matching tuple produced delta %v", got)
	}
	d = f.appendCall(t, "a", 20)
	got := Delta(sel, d)
	if len(got) != 1 || got[0].Vals[1].AsInt() != 20 {
		t.Errorf("delta = %v", dump(got))
	}
}

func TestDeltaProject(t *testing.T) {
	f := newFixture(t)
	p, _ := NewProject(NewScan(f.calls), []int{1})
	d := f.appendCall(t, "a", 42)
	got := Delta(p, d)
	if len(got) != 1 || len(got[0].Vals) != 1 || got[0].Vals[0].AsInt() != 42 {
		t.Errorf("delta = %v", dump(got))
	}
	if got[0].SN != d[f.calls][0].SN {
		t.Error("projection must preserve the sequencing attribute")
	}
}

func TestDeltaUnionDedups(t *testing.T) {
	f := newFixture(t)
	// Two selections of the same chronicle whose ranges overlap: a tuple in
	// the overlap must appear once in the union's delta — the paper's very
	// example of two operands deriving a tuple with the same SN.
	scan := NewScan(f.calls)
	lo, _ := NewSelect(scan, pred.Or(pred.ColConst(1, pred.Gt, value.Int(10))))
	hi, _ := NewSelect(scan, pred.Or(pred.ColConst(1, pred.Lt, value.Int(100))))
	u, _ := NewUnion(lo, hi)
	got := Delta(u, f.appendCall(t, "a", 50)) // in both ranges
	if len(got) != 1 {
		t.Errorf("union delta = %v, want 1 row", dump(got))
	}
	got = Delta(u, f.appendCall(t, "a", 5)) // only in hi
	if len(got) != 1 {
		t.Errorf("union delta = %v, want 1 row", dump(got))
	}
}

func TestDeltaDiff(t *testing.T) {
	f := newFixture(t)
	scan := NewScan(f.calls)
	all, _ := NewSelect(scan, pred.True())
	big, _ := NewSelect(scan, pred.Or(pred.ColConst(1, pred.Gt, value.Int(10))))
	d, _ := NewDiff(all, big) // calls with minutes <= 10
	got := Delta(d, f.appendCall(t, "a", 5))
	if len(got) != 1 {
		t.Errorf("diff delta = %v", dump(got))
	}
	got = Delta(d, f.appendCall(t, "a", 50))
	if len(got) != 0 {
		t.Errorf("diff delta = %v, want empty", dump(got))
	}
}

func TestDeltaJoinSN(t *testing.T) {
	f := newFixture(t)
	j, _ := NewJoinSN(NewScan(f.calls), NewScan(f.payments))
	// Append to calls only: no matching payment SN, join delta empty.
	if got := Delta(j, f.appendCall(t, "a", 5)); len(got) != 0 {
		t.Errorf("solo append join delta = %v", dump(got))
	}
	// Simultaneous append to both: one joined row.
	got := Delta(j, f.appendBoth(t, "a", 7, 100))
	if len(got) != 1 {
		t.Fatalf("join delta = %v", dump(got))
	}
	r := got[0]
	if r.Vals[1].AsInt() != 7 || r.Vals[3].AsInt() != 100 {
		t.Errorf("joined row = %v", r.Vals)
	}
}

func TestDeltaGroupBySN(t *testing.T) {
	f := newFixture(t)
	g, _ := NewGroupBySN(NewScan(f.calls), []int{0}, []aggregate.Spec{
		{Func: aggregate.Sum, Col: 1, Name: "total"},
		{Func: aggregate.Count, Col: -1, Name: "n"},
	})
	// One batch with three tuples sharing the SN: two accounts.
	rows, err := f.calls.Append(f.group.NextSN(), 0, f.nextLSN(), []value.Tuple{
		{value.Str("a"), value.Int(10)},
		{value.Str("b"), value.Int(5)},
		{value.Str("a"), value.Int(20)},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := Delta(g, BatchDelta{f.calls: rows})
	if len(got) != 2 {
		t.Fatalf("groupby delta = %v", dump(got))
	}
	byAcct := map[string][2]int64{}
	for _, r := range got {
		byAcct[r.Vals[0].AsString()] = [2]int64{r.Vals[1].AsInt(), r.Vals[2].AsInt()}
	}
	if byAcct["a"] != [2]int64{30, 2} || byAcct["b"] != [2]int64{5, 1} {
		t.Errorf("groups = %v", byAcct)
	}
}

func TestDeltaCrossRel(t *testing.T) {
	f := newFixture(t)
	f.upsertCust(t, "a", "nj", 500)
	f.upsertCust(t, "b", "ny", 0)
	c, _ := NewCrossRel(NewScan(f.calls), f.cust)
	got := Delta(c, f.appendCall(t, "a", 5))
	if len(got) != 2 {
		t.Fatalf("cross delta = %v, want 2 (|R| rows)", dump(got))
	}
}

func TestDeltaJoinRelKey(t *testing.T) {
	f := newFixture(t)
	f.upsertCust(t, "a", "nj", 500)
	f.upsertCust(t, "b", "ny", 0)
	j, _ := NewJoinRel(NewScan(f.calls), f.cust, []int{0}, []int{0})
	got := Delta(j, f.appendCall(t, "a", 5))
	if len(got) != 1 {
		t.Fatalf("key join delta = %v", dump(got))
	}
	if got[0].Vals[3].AsString() != "nj" || got[0].Vals[4].AsInt() != 500 {
		t.Errorf("joined row = %v", got[0].Vals)
	}
	// Unmatched chronicle tuple joins with nothing.
	if got := Delta(j, f.appendCall(t, "zz", 5)); len(got) != 0 {
		t.Errorf("unmatched join delta = %v", dump(got))
	}
}

func TestDeltaJoinRelNonKey(t *testing.T) {
	f := newFixture(t)
	f.upsertCust(t, "a", "nj", 500)
	f.upsertCust(t, "b", "nj", 100)
	f.upsertCust(t, "c", "ny", 0)
	// Join calls.acct against cust.state: nonsense semantically, but it
	// exercises the non-key path. Use a chronicle whose acct holds a state.
	j, _ := NewJoinRel(NewScan(f.calls), f.cust, []int{0}, []int{1})
	got := Delta(j, f.appendCall(t, "nj", 5))
	if len(got) != 2 {
		t.Fatalf("non-key join delta = %v, want 2", dump(got))
	}
}

// TestDeltaTemporalJoin is Example 2.2: a proactive relation update must
// affect only subsequent chronicle tuples, and the delta must join each
// tuple with the relation version at the tuple's instant.
func TestDeltaTemporalJoin(t *testing.T) {
	f := newFixture(t)
	f.upsertCust(t, "a", "nj", 500)
	j, _ := NewJoinRel(NewScan(f.calls), f.cust, []int{0}, []int{0})

	d1 := f.appendCall(t, "a", 5)
	got := Delta(j, d1)
	if got[0].Vals[3].AsString() != "nj" {
		t.Errorf("pre-move state = %v", got[0].Vals[3])
	}

	// Customer moves: proactive update (ordered before the next append).
	f.upsertCust(t, "a", "ny", 0)
	d2 := f.appendCall(t, "a", 7)
	got = Delta(j, d2)
	if got[0].Vals[3].AsString() != "ny" {
		t.Errorf("post-move state = %v", got[0].Vals[3])
	}

	// Re-running the first delta (as the reference evaluator does) must
	// still see the old version: the temporal join is on the tuple's LSN.
	got = Delta(j, d1)
	if got[0].Vals[3].AsString() != "nj" {
		t.Errorf("temporal join broke: first tuple now sees %v", got[0].Vals[3])
	}
}

// TestMonotonicity is Theorem 4.1: every delta row carries one of the new
// sequence numbers, for every operator shape.
func TestMonotonicity(t *testing.T) {
	f := newFixture(t)
	f.upsertCust(t, "a", "nj", 500)
	f.upsertCust(t, "b", "ny", 0)
	exprs := buildExprZoo(t, f)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		acct := string(rune('a' + rng.Intn(3)))
		var d BatchDelta
		if rng.Intn(3) == 0 {
			d = f.appendBoth(t, acct, int64(rng.Intn(100)), int64(rng.Intn(50)))
		} else {
			d = f.appendCall(t, acct, int64(rng.Intn(100)))
		}
		newSN := f.group.LastSN()
		for name, e := range exprs {
			for _, r := range Delta(e, d) {
				if r.SN != newSN {
					t.Fatalf("%s: delta row has stale SN %d, batch SN %d", name, r.SN, newSN)
				}
			}
		}
	}
}

// buildExprZoo returns a varied set of valid CA expressions over the fixture.
func buildExprZoo(t testing.TB, f *fixture) map[string]Node {
	t.Helper()
	calls, payments := NewScan(f.calls), NewScan(f.payments)
	sel, err := NewSelect(calls, pred.Or(pred.ColConst(1, pred.Gt, value.Int(30))))
	if err != nil {
		t.Fatal(err)
	}
	proj, err := NewProject(calls, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	projPay, err := NewProject(payments, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	uni, err := NewUnion(proj, projPay)
	if err != nil {
		t.Fatal(err)
	}
	dif, err := NewDiff(proj, projPay)
	if err != nil {
		t.Fatal(err)
	}
	jsn, err := NewJoinSN(calls, payments)
	if err != nil {
		t.Fatal(err)
	}
	grp, err := NewGroupBySN(calls, []int{0}, []aggregate.Spec{
		{Func: aggregate.Sum, Col: 1, Name: "total"},
		{Func: aggregate.Max, Col: 1, Name: "longest"},
	})
	if err != nil {
		t.Fatal(err)
	}
	cross, err := NewCrossRel(sel, f.cust)
	if err != nil {
		t.Fatal(err)
	}
	keyJoin, err := NewJoinRel(calls, f.cust, []int{0}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	// A deeper compound: σ over a key join, grouped.
	bonusSel, err := NewSelect(keyJoin, pred.Or(pred.ColConst(3, pred.Eq, value.Str("nj"))))
	if err != nil {
		t.Fatal(err)
	}
	deep, err := NewGroupBySN(bonusSel, []int{0}, []aggregate.Spec{
		{Func: aggregate.Sum, Col: 4, Name: "bonus_total"},
	})
	if err != nil {
		t.Fatal(err)
	}
	joinOfUnions, err := NewJoinSN(uni, dif)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Node{
		"select":        sel,
		"project":       proj,
		"union":         uni,
		"diff":          dif,
		"joinSN":        jsn,
		"groupBySN":     grp,
		"cross":         cross,
		"keyJoin":       keyJoin,
		"deep":          deep,
		"join-of-union": joinOfUnions,
	}
}

// TestIncrementalMatchesReference is the golden invariant: accumulating
// Delta over a random append/update stream equals the reference evaluation
// of the expression over the fully retained chronicles — without the
// incremental path ever reading the chronicles.
func TestIncrementalMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		f := newFixture(t)
		f.upsertCust(t, "a", "nj", 500)
		f.upsertCust(t, "b", "ny", 0)
		exprs := buildExprZoo(t, f)
		accumulated := map[string][]chronicle.Row{}

		rng := rand.New(rand.NewSource(seed))
		for step := 0; step < 120; step++ {
			switch rng.Intn(6) {
			case 0: // proactive relation update
				acct := string(rune('a' + rng.Intn(3)))
				states := []string{"nj", "ny", "ca"}
				f.upsertCust(t, acct, states[rng.Intn(3)], int64(rng.Intn(1000)))
				continue
			case 1: // simultaneous append to both chronicles
				acct := string(rune('a' + rng.Intn(3)))
				d := f.appendBoth(t, acct, int64(rng.Intn(100)), int64(rng.Intn(50)))
				for name, e := range exprs {
					accumulated[name] = append(accumulated[name], Delta(e, d)...)
				}
			default: // plain call append, sometimes multi-tuple
				n := 1 + rng.Intn(3)
				tuples := make([]value.Tuple, n)
				for i := range tuples {
					tuples[i] = value.Tuple{
						value.Str(string(rune('a' + rng.Intn(3)))),
						value.Int(int64(rng.Intn(100))),
					}
				}
				rows, err := f.calls.Append(f.group.NextSN(), 0, f.nextLSN(), tuples)
				if err != nil {
					t.Fatal(err)
				}
				d := BatchDelta{f.calls: rows}
				for name, e := range exprs {
					accumulated[name] = append(accumulated[name], Delta(e, d)...)
				}
			}
		}

		for name, e := range exprs {
			want, err := Evaluate(e)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			sameRows(t, fmt.Sprintf("seed %d, expr %s", seed, name), accumulated[name], want)
		}
	}
}

// TestEvaluateRequiresFullRetention: the reference evaluator must refuse to
// run over a windowed chronicle.
func TestEvaluateRequiresFullRetention(t *testing.T) {
	g := chronicle.NewGroup("g")
	c, _ := g.NewChronicle("c", value.NewSchema(value.Column{Name: "x", Kind: value.KindInt}), chronicle.Retention(1))
	for i := 0; i < 5; i++ {
		c.Append(int64(i), 0, uint64(i), []value.Tuple{{value.Int(int64(i))}})
	}
	if _, err := Evaluate(NewScan(c)); err == nil {
		t.Error("Evaluate over a lossy chronicle must fail")
	}
}

func TestDeltaUnknownNodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown node should panic")
		}
	}()
	Delta(badNode{}, nil)
}

type badNode struct{}

func (badNode) Schema() *value.Schema   { return nil }
func (badNode) Group() *chronicle.Group { return nil }
func (badNode) String() string          { return "bad" }
func (badNode) children() []Node        { return nil }
