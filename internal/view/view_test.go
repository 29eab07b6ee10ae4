package view

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"chronicledb/internal/aggregate"
	"chronicledb/internal/algebra"
	"chronicledb/internal/chronicle"
	"chronicledb/internal/keyenc"
	"chronicledb/internal/pred"
	"chronicledb/internal/relation"
	"chronicledb/internal/value"
)

// fixture mirrors the algebra test scenario.
type fixture struct {
	group *chronicle.Group
	calls *chronicle.Chronicle
	cust  *relation.Relation
	lsn   uint64
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
	cust, err := relation.New("customers", value.NewSchema(
		value.Column{Name: "acct", Kind: value.KindString},
		value.Column{Name: "state", Kind: value.KindString},
	), []int{0}, true)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{group: g, calls: calls, cust: cust}
}

// apply folds one append batch into v on its own and publishes it, taking
// the delta from the reference evaluator: a view driven outside the engine.
func apply(v *View, d algebra.BatchDelta) {
	v.ApplyRows(algebra.Delta(v.Def().Expr, d))
	v.Publish()
}

func (f *fixture) nextLSN() uint64 { f.lsn++; return f.lsn }

func (f *fixture) appendCall(t testing.TB, acct string, minutes int64) algebra.BatchDelta {
	t.Helper()
	rows, err := f.calls.Append(f.group.NextSN(), 0, f.nextLSN(),
		[]value.Tuple{{value.Str(acct), value.Int(minutes)}})
	if err != nil {
		t.Fatal(err)
	}
	return algebra.BatchDelta{f.calls: rows}
}

// minutesPerAcct is the canonical example view: total minutes per account.
func minutesPerAcct(t testing.TB, f *fixture) *View {
	t.Helper()
	v, err := New(Def{
		Name:      "minutes_per_acct",
		Expr:      algebra.NewScan(f.calls),
		Mode:      SummarizeGroupBy,
		GroupCols: []int{0},
		Aggs: []aggregate.Spec{
			{Func: aggregate.Sum, Col: 1, Name: "total"},
			{Func: aggregate.Count, Col: -1, Name: "n"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestNewValidation(t *testing.T) {
	f := newFixture(t)
	scan := algebra.NewScan(f.calls)
	cases := []Def{
		{},          // no name
		{Name: "v"}, // no expr
		{Name: "v", Expr: scan, Mode: SummarizeProject},                 // no cols
		{Name: "v", Expr: scan, Mode: SummarizeProject, Cols: []int{7}}, // bad col
		{Name: "v", Expr: scan, Mode: SummarizeGroupBy},                 // no aggs
		{Name: "v", Expr: scan, Mode: SummarizeGroupBy, GroupCols: []int{7}, // bad group col
			Aggs: []aggregate.Spec{{Func: aggregate.Count, Col: -1, Name: "n"}}},
		{Name: "v", Expr: scan, Mode: SummarizeGroupBy, // bad agg col
			Aggs: []aggregate.Spec{{Func: aggregate.Sum, Col: 7, Name: "s"}}},
		{Name: "v", Expr: scan, Mode: SummarizeGroupBy, // unnamed agg
			Aggs: []aggregate.Spec{{Func: aggregate.Sum, Col: 1}}},
		{Name: "v", Expr: scan, Mode: Summarize(9), Cols: []int{0}}, // bad mode
	}
	for i, def := range cases {
		if _, err := New(def); err == nil {
			t.Errorf("case %d: invalid definition accepted: %+v", i, def)
		}
	}
}

func TestGroupByViewBasics(t *testing.T) {
	f := newFixture(t)
	v := minutesPerAcct(t, f)
	if v.Name() != "minutes_per_acct" || v.Len() != 0 {
		t.Fatal("fresh view state")
	}
	if got := v.Schema().Names(); got[0] != "acct" || got[1] != "total" || got[2] != "n" {
		t.Errorf("schema = %v", got)
	}
	apply(v, f.appendCall(t, "a", 10))
	apply(v, f.appendCall(t, "b", 5))
	apply(v, f.appendCall(t, "a", 20))
	if v.Len() != 2 {
		t.Errorf("Len = %d", v.Len())
	}
	got, ok := v.Lookup(value.Tuple{value.Str("a")})
	if !ok || got[1].AsInt() != 30 || got[2].AsInt() != 2 {
		t.Errorf("Lookup(a) = %v, %v", got, ok)
	}
	if _, ok := v.Lookup(value.Tuple{value.Str("zz")}); ok {
		t.Error("Lookup of absent group succeeded")
	}
	st := v.Stats()
	if st.Applies != 3 || st.DeltaRows != 3 || st.Touched != 3 {
		t.Errorf("Stats = %+v", st)
	}
}

func TestProjectViewRefcounts(t *testing.T) {
	f := newFixture(t)
	// Distinct accounts that ever placed a call.
	v, err := New(Def{
		Name: "active_accts",
		Expr: algebra.NewScan(f.calls),
		Mode: SummarizeProject,
		Cols: []int{0},
	})
	if err != nil {
		t.Fatal(err)
	}
	apply(v, f.appendCall(t, "b", 1))
	apply(v, f.appendCall(t, "a", 2))
	apply(v, f.appendCall(t, "a", 3))
	rows := v.Rows()
	if len(rows) != 2 {
		t.Fatalf("Rows = %v (duplicates must be eliminated)", rows)
	}
	// BTree store scans in key order.
	if rows[0][0].AsString() != "a" || rows[1][0].AsString() != "b" {
		t.Errorf("Rows order = %v", rows)
	}
	if _, ok := v.Lookup(value.Tuple{value.Str("a")}); !ok {
		t.Error("Lookup(a) failed")
	}
}

func TestViewOverSelection(t *testing.T) {
	f := newFixture(t)
	sel, err := algebra.NewSelect(algebra.NewScan(f.calls), pred.Or(pred.ColConst(1, pred.Ge, value.Int(10))))
	if err != nil {
		t.Fatal(err)
	}
	v, err := New(Def{
		Name:      "long_calls",
		Expr:      sel,
		Mode:      SummarizeGroupBy,
		GroupCols: []int{0},
		Aggs:      []aggregate.Spec{{Func: aggregate.Count, Col: -1, Name: "n"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	apply(v, f.appendCall(t, "a", 5)) // filtered out
	apply(v, f.appendCall(t, "a", 50))
	got, ok := v.Lookup(value.Tuple{value.Str("a")})
	if !ok || got[1].AsInt() != 1 {
		t.Errorf("Lookup = %v, %v", got, ok)
	}
}

func TestViewClassification(t *testing.T) {
	f := newFixture(t)
	v := minutesPerAcct(t, f)
	if v.Lang() != algebra.LangCA1 || v.IMClass() != algebra.IMConstant {
		t.Errorf("SCA1 view classified %s/%s", v.Lang(), v.IMClass())
	}
	jr, err := algebra.NewJoinRel(algebra.NewScan(f.calls), f.cust, []int{0}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := New(Def{
		Name: "with_state", Expr: jr, Mode: SummarizeGroupBy,
		GroupCols: []int{3},
		Aggs:      []aggregate.Spec{{Func: aggregate.Sum, Col: 1, Name: "total"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if v2.IMClass() != algebra.IMLogR {
		t.Errorf("SCA⋈ view classified %s", v2.IMClass())
	}
}

func TestSummarizeString(t *testing.T) {
	if SummarizeProject.String() != "project" || SummarizeGroupBy.String() != "groupby" {
		t.Error("Summarize strings")
	}
}

// TestIncrementalMatchesRecompute is the golden invariant at the view level
// for both summarization modes, on a random stream.
func TestIncrementalMatchesRecompute(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		f := newFixture(t)
		f.cust.Upsert(f.nextLSN(), value.Tuple{value.Str("a"), value.Str("nj")})
		f.cust.Upsert(f.nextLSN(), value.Tuple{value.Str("b"), value.Str("ny")})

		jr, err := algebra.NewJoinRel(algebra.NewScan(f.calls), f.cust, []int{0}, []int{0})
		if err != nil {
			t.Fatal(err)
		}
		views := []*View{
			minutesPerAcct(t, f),
			mustNew(t, Def{
				Name: "accts", Expr: algebra.NewScan(f.calls),
				Mode: SummarizeProject, Cols: []int{0},
			}),
			mustNew(t, Def{
				Name: "state_minutes", Expr: jr, Mode: SummarizeGroupBy,
				GroupCols: []int{3},
				Aggs: []aggregate.Spec{
					{Func: aggregate.Sum, Col: 1, Name: "total"},
					{Func: aggregate.Min, Col: 1, Name: "shortest"},
					{Func: aggregate.Max, Col: 1, Name: "longest"},
					{Func: aggregate.Avg, Col: 1, Name: "mean"},
				},
			}),
		}

		rng := rand.New(rand.NewSource(seed))
		states := []string{"nj", "ny", "ca"}
		for step := 0; step < 150; step++ {
			if rng.Intn(5) == 0 { // proactive relation update
				acct := string(rune('a' + rng.Intn(3)))
				f.cust.Upsert(f.nextLSN(), value.Tuple{value.Str(acct), value.Str(states[rng.Intn(3)])})
				continue
			}
			d := f.appendCall(t, string(rune('a'+rng.Intn(3))), int64(rng.Intn(60)))
			for _, v := range views {
				apply(v, d)
			}
		}

		for _, v := range views {
			want, err := v.Recompute()
			if err != nil {
				t.Fatalf("%s: %v", v.Name(), err)
			}
			got := v.Rows()
			if !sameTuples(got, want) {
				t.Errorf("seed %d view %s: incremental %v != recompute %v", seed, v.Name(), got, want)
			}
		}
	}
}

func mustNew(t testing.TB, def Def) *View {
	t.Helper()
	v, err := New(def)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func sameTuples(a, b []value.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	ka := make([]string, len(a))
	kb := make([]string, len(b))
	for i := range a {
		ka[i] = string(keyenc.AppendTuple(nil, a[i]))
		kb[i] = string(keyenc.AppendTuple(nil, b[i]))
	}
	sort.Strings(ka)
	sort.Strings(kb)
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

func TestCheckpointRoundTrip(t *testing.T) {
	f := newFixture(t)
	for _, mode := range []Summarize{SummarizeGroupBy, SummarizeProject} {
		def := Def{Name: fmt.Sprintf("v_%s", mode), Expr: algebra.NewScan(f.calls)}
		if mode == SummarizeGroupBy {
			def.Mode = SummarizeGroupBy
			def.GroupCols = []int{0}
			def.Aggs = []aggregate.Spec{
				{Func: aggregate.Sum, Col: 1, Name: "total"},
				{Func: aggregate.Avg, Col: 1, Name: "mean"},
			}
		} else {
			def.Mode = SummarizeProject
			def.Cols = []int{0}
		}
		v := mustNew(t, def)
		for i := 0; i < 20; i++ {
			apply(v, f.appendCall(t, string(rune('a'+i%4)), int64(i)))
		}
		snap := v.Checkpoint()

		v2 := mustNew(t, def)
		if err := v2.RestoreCheckpoint(snap); err != nil {
			t.Fatalf("%s: restore: %v", def.Name, err)
		}
		if !sameTuples(v.Rows(), v2.Rows()) {
			t.Fatalf("%s: restore mismatch:\n%v\nvs\n%v", def.Name, v.Rows(), v2.Rows())
		}
		// The restored view must keep maintaining correctly.
		d := f.appendCall(t, "a", 100)
		apply(v, d)
		apply(v2, d)
		if !sameTuples(v.Rows(), v2.Rows()) {
			t.Fatalf("%s: diverged after post-restore append", def.Name)
		}
	}
}

func TestCheckpointErrors(t *testing.T) {
	f := newFixture(t)
	v := minutesPerAcct(t, f)
	apply(v, f.appendCall(t, "a", 1))
	snap := v.Checkpoint()

	if err := v.RestoreCheckpoint(nil); err == nil {
		t.Error("empty checkpoint accepted")
	}
	bad := append([]byte("XXXX"), snap[4:]...)
	if err := v.RestoreCheckpoint(bad); err == nil {
		t.Error("bad magic accepted")
	}
	badVer := append([]byte(nil), snap...)
	badVer[4] = 99
	if err := v.RestoreCheckpoint(badVer); err == nil {
		t.Error("bad version accepted")
	}
	truncated := snap[:len(snap)-3]
	if err := v.RestoreCheckpoint(truncated); err == nil {
		t.Error("truncated checkpoint accepted")
	}
	trailing := append(append([]byte(nil), snap...), 0xAB)
	if err := v.RestoreCheckpoint(trailing); err == nil {
		t.Error("trailing garbage accepted")
	}
	// Schema drift: a view over a different schema rejects the checkpoint.
	g2 := chronicle.NewGroup("g2")
	other, _ := g2.NewChronicle("other", value.NewSchema(
		value.Column{Name: "x", Kind: value.KindInt},
	), chronicle.RetainAll)
	v2 := mustNew(t, Def{
		Name: "v2", Expr: algebra.NewScan(other), Mode: SummarizeGroupBy,
		GroupCols: []int{0},
		Aggs:      []aggregate.Spec{{Func: aggregate.Count, Col: -1, Name: "n"}},
	})
	if err := v2.RestoreCheckpoint(snap); err == nil {
		t.Error("schema drift accepted")
	}
	// Aggregation count mismatch.
	v3 := mustNew(t, Def{
		Name: "v3", Expr: algebra.NewScan(f.calls), Mode: SummarizeGroupBy,
		GroupCols: []int{0},
		Aggs:      []aggregate.Spec{{Func: aggregate.Count, Col: -1, Name: "n"}},
	})
	if err := v3.RestoreCheckpoint(snap); err == nil {
		t.Error("agg count mismatch accepted")
	}
	// A failed restore must leave the original state intact.
	if got, ok := v.Lookup(value.Tuple{value.Str("a")}); !ok || got[1].AsInt() != 1 {
		t.Errorf("view state damaged by failed restores: %v, %v", got, ok)
	}
}

func TestRecomputeFailsOnLossyChronicle(t *testing.T) {
	g := chronicle.NewGroup("g")
	c, _ := g.NewChronicle("c", value.NewSchema(
		value.Column{Name: "k", Kind: value.KindString},
		value.Column{Name: "x", Kind: value.KindInt},
	), chronicle.RetainNone)
	v := mustNew(t, Def{
		Name: "v", Expr: algebra.NewScan(c), Mode: SummarizeGroupBy,
		GroupCols: []int{0},
		Aggs:      []aggregate.Spec{{Func: aggregate.Sum, Col: 1, Name: "s"}},
	})
	rows, err := c.Append(0, 0, 1, []value.Tuple{{value.Str("a"), value.Int(5)}})
	if err != nil {
		t.Fatal(err)
	}
	apply(v, algebra.BatchDelta{c: rows})
	// The view is correct even though the chronicle stored nothing …
	if got, ok := v.Lookup(value.Tuple{value.Str("a")}); !ok || got[1].AsInt() != 5 {
		t.Errorf("view over RetainNone chronicle = %v, %v", got, ok)
	}
	// … and recomputation is impossible, which is the whole point.
	if _, err := v.Recompute(); err == nil {
		t.Error("Recompute over a RetainNone chronicle must fail")
	}
}

// keyOf encodes a window bound from the values of a key's leading columns.
func keyOf(vals ...value.Value) []byte { return keyenc.AppendTuple(nil, vals) }

func TestScanWindow(t *testing.T) {
	f := newFixture(t)
	v := mustNew(t, Def{
		Name: "ranged", Expr: algebra.NewScan(f.calls),
		Mode: SummarizeGroupBy, GroupCols: []int{0},
		Aggs: []aggregate.Spec{{Func: aggregate.Sum, Col: 1, Name: "total"}},
	})
	for _, acct := range []string{"delta", "alpha", "echo", "bravo", "charlie"} {
		apply(v, f.appendCall(t, acct, 1))
	}
	var got []string
	v.Scan(Window{Lo: keyOf(value.Str("b")), Hi: keyOf(value.Str("d"))}, func(t value.Tuple) bool {
		got = append(got, t[0].AsString())
		return true
	})
	if len(got) != 2 || got[0] != "bravo" || got[1] != "charlie" {
		t.Errorf("ScanRange = %v", got)
	}
	// Early stop.
	count := 0
	v.Scan(Window{Lo: keyOf(value.Str("a")), Hi: keyOf(value.Str("z"))}, func(value.Tuple) bool {
		count++
		return false
	})
	if count != 1 {
		t.Errorf("early stop visited %d", count)
	}
	// Empty range.
	got = got[:0]
	v.Scan(Window{Lo: keyOf(value.Str("x")), Hi: keyOf(value.Str("y"))}, func(t value.Tuple) bool {
		got = append(got, t[0].AsString())
		return true
	})
	if len(got) != 0 {
		t.Errorf("empty range = %v", got)
	}
	// Direction, limit and residual filter, with and without bounds; the
	// limit counts the rows Keep lets through.
	notCharlie := func(t value.Tuple) bool { return t[0].AsString() != "charlie" }
	for _, tc := range []struct {
		w    Window
		want string
	}{
		{Window{Desc: true}, "echo delta charlie bravo alpha"},
		{Window{Desc: true, Limit: 2}, "echo delta"},
		{Window{Limit: 2}, "alpha bravo"},
		{Window{Lo: keyOf(value.Str("b")), Desc: true}, "echo delta charlie bravo"},
		{Window{Hi: keyOf(value.Str("d")), Desc: true, Limit: 2}, "charlie bravo"},
		{Window{Lo: keyOf(value.Str("b")), Limit: 3, Keep: notCharlie}, "bravo delta echo"},
		{Window{Hi: keyOf(value.Str("e")), Desc: true, Limit: 2, Keep: notCharlie}, "delta bravo"},
		{Window{Lo: keyOf(value.Str("d")), Hi: keyOf(value.Str("b"))}, ""},
	} {
		got = got[:0]
		v.Scan(tc.w, func(t value.Tuple) bool {
			got = append(got, t[0].AsString())
			return true
		})
		if strings.Join(got, " ") != tc.want {
			t.Errorf("Scan(%q..%q desc=%v limit=%d keep=%v) = %v, want %s",
				tc.w.Lo, tc.w.Hi, tc.w.Desc, tc.w.Limit, tc.w.Keep != nil, got, tc.want)
		}
	}
}

func TestScanOrderIsTupleOrder(t *testing.T) {
	// With the order-preserving key encoding, both stores scan in group-key
	// order — including numerically across int groups.
	g := chronicle.NewGroup("g")
	c, _ := g.NewChronicle("nums", value.NewSchema(
		value.Column{Name: "n", Kind: value.KindInt},
	), chronicle.RetainNone)
	v := mustNew(t, Def{
		Name: "byn", Expr: algebra.NewScan(c),
		Mode: SummarizeGroupBy, GroupCols: []int{0},
		Aggs: []aggregate.Spec{{Func: aggregate.Count, Col: -1, Name: "cnt"}},
	})
	for _, n := range []int64{10, -3, 200, 0, -40} {
		v.ApplyRows([]chronicle.Row{{SN: n, Vals: value.Tuple{value.Int(n)}}})
	}
	v.Publish()
	var got []int64
	v.Scan(Window{}, func(t value.Tuple) bool { got = append(got, t[0].AsInt()); return true })
	want := []int64{-40, -3, 0, 10, 200}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan order = %v, want %v", got, want)
		}
	}
}

// TestFoldIsInvisibleUntilPublish is the fold-vs-publish contract on one
// view: ApplyRows changes nothing a reader can see —
// not the rows, not the count, not the LSN a scan reports — and reports only
// its first fold since the last publication; Publish makes all of it visible
// at once, under the highest LSN folded, and a second Publish is a no-op.
// With a shared directory, a sibling folds and publishes every row first:
// the keys it adds to the directory and its order are still not the view's.
func TestFoldIsInvisibleUntilPublish(t *testing.T) {
	for _, name := range []string{"own_directory", "shared_directory"} {
		t.Run(name, func(t *testing.T) { foldIsInvisibleUntilPublish(t, name == "shared_directory") })
	}
}

func foldIsInvisibleUntilPublish(t *testing.T, shared bool) {
	f := newFixture(t)
	v := minutesPerAcct(t, f)
	var sibling *View
	if shared {
		sibling = siblings(t, f, v.Dir(), 1)[0]
	}
	fold := func(d algebra.BatchDelta) bool {
		rows := algebra.Delta(v.Def().Expr, d)
		if sibling != nil {
			sibling.ApplyRows(rows)
			sibling.Publish()
		}
		return v.ApplyRows(rows)
	}
	if !fold(f.appendCall(t, "a", 10)) { // LSN 1, published
		t.Fatal("the first fold did not claim a publication")
	}
	v.Publish()
	read := func() (total, groups int64, lsn uint64) {
		lsn = v.Scan(Window{}, func(row value.Tuple) bool {
			total += row[1].AsInt()
			groups++
			return true
		})
		return total, groups, lsn
	}
	for i, acct := range []string{"a", "b", "a"} {
		first := fold(f.appendCall(t, acct, 5)) // LSNs 2..4
		if first != (i == 0) {
			t.Errorf("fold %d: first = %v", i, first)
		}
	}
	if total, groups, lsn := read(); total != 10 || groups != 1 || lsn != 1 || v.Len() != 1 {
		t.Errorf("before Publish: total %d over %d groups at LSN %d, Len %d; want the published 10/1/1/1",
			total, groups, lsn, v.Len())
	}
	if _, ok := v.Lookup(value.Tuple{value.Str("b")}); ok {
		t.Error("before Publish: a group only folded is already found")
	}
	if v.AppliedLSN() != 4 {
		t.Errorf("live cursor = %d, want 4", v.AppliedLSN())
	}
	v.Publish()
	v.Publish()
	if total, groups, lsn := read(); total != 25 || groups != 2 || lsn != 4 || v.Len() != 2 {
		t.Errorf("after Publish: total %d over %d groups at LSN %d, Len %d; want 25/2/4/2",
			total, groups, lsn, v.Len())
	}
	if st := v.Stats(); st.Publishes != 2 || st.Applies != 4 {
		t.Errorf("stats = %+v, want 2 publications for 4 folds", st)
	}
	if v.ApplyRows(nil) {
		t.Error("an empty fold claimed a publication")
	}
}
