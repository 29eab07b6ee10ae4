package baseline

import (
	"testing"

	"chronicledb/internal/aggregate"
	"chronicledb/internal/algebra"
	"chronicledb/internal/chronicle"
	"chronicledb/internal/value"
	"chronicledb/internal/view"
)

func newCalls(t *testing.T, retain chronicle.Retention) (*chronicle.Group, *chronicle.Chronicle) {
	t.Helper()
	g := chronicle.NewGroup("g")
	c, err := g.NewChronicle("calls", value.NewSchema(
		value.Column{Name: "acct", Kind: value.KindString},
		value.Column{Name: "minutes", Kind: value.KindInt},
	), retain)
	if err != nil {
		t.Fatal(err)
	}
	return g, c
}

func usageDef(c *chronicle.Chronicle) view.Def {
	return view.Def{
		Name: "usage", Expr: algebra.NewScan(c), Mode: view.SummarizeGroupBy,
		GroupCols: []int{0},
		Aggs:      []aggregate.Spec{{Func: aggregate.Sum, Col: 1, Name: "total"}},
	}
}

func TestRecomputeMatchesIncremental(t *testing.T) {
	g, c := newCalls(t, chronicle.RetainAll)
	def := usageDef(c)
	incr, err := view.New(def)
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewRecompute(def)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		rows, err := c.Append(g.NextSN(), 0, uint64(i+1),
			[]value.Tuple{{value.Str(string(rune('a' + i%3))), value.Int(int64(i))}})
		if err != nil {
			t.Fatal(err)
		}
		incr.Apply(algebra.BatchDelta{c: rows})
	}
	got, err := base.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	want := incr.Rows()
	if len(got) != len(want) {
		t.Fatalf("recompute %v != incremental %v", got, want)
	}
	row, ok, err := base.Lookup(value.Tuple{value.Str("a")})
	if err != nil || !ok {
		t.Fatalf("Lookup: %v %v", ok, err)
	}
	wantRow, _ := incr.Lookup(value.Tuple{value.Str("a")})
	if !value.TuplesEqual(row, wantRow) {
		t.Errorf("Lookup %v != %v", row, wantRow)
	}
	if base.Refreshes() != 1 {
		t.Errorf("Refreshes = %d", base.Refreshes())
	}
}

func TestRecomputeFailsOnWindowedChronicle(t *testing.T) {
	g, c := newCalls(t, chronicle.Retention(1))
	base, err := NewRecompute(usageDef(c))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		c.Append(g.NextSN(), 0, uint64(i+1), []value.Tuple{{value.Str("a"), value.Int(1)}})
	}
	if _, err := base.Refresh(); err == nil {
		t.Error("recompute over a windowed chronicle succeeded")
	}
	if _, _, err := base.Lookup(value.Tuple{value.Str("a")}); err == nil {
		t.Error("lookup over a windowed chronicle succeeded")
	}
}

func TestNewRecomputeValidates(t *testing.T) {
	if _, err := NewRecompute(view.Def{}); err == nil {
		t.Error("invalid definition accepted")
	}
}

func TestScanQuery(t *testing.T) {
	g, c := newCalls(t, chronicle.RetainAll)
	for i := 0; i < 10; i++ {
		c.Append(g.NextSN(), 0, uint64(i+1),
			[]value.Tuple{{value.Str(string(rune('a' + i%2))), value.Int(int64(i))}})
	}
	got, err := ScanQuery(c, 0, value.Str("a"), aggregate.Sum, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.AsInt() != 0+2+4+6+8 {
		t.Errorf("scan SUM = %v", got)
	}
	got, err = ScanQuery(c, 0, value.Str("b"), aggregate.Count, -1)
	if err != nil || got.AsInt() != 5 {
		t.Errorf("scan COUNT = %v, %v", got, err)
	}
}

func TestScanQueryFailsOnWindowedChronicle(t *testing.T) {
	g, c := newCalls(t, chronicle.RetainNone)
	c.Append(g.NextSN(), 0, 1, []value.Tuple{{value.Str("a"), value.Int(1)}})
	if _, err := ScanQuery(c, 0, value.Str("a"), aggregate.Sum, 1); err == nil {
		t.Error("scan over RetainNone chronicle succeeded")
	}
}
