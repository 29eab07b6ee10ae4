package shard

import (
	"fmt"
	"strings"
	"testing"

	"chronicledb/internal/aggregate"
	"chronicledb/internal/algebra"
	"chronicledb/internal/chronicle"
	"chronicledb/internal/engine"
	"chronicledb/internal/pred"
	"chronicledb/internal/value"
	"chronicledb/internal/view"
	"chronicledb/internal/wal"
)

func callsSchema() *value.Schema {
	return value.NewSchema(
		value.Column{Name: "acct", Kind: value.KindString},
		value.Column{Name: "minutes", Kind: value.KindInt},
	)
}

func custSchema() *value.Schema {
	return value.NewSchema(
		value.Column{Name: "acct", Kind: value.KindString},
		value.Column{Name: "state", Kind: value.KindString},
	)
}

// appendTx appends tuples to one chronicle as one transaction, a live
// RecAppend.
func appendTx(r *Router, chronicleName string, tuples []value.Tuple) (int64, error) {
	sn, _, _, err := r.Append(wal.Record{Kind: wal.RecAppend, Parts: []wal.Part{{Chronicle: chronicleName, Tuples: tuples}}})
	return sn, err
}

// appendEach appends tuples to one chronicle as a call of one transaction
// per tuple, a live RecAppendEach, with ids when clientID is set.
func appendEach(r *Router, chronicleName string, tuples []value.Tuple, clientID, requestID string) (first, last int64, deduped bool, err error) {
	return r.Append(wal.Record{Kind: wal.RecAppendEach, ClientID: clientID, RequestID: requestID,
		Parts: []wal.Part{{Chronicle: chronicleName, Tuples: tuples}}})
}

func newRouter(t testing.TB, n int) *Router {
	t.Helper()
	r, err := NewRouter(Config{Shards: n, Engine: engine.Config{
		DefaultRetention: chronicle.RetainAll,
		RelationHistory:  true,
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

// chronicleRows copies a chronicle's retained window.
func chronicleRows(t *testing.T, r *Router, name string) []chronicle.Row {
	t.Helper()
	rows, err := r.ChronicleRows(name)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// usageDef is a per-chronicle group-by summary view.
func usageDef(name string, c *chronicle.Chronicle) view.Def {
	return view.Def{
		Name:      name,
		Expr:      algebra.NewScan(c),
		Mode:      view.SummarizeGroupBy,
		GroupCols: []int{0},
		Aggs: []aggregate.Spec{
			{Func: aggregate.Sum, Col: 1, Name: "total"},
			{Func: aggregate.Count, Col: -1, Name: "n"},
		},
	}
}

func mustCreateChronicle(t testing.TB, r *Router, name, group string) *chronicle.Chronicle {
	t.Helper()
	c, err := r.CreateChronicle(name, group, callsSchema(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRouterBasics(t *testing.T) {
	r := newRouter(t, 4)
	c := mustCreateChronicle(t, r, "calls", "telecom")
	if _, err := r.CreateChronicle("calls", "", callsSchema(), nil); err == nil {
		t.Error("duplicate chronicle accepted")
	}
	if _, err := r.CreateView(usageDef("usage", c)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.CreateView(usageDef("usage", c)); err == nil {
		t.Error("duplicate view accepted")
	}
	sn, err := appendTx(r, "calls", []value.Tuple{{value.Str("alice"), value.Int(10)}})
	if err != nil || sn != 0 {
		t.Fatalf("Append = %d, %v", sn, err)
	}
	if _, err := appendTx(r, "nope", nil); err == nil {
		t.Error("append to unknown chronicle accepted")
	}
	usage, _ := r.View("usage")
	row, ok := r.ViewLookup(usage, value.Tuple{value.Str("alice")})
	if !ok || row[1].AsInt() != 10 {
		t.Fatalf("ViewLookup = %v %v", row, ok)
	}
	var appends int64
	r.Each(func(_ int, e *engine.Engine) { appends += e.Counters().Appends })
	if appends != 1 {
		t.Errorf("Stats().Appends summed over shards = %d", appends)
	}
	// A restored LSN never regresses, and the next mutation continues it.
	r.RestoreLSN(100)
	r.RestoreLSN(50)
	appendTx(r, "calls", []value.Tuple{{value.Str("alice"), value.Int(1)}})
	if r.LSN() != 101 {
		t.Errorf("LSN after RestoreLSN(100), RestoreLSN(50), append = %d", r.LSN())
	}
	if home := r.shardOfGroup("telecom"); home < 0 || home >= r.NumShards() {
		t.Errorf("shardOfGroup out of range: %d", home)
	}
	if names := r.Names(Chronicles); len(names) != 1 || names[0] != "calls" {
		t.Errorf("Names(Chronicles) = %v", names)
	}
}

func TestViewHomeFollowsChronicle(t *testing.T) {
	r := newRouter(t, 4)
	for i := 0; i < 8; i++ {
		group := fmt.Sprintf("g%d", i)
		name := fmt.Sprintf("calls%d", i)
		c := mustCreateChronicle(t, r, name, group)
		if _, err := r.CreateView(usageDef("v"+name, c)); err != nil {
			t.Fatal(err)
		}
		home := r.shardOfGroup(group)
		if e, ok := r.Home("v" + name); !ok || e != r.shards[home].eng {
			t.Errorf("view v%s not on home shard %d of group %s", name, home, group)
		}
	}
	ghost, err := chronicle.NewGroup("ghostgrp").NewChronicle("ghost", callsSchema(), chronicle.RetainAll)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.CreateView(usageDef("orphan", ghost)); err == nil || !strings.Contains(err.Error(), "unknown chronicle") {
		t.Errorf("view over unregistered chronicle: err = %v", err)
	}
}

func TestAppendEachAndBatch(t *testing.T) {
	r := newRouter(t, 2)
	mustCreateChronicle(t, r, "calls", "telecom")
	mustCreateChronicle(t, r, "payments", "telecom")
	first, last, _, err := appendEach(r, "calls", []value.Tuple{
		{value.Str("a"), value.Int(1)},
		{value.Str("b"), value.Int(2)},
		{value.Str("c"), value.Int(3)},
	}, "", "")
	if err != nil || first != 0 || last != 2 {
		t.Fatalf("per-tuple call = %d..%d, %v", first, last, err)
	}
	sn, _, _, err := r.Append(wal.Record{Kind: wal.RecAppend, Parts: []wal.Part{
		{Chronicle: "calls", Tuples: []value.Tuple{{value.Str("d"), value.Int(4)}}},
		{Chronicle: "payments", Tuples: []value.Tuple{{value.Str("d"), value.Int(9)}}},
	}})
	if err != nil || sn != 3 {
		t.Fatalf("batch = %d, %v", sn, err)
	}
	rows := chronicleRows(t, r, "calls")
	if len(rows) != 4 {
		t.Fatalf("ChronicleRows = %d rows", len(rows))
	}
	// A live append that carries coordinates is refused: only Replay applies
	// a record at its own LSN, after moving the allocator past it.
	lsn := r.LSN()
	if _, _, _, err := r.Append(wal.Record{Kind: wal.RecAppendEach, LSN: lsn + 5, SN: 4,
		Parts: []wal.Part{{Chronicle: "calls", Tuples: []value.Tuple{{value.Str("e"), value.Int(5)}}}}}); err == nil {
		t.Error("Append of a record with an LSN accepted")
	}
	if got := len(chronicleRows(t, r, "calls")); got != 4 || r.LSN() != lsn {
		t.Errorf("after the refused append: %d rows, LSN %d; want 4, %d", got, r.LSN(), lsn)
	}
}

// TestProactiveUpdateSemantics is Example 2.2 end to end on one shard: the
// NJ bonus applies per the address at the time of each call.
func TestProactiveUpdateSemantics(t *testing.T) {
	r := newRouter(t, 1)
	c := mustCreateChronicle(t, r, "calls", "telecom")
	rel, err := r.CreateRelation("customers", custSchema(), []int{0})
	if err != nil {
		t.Fatal(err)
	}
	jr, err := algebra.NewJoinRel(algebra.NewScan(c), rel, []int{0}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	sel, err := algebra.NewSelect(jr, pred.Or(pred.ColConst(3, pred.Eq, value.Str("nj"))))
	if err != nil {
		t.Fatal(err)
	}
	v, err := r.CreateView(view.Def{
		Name: "nj_minutes", Expr: sel, Mode: view.SummarizeGroupBy,
		GroupCols: []int{0},
		Aggs:      []aggregate.Spec{{Func: aggregate.Sum, Col: 1, Name: "total"}},
	})
	if err != nil {
		t.Fatal(err)
	}

	r.Upsert("customers", value.Tuple{value.Str("a"), value.Str("nj")})
	appendTx(r, "calls", []value.Tuple{{value.Str("a"), value.Int(10)}}) // counts
	r.Upsert("customers", value.Tuple{value.Str("a"), value.Str("ny")})
	appendTx(r, "calls", []value.Tuple{{value.Str("a"), value.Int(99)}}) // does not count
	r.Upsert("customers", value.Tuple{value.Str("a"), value.Str("nj")})
	appendTx(r, "calls", []value.Tuple{{value.Str("a"), value.Int(7)}}) // counts

	got, ok := v.Lookup(value.Tuple{value.Str("a")})
	if !ok || got[1].AsInt() != 17 {
		t.Errorf("nj_minutes(a) = %v, %v (want 17)", got, ok)
	}
}

// TestRelationOps covers the router's own mutations: relation updates
// coerce, count, reach the relation recorder, and are aborted by its veto.
func TestRelationOps(t *testing.T) {
	r := newRouter(t, 1)
	mustCreateChronicle(t, r, "calls", "telecom")
	if _, err := r.CreateRelation("calls", custSchema(), []int{0}); err == nil {
		t.Error("cross-kind name collision accepted")
	}
	rates := value.NewSchema(
		value.Column{Name: "k", Kind: value.KindString},
		value.Column{Name: "amount", Kind: value.KindFloat},
	)
	rel, err := r.CreateRelation("rates", rates, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	var kinds []wal.RecordKind
	r.SetWAL([]WAL{{}, {Record: func(m wal.Record) error {
		kinds = append(kinds, m.Kind)
		return nil
	}}})
	// An int literal lands in a float column.
	if err := r.Upsert("rates", value.Tuple{value.Str("x"), value.Int(3)}); err != nil {
		t.Fatal(err)
	}
	if rt, _ := rel.Get(value.Tuple{value.Str("x")}); rt[1].Kind() != value.KindFloat {
		t.Errorf("relation coercion: %s", rt[1].Kind())
	}
	if err := r.Upsert("ghost", value.Tuple{}); err == nil {
		t.Error("upsert to unknown relation accepted")
	}
	deleted, err := r.DeleteKey("rates", value.Tuple{value.Str("x")})
	if err != nil || !deleted {
		t.Errorf("DeleteKey = %v, %v", deleted, err)
	}
	if _, err := r.DeleteKey("ghost", value.Tuple{}); err == nil {
		t.Error("delete from unknown relation accepted")
	}
	if got := r.Counters().RelationUpdates; got != 2 {
		t.Errorf("RelationUpdates = %d", got)
	}
	if len(kinds) != 2 || kinds[0] != wal.RecUpsert || kinds[1] != wal.RecDelete {
		t.Errorf("recorded kinds = %v", kinds)
	}
	r.SetWAL([]WAL{{}, {Record: func(wal.Record) error { return fmt.Errorf("no") }}})
	if err := r.Upsert("rates", value.Tuple{value.Str("y"), value.Int(1)}); err == nil {
		t.Error("vetoed upsert succeeded")
	}
	if _, err := r.DeleteKey("rates", value.Tuple{value.Str("y")}); err == nil {
		t.Error("vetoed delete succeeded")
	}
	if rel.Len() != 0 {
		t.Error("vetoed relation update left state behind")
	}
}

func acct(i int) string { return fmt.Sprintf("acct%03d", i) }

func multisetDiff(a, b []value.Tuple) int {
	counts := map[string]int{}
	for _, t := range a {
		counts[t.FullKey()]++
	}
	for _, t := range b {
		counts[t.FullKey()]--
	}
	n := 0
	for _, c := range counts {
		if c != 0 {
			n++
		}
	}
	return n
}
