package engine

import (
	"fmt"
	"testing"

	"chronicledb/internal/aggregate"
	"chronicledb/internal/algebra"
	"chronicledb/internal/calendar"
	"chronicledb/internal/chronicle"
	"chronicledb/internal/pred"
	"chronicledb/internal/relation"
	"chronicledb/internal/sqlparse"
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

// newEngine returns an engine with a deterministic clock and its own LSN
// counter.
func newEngine(t testing.TB) (*Engine, *int64) {
	t.Helper()
	now := int64(0)
	var lsn uint64
	e := New(Config{
		RelationHistory: true,
		Clock:           func() int64 { return now },
		NextLSN:         func(n uint64) uint64 { lsn += n; return lsn - n + 1 },
	})
	return e, &now
}

// appendOne is a single-chronicle append: a batch of one part.
func appendOne(e *Engine, chronicleName string, tuples []value.Tuple) (int64, error) {
	return appendBatch(e, []wal.Part{{Chronicle: chronicleName, Tuples: tuples}})
}

// appendBatch is one transaction across parts, a live RecAppend.
func appendBatch(e *Engine, parts []wal.Part) (int64, error) {
	sn, _, _, err := e.Append(wal.Record{Kind: wal.RecAppend, Parts: parts})
	return sn, err
}

// appendEach is a live call of one transaction per tuple, a RecAppendEach.
func appendEach(e *Engine, chronicleName string, tuples []value.Tuple) (first, last int64, err error) {
	first, last, _, err = e.Append(wal.Record{Kind: wal.RecAppendEach, Parts: []wal.Part{{Chronicle: chronicleName, Tuples: tuples}}})
	return first, last, err
}

func mustCreateCalls(t testing.TB, e *Engine) *chronicle.Chronicle {
	t.Helper()
	c, err := e.CreateChronicle("calls", chronicle.NewGroup("telecom"), callsSchema(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func usageDef(c *chronicle.Chronicle) view.Def {
	return view.Def{
		Name:      "usage",
		Expr:      algebra.NewScan(c),
		Mode:      view.SummarizeGroupBy,
		GroupCols: []int{0},
		Aggs: []aggregate.Spec{
			{Func: aggregate.Sum, Col: 1, Name: "total"},
			{Func: aggregate.Count, Col: -1, Name: "n"},
		},
	}
}

func TestAppendMaintainsViews(t *testing.T) {
	e, _ := newEngine(t)
	c := mustCreateCalls(t, e)
	v, err := e.CreateView(usageDef(c))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := appendOne(e, "calls", []value.Tuple{{value.Str("a"), value.Int(10)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := appendOne(e, "calls", []value.Tuple{{value.Str("a"), value.Int(5)}}); err != nil {
		t.Fatal(err)
	}
	got, ok := v.Lookup(value.Tuple{value.Str("a")})
	if !ok || got[1].AsInt() != 15 || got[2].AsInt() != 2 {
		t.Errorf("usage(a) = %v, %v", got, ok)
	}
	st := e.Counters().Stats
	if st.Appends != 2 || st.TuplesAppended != 2 || st.ViewsMaintained != 2 {
		t.Errorf("Stats = %+v", st)
	}
	if _, err := appendOne(e, "nope", nil); err == nil {
		t.Error("append to unknown chronicle accepted")
	}
}

func TestAppendBatchSharedSN(t *testing.T) {
	e, _ := newEngine(t)
	calls := mustCreateCalls(t, e)
	if _, err := e.CreateChronicle("payments", calls.Group(), value.NewSchema(
		value.Column{Name: "acct", Kind: value.KindString},
		value.Column{Name: "amount", Kind: value.KindInt},
	), nil); err != nil {
		t.Fatal(err)
	}
	sn, err := appendBatch(e, []wal.Part{
		{Chronicle: "calls", Tuples: []value.Tuple{{value.Str("a"), value.Int(1)}}},
		{Chronicle: "payments", Tuples: []value.Tuple{{value.Str("a"), value.Int(9)}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	pays := e.chronicles["payments"]
	if calls.LastSN() != sn || pays.LastSN() != sn {
		t.Errorf("SNs differ: %d vs %d vs %d", calls.LastSN(), pays.LastSN(), sn)
	}
	if _, err := appendBatch(e, nil); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := appendBatch(e, []wal.Part{{Chronicle: "ghost"}}); err == nil {
		t.Error("unknown chronicle in batch accepted")
	}
}

func TestPeriodicViewThroughEngine(t *testing.T) {
	e, now := newEngine(t)
	c := mustCreateCalls(t, e)
	cal, err := calendar.NewPeriodic(0, 100, 100)
	if err != nil {
		t.Fatal(err)
	}
	def := usageDef(c)
	def.Name = "monthly"
	pv, err := e.CreatePeriodicView("monthly", def, cal, -1)
	if err != nil {
		t.Fatal(err)
	}
	*now = 50
	appendOne(e, "calls", []value.Tuple{{value.Str("a"), value.Int(3)}})
	*now = 150
	appendOne(e, "calls", []value.Tuple{{value.Str("a"), value.Int(4)}})
	if pv.Live() != 2 {
		t.Fatalf("Live = %d", pv.Live())
	}
	m0, _ := pv.At(calendar.Interval{Start: 0, End: 100})
	if got, _ := m0.Lookup(value.Tuple{value.Str("a")}); got[1].AsInt() != 3 {
		t.Errorf("month 0 = %v", got)
	}
}

// sqlCatalog is the sqlparse.Catalog of an engine and its relations.
type sqlCatalog struct {
	e         *Engine
	relations map[string]*relation.Relation
}

func (c sqlCatalog) Chronicle(name string) (*chronicle.Chronicle, bool) {
	ch, ok := c.e.chronicles[name]
	return ch, ok
}

func (c sqlCatalog) Relation(name string) (*relation.Relation, bool) {
	r, ok := c.relations[name]
	return r, ok
}

// TestDispatchFilterSkipsUnaffectedViews: a view is dispatched on the filter
// its own definition gives it — eight per-account σ views, a σ over a key
// join made through the Go API and a SQL JOIN … WHERE view are each skipped
// by an append that fails their σ.
func TestDispatchFilterSkipsUnaffectedViews(t *testing.T) {
	e, _ := newEngine(t)
	c := mustCreateCalls(t, e)
	var views []*view.View
	for i := 0; i < 8; i++ {
		acct := fmt.Sprintf("acct%d", i)
		sel, err := algebra.NewSelect(algebra.NewScan(c), pred.Or(pred.ColConst(0, pred.Eq, value.Str(acct))))
		if err != nil {
			t.Fatal(err)
		}
		v, err := e.CreateView(view.Def{
			Name: "bal_" + acct, Expr: sel, Mode: view.SummarizeGroupBy,
			GroupCols: []int{0},
			Aggs:      []aggregate.Spec{{Func: aggregate.Sum, Col: 1, Name: "total"}},
		})
		if err != nil {
			t.Fatal(err)
		}
		views = append(views, v)
	}
	appendOne(e, "calls", []value.Tuple{{value.Str("acct3"), value.Int(5)}})
	// Only acct3's view was maintained.
	if e.Counters().ViewsMaintained != 1 {
		t.Errorf("ViewsMaintained = %d, want 1", e.Counters().ViewsMaintained)
	}
	if got, ok := views[3].Lookup(value.Tuple{value.Str("acct3")}); !ok || got[1].AsInt() != 5 {
		t.Errorf("bal_acct3 = %v, %v", got, ok)
	}
	if views[0].Len() != 0 {
		t.Error("unrelated view touched")
	}

	cust, err := relation.New("customers", custSchema(), []int{0}, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := cust.Upsert(1, value.Tuple{value.Str("vip"), value.Str("nj")}); err != nil {
		t.Fatal(err)
	}
	jr, err := algebra.NewJoinRel(algebra.NewScan(c), cust, []int{0}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	sel, err := algebra.NewSelect(jr, pred.Or(pred.ColConst(0, pred.Eq, value.Str("vip"))))
	if err != nil {
		t.Fatal(err)
	}
	goView, err := e.CreateView(view.Def{
		Name: "vip_go", Expr: sel, Mode: view.SummarizeGroupBy,
		GroupCols: []int{3},
		Aggs:      []aggregate.Spec{{Func: aggregate.Sum, Col: 1, Name: "total"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	stmt, err := sqlparse.ParseOne(`CREATE VIEW vip_sql AS SELECT state, SUM(minutes) AS total
		FROM calls JOIN customers ON calls.acct = customers.acct
		WHERE calls.acct = 'vip' GROUP BY state`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sqlparse.PlanView(sqlCatalog{e, map[string]*relation.Relation{"customers": cust}}, stmt.(*sqlparse.CreateView))
	if err != nil {
		t.Fatal(err)
	}
	sqlView, err := e.CreateView(plan.Def)
	if err != nil {
		t.Fatal(err)
	}
	before := e.Counters().ViewsMaintained
	appendOne(e, "calls", []value.Tuple{{value.Str("acct5"), value.Int(1)}})
	if n := e.Counters().ViewsMaintained - before; n != 1 {
		t.Errorf("an append to acct5 maintained %d views, want bal_acct5 alone", n)
	}
	appendOne(e, "calls", []value.Tuple{{value.Str("vip"), value.Int(7)}})
	if n := e.Counters().ViewsMaintained - before; n != 3 {
		t.Errorf("an append to vip maintained %d views in all, want vip_go and vip_sql besides", n)
	}
	for _, v := range []*view.View{goView, sqlView} {
		if got, ok := v.Lookup(value.Tuple{value.Str("nj")}); !ok || got[1].AsInt() != 7 {
			t.Errorf("%s(nj) = %v, %v", v.Def().Name, got, ok)
		}
	}
}

func TestBackfillFromRetainedChronicle(t *testing.T) {
	e, _ := newEngine(t)
	retain := chronicle.RetainAll
	c, err := e.CreateChronicle("history", chronicle.NewGroup("history"), callsSchema(), &retain)
	if err != nil {
		t.Fatal(err)
	}
	appendOne(e, "history", []value.Tuple{{value.Str("a"), value.Int(10)}})
	appendOne(e, "history", []value.Tuple{{value.Str("a"), value.Int(20)}})
	def := usageDef(c)
	def.Name = "late_view"
	v, err := e.CreateView(def)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := v.Lookup(value.Tuple{value.Str("a")})
	if !ok || got[1].AsInt() != 30 {
		t.Errorf("backfilled view = %v, %v", got, ok)
	}
}

func TestRecorderVetoAbortsMutation(t *testing.T) {
	e, _ := newEngine(t)
	c := mustCreateCalls(t, e)
	v, _ := e.CreateView(usageDef(c))
	e.SetRecorder(func(wal.Record) error { return fmt.Errorf("disk full") })
	if _, err := appendOne(e, "calls", []value.Tuple{{value.Str("a"), value.Int(1)}}); err == nil {
		t.Fatal("append succeeded despite recorder veto")
	}
	if v.Len() != 0 || c.LastSN() != -1 {
		t.Error("vetoed append left state behind")
	}
	e.SetRecorder(nil)
	if _, err := appendOne(e, "calls", []value.Tuple{{value.Str("a"), value.Int(1)}}); err != nil {
		t.Fatal(err)
	}
}

func TestDropViewEngine(t *testing.T) {
	e, _ := newEngine(t)
	c := mustCreateCalls(t, e)
	if _, err := e.CreateView(usageDef(c)); err != nil {
		t.Fatal(err)
	}
	if err := e.DropView("usage"); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.views["usage"]; ok {
		t.Error("view still present")
	}
	if err := e.DropView("usage"); err == nil {
		t.Error("double drop accepted")
	}
	if err := e.DropView("calls"); err == nil {
		t.Error("dropping a chronicle as a view accepted")
	}
	// Appends no longer maintain it.
	appendOne(e, "calls", []value.Tuple{{value.Str("a"), value.Int(1)}})
	if e.Counters().ViewsMaintained != 0 {
		t.Errorf("ViewsMaintained = %d", e.Counters().ViewsMaintained)
	}
	// Periodic views drop through the same call.
	cal, _ := calendar.NewPeriodic(0, 10, 10)
	def := usageDef(c)
	def.Name = "p"
	if _, err := e.CreatePeriodicView("p", def, cal, -1); err != nil {
		t.Fatal(err)
	}
	if err := e.DropView("p"); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.periodics["p"]; ok {
		t.Error("periodic view still present")
	}
}

func TestReplayAtRecordCoordinates(t *testing.T) {
	e, _ := newEngine(t)
	retain := chronicle.RetainAll
	c, err := e.CreateChronicle("calls", chronicle.NewGroup("telecom"), callsSchema(), &retain)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, err = e.Append(wal.Record{Kind: wal.RecAppend, LSN: 7, SN: 42, Chronon: 4200, Parts: []wal.Part{
		{Chronicle: "calls", Tuples: []value.Tuple{{value.Str("a"), value.Int(1)}}},
	}})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	var got chronicle.Row
	c.Scan(func(r chronicle.Row) bool { got = r; return false })
	if got.SN != 42 || got.Chronon != 4200 || got.LSN != 7 {
		t.Errorf("row = %+v", got)
	}
	// The next auto append continues after the replayed SN.
	sn, err := appendOne(e, "calls", []value.Tuple{{value.Str("a"), value.Int(1)}})
	if err != nil || sn != 43 {
		t.Errorf("next SN = %d, %v", sn, err)
	}
	// An idempotent call re-takes each tuple's SN, chronon and LSN and its
	// dedup entry.
	_, _, _, err = e.Append(wal.Record{Kind: wal.RecAppendEach, LSN: 20, SN: 50, Chronon: 5000, Chronons: []int64{5000, 4990},
		ClientID: "c", RequestID: "r",
		Parts: []wal.Part{{Chronicle: "calls", Tuples: []value.Tuple{
			{value.Str("a"), value.Int(1)}, {value.Str("b"), value.Int(2)},
		}}}})
	if err != nil {
		t.Fatalf("Replay each: %v", err)
	}
	var rows []string
	c.Scan(func(r chronicle.Row) bool {
		rows = append(rows, fmt.Sprintf("%d@%d/%d", r.SN, r.Chronon, r.LSN))
		return true
	})
	if fmt.Sprint(rows[2:]) != "[50@5000/20 51@4990/21]" {
		t.Errorf("replayed call stored %v", rows)
	}
	first, last, deduped, err := e.Append(wal.Record{Kind: wal.RecAppendEach, ClientID: "c", RequestID: "r",
		Parts: []wal.Part{{Chronicle: "calls", Tuples: []value.Tuple{{value.Str("a"), value.Int(1)}}}}})
	if err != nil || !deduped || first != 50 || last != 51 {
		t.Errorf("retry after replay = %d..%d deduped=%v, %v", first, last, deduped, err)
	}
	if _, _, _, err := e.Append(wal.Record{Kind: wal.RecAppendEach, LSN: 30, SN: 60}); err == nil {
		t.Error("per-tuple record without a part replayed")
	}
	if _, _, _, err := e.Append(wal.Record{Kind: wal.RecUpsert, LSN: 31, Relation: "r"}); err == nil {
		t.Error("relation record replayed by an engine")
	}
}

func TestNumericCoercion(t *testing.T) {
	e, _ := newEngine(t)
	schema := value.NewSchema(
		value.Column{Name: "k", Kind: value.KindString},
		value.Column{Name: "amount", Kind: value.KindFloat},
	)
	retain := chronicle.RetainAll
	c, err := e.CreateChronicle("ledger", chronicle.NewGroup("ledger"), schema, &retain)
	if err != nil {
		t.Fatal(err)
	}
	// An int literal lands in a float column.
	if _, err := appendOne(e, "ledger", []value.Tuple{{value.Str("a"), value.Int(9)}}); err != nil {
		t.Fatal(err)
	}
	var got chronicle.Row
	c.Scan(func(r chronicle.Row) bool { got = r; return false })
	if got.Vals[1].Kind() != value.KindFloat || got.Vals[1].AsFloat() != 9.0 {
		t.Errorf("coerced value = %v (%s)", got.Vals[1], got.Vals[1].Kind())
	}
	// Incompatible kinds still fail.
	if _, err := appendOne(e, "ledger", []value.Tuple{{value.Str("a"), value.Str("no")}}); err == nil {
		t.Error("string in float column accepted")
	}
	// Batch path coerces as well.
	if _, err := appendBatch(e, []wal.Part{
		{Chronicle: "ledger", Tuples: []value.Tuple{{value.Str("b"), value.Int(4)}}},
	}); err != nil {
		t.Fatal(err)
	}
}

func TestRecorderSeesBatchMutations(t *testing.T) {
	e, _ := newEngine(t)
	mustCreateCalls(t, e)
	var kinds []wal.RecordKind
	e.SetRecorder(func(m wal.Record) error {
		kinds = append(kinds, m.Kind)
		return nil
	})
	appendBatch(e, []wal.Part{
		{Chronicle: "calls", Tuples: []value.Tuple{{value.Str("a"), value.Int(1)}}},
	})
	if len(kinds) != 1 || kinds[0] != wal.RecAppend {
		t.Fatalf("kinds = %v", kinds)
	}
	e.SetRecorder(func(wal.Record) error { return fmt.Errorf("no") })
	if _, err := appendBatch(e, []wal.Part{
		{Chronicle: "calls", Tuples: []value.Tuple{{value.Str("a"), value.Int(1)}}},
	}); err == nil {
		t.Error("vetoed batch append succeeded")
	}
}

// TestLongCallFoldsInChunks: a call longer than maintainChunk folds chunk by
// chunk — the call buffer stays bounded — but is still one publication, and a
// failure past the first chunk keeps (and folds) everything before it.
func TestLongCallFoldsInChunks(t *testing.T) {
	e, _ := newEngine(t)
	c := mustCreateCalls(t, e)
	v, err := e.CreateView(usageDef(c))
	if err != nil {
		t.Fatal(err)
	}
	const n = maintainChunk + 10
	tuples := make([]value.Tuple, n)
	for i := range tuples {
		tuples[i] = value.Tuple{value.Str(fmt.Sprintf("acct%d", i%7)), value.Int(1)}
	}
	before := v.Stats()
	first, last, err := appendEach(e, "calls", tuples)
	if err != nil || last-first != n-1 {
		t.Fatalf("call = %d..%d, %v", first, last, err)
	}
	st := v.Stats()
	if folds, pubs := st.Applies-before.Applies, st.Publishes-before.Publishes; folds != 2 || pubs != 1 || st.DeltaRows != n {
		t.Errorf("%d-row call: %d folds, %d publications, %d delta rows; want 2, 1, %d", n, folds, pubs, st.DeltaRows, n)
	}
	if cap(e.scratch.rows) > 2*maintainChunk {
		t.Errorf("call buffer grew to %d rows, chunk is %d", cap(e.scratch.rows), maintainChunk)
	}

	tuples[maintainChunk+5] = value.Tuple{value.Str("short")}
	first, last, err = appendEach(e, "calls", tuples)
	if err == nil || last-first != maintainChunk+4 {
		t.Fatalf("failing call = %d..%d, %v; want the %d-row prefix applied", first, last, err, maintainChunk+5)
	}
	var total int64
	v.Scan(view.Window{}, func(row value.Tuple) bool { total += row[2].AsInt(); return true })
	if want := int64(n + maintainChunk + 5); total != want {
		t.Errorf("view counts %d rows after the failed call, want %d", total, want)
	}
	if st := e.Counters(); st.Appends != n+maintainChunk+5 || st.ViewsMaintained != 4 {
		t.Errorf("Appends = %d, ViewsMaintained = %d; want %d, 4", st.Appends, st.ViewsMaintained, n+maintainChunk+5)
	}
}
