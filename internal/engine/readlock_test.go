package engine

import (
	"testing"
	"time"

	"chronicledb/internal/aggregate"
	"chronicledb/internal/algebra"
	"chronicledb/internal/keyenc"
	"chronicledb/internal/pred"
	"chronicledb/internal/value"
	"chronicledb/internal/view"
)

// populateForReads seeds an engine with a B-tree view, a hash view, a
// relation, and a few appended rows so every read method has something to
// return.
func populateForReads(t *testing.T, e *Engine) {
	t.Helper()
	c := mustCreateCalls(t, e)
	if _, err := e.CreateView(usageDef(c), pred.True(), nil); err != nil {
		t.Fatal(err)
	}
	hdef := view.Def{
		Name:      "usage_hash",
		Expr:      algebra.NewScan(c),
		Mode:      view.SummarizeGroupBy,
		GroupCols: []int{0},
		Aggs: []aggregate.Spec{
			{Func: aggregate.Sum, Col: 1, Name: "total"},
			{Func: aggregate.Count, Col: -1, Name: "n"},
		},
	}
	if _, err := e.CreateView(hdef, pred.True(), nil); err != nil {
		t.Fatal(err)
	}
	if err := mustAdoptRelation(t, e, "customers", custSchema()).Upsert(1, value.Tuple{value.Str("acct1"), value.Str("nj")}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := appendOne(e, "calls", []value.Tuple{{value.Str("acct1"), value.Int(int64(i))}}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReadsDoNotAcquireEngineLock is the lock-freedom guard for the read
// path: it holds e.mu exclusively — as the append hot path does — and
// requires every read method to complete anyway. A read that acquires
// e.mu (even the read side) deadlocks here and fails the test, so the
// "ViewLookup performs zero lock acquisitions on e.mu" invariant is
// machine-checked, not just documented.
func TestReadsDoNotAcquireEngineLock(t *testing.T) {
	e, _ := newEngine(t)
	populateForReads(t, e)

	e.mu.Lock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, ok, err := e.ViewLookup("usage", value.Tuple{value.Str("acct1")}); err != nil || !ok {
			t.Errorf("ViewLookup = %v, %v", ok, err)
		}
		// Every shape of the one scan entry, on the B-tree view and on the
		// hash view (no snapshot; it publishes through an atomic table and
		// must be as lock-free as the rest).
		for _, name := range []string{"usage", "usage_hash"} {
			if _, ok, err := e.ViewLookup(name, value.Tuple{value.Str("acct1")}); err != nil || !ok {
				t.Errorf("%s: ViewLookup = %v, %v", name, ok, err)
			}
			for _, w := range []view.Window{
				{},
				{Desc: true},
				{Hi: keyenc.AppendValue(nil, value.Str("zzz"))},
				{Lo: keyenc.AppendValue(nil, value.Str("a")), Desc: true, Limit: 1},
			} {
				rows := 0
				if _, err := e.ViewScan(name, w, func(value.Tuple) bool { rows++; return true }); err != nil || rows != 1 {
					t.Errorf("%s: ViewScan(%+v) = %d rows, %v", name, w, rows, err)
				}
			}
		}
		if _, err := e.ChronicleRows("calls"); err != nil {
			t.Errorf("ChronicleRows: %v", err)
		}
		if _, ok := e.View("usage"); !ok {
			t.Error("View lookup failed")
		}
		if _, ok := e.Chronicle("calls"); !ok {
			t.Error("Chronicle lookup failed")
		}
		if _, ok := e.Relation("customers"); !ok {
			t.Error("Relation lookup failed")
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a read method blocked on e.mu — the lock-free read path regressed")
	}
	e.mu.Unlock()
	// The counters are read under the engine lock, and they saw the reads.
	if c := e.Counters(); c.Lookups == 0 {
		t.Errorf("Counters() lookups = %d after reads of a live view", c.Lookups)
	}
}
