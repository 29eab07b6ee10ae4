package dispatch

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"chronicledb/internal/chronicle"
	"chronicledb/internal/pred"
	"chronicledb/internal/value"
)

func newChronicles(t testing.TB) (*chronicle.Group, *chronicle.Chronicle, *chronicle.Chronicle) {
	t.Helper()
	g := chronicle.NewGroup("g")
	schema := value.NewSchema(
		value.Column{Name: "acct", Kind: value.KindString},
		value.Column{Name: "amount", Kind: value.KindInt},
	)
	a, err := g.NewChronicle("a", schema, chronicle.RetainNone)
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.NewChronicle("b", schema, chronicle.RetainNone)
	if err != nil {
		t.Fatal(err)
	}
	return g, a, b
}

func rowsFor(acct string, amount int64) []chronicle.Row {
	return []chronicle.Row{{SN: 1, Vals: value.Tuple{value.Str(acct), value.Int(amount)}}}
}

// at stamps rows with a chronon.
func at(rows []chronicle.Row, ch int64) []chronicle.Row {
	for i := range rows {
		rows[i].Chronon = ch
	}
	return rows
}

// window is an ActiveAt for a target active on [lo, hi): it answers with the
// range on which the answer holds, as a calendar does.
func window(lo, hi int64) func(int64) (bool, int64, int64) {
	return func(ch int64) (bool, int64, int64) {
		switch {
		case ch < lo:
			return false, math.MinInt64, lo
		case ch < hi:
			return true, lo, hi
		}
		return false, hi, math.MaxInt64
	}
}

func ids(ts []*Target) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.ID
	}
	sort.Strings(out)
	return out
}

func TestRegisterValidation(t *testing.T) {
	_, a, _ := newChronicles(t)
	d := New()
	if err := d.Register(&Target{Chronicles: []*chronicle.Chronicle{a}}); err == nil {
		t.Error("missing ID accepted")
	}
	if err := d.Register(&Target{ID: "x"}); err == nil {
		t.Error("missing chronicles accepted")
	}
	if err := d.Register(&Target{ID: "x", Chronicles: []*chronicle.Chronicle{a}}); err != nil {
		t.Fatal(err)
	}
	if err := d.Register(&Target{ID: "x", Chronicles: []*chronicle.Chronicle{a}}); err == nil {
		t.Error("duplicate ID accepted")
	}
	if d.Targets() != 1 {
		t.Errorf("Targets = %d", d.Targets())
	}
}

func TestDependencyFiltering(t *testing.T) {
	_, a, b := newChronicles(t)
	d := New()
	d.Register(&Target{ID: "onA", Chronicles: []*chronicle.Chronicle{a}})
	d.Register(&Target{ID: "onB", Chronicles: []*chronicle.Chronicle{b}})
	d.Register(&Target{ID: "onBoth", Chronicles: []*chronicle.Chronicle{a, b}})
	got := ids(d.Affected(a, rowsFor("x", 1)))
	if len(got) != 2 || got[0] != "onA" || got[1] != "onBoth" {
		t.Errorf("Affected(a) = %v", got)
	}
	got = ids(d.Affected(b, rowsFor("x", 1)))
	if len(got) != 2 || got[0] != "onB" || got[1] != "onBoth" {
		t.Errorf("Affected(b) = %v", got)
	}
}

func TestEqualityPredicateFiltering(t *testing.T) {
	_, a, _ := newChronicles(t)
	d := New()
	for i := 0; i < 10; i++ {
		acct := fmt.Sprintf("acct%d", i)
		d.Register(&Target{
			ID:              "balance_" + acct,
			Chronicles:      []*chronicle.Chronicle{a},
			Filter:          pred.Or(pred.ColConst(0, pred.Eq, value.Str(acct))),
			FilterChronicle: a,
		})
	}
	got := ids(d.Affected(a, rowsFor("acct7", 5)))
	if len(got) != 1 || got[0] != "balance_acct7" {
		t.Errorf("Affected = %v", got)
	}
	if got := d.Affected(a, rowsFor("stranger", 5)); len(got) != 0 {
		t.Errorf("stranger matched %v", ids(got))
	}
}

func TestGeneralPredicateFiltering(t *testing.T) {
	_, a, _ := newChronicles(t)
	d := New()
	d.Register(&Target{
		ID:              "big",
		Chronicles:      []*chronicle.Chronicle{a},
		Filter:          pred.Or(pred.ColConst(1, pred.Gt, value.Int(100))),
		FilterChronicle: a,
	})
	if got := d.Affected(a, rowsFor("x", 50)); len(got) != 0 {
		t.Error("small amount matched")
	}
	if got := d.Affected(a, rowsFor("x", 500)); len(got) != 1 {
		t.Error("big amount missed")
	}
}

func TestActivePeriodFiltering(t *testing.T) {
	_, a, _ := newChronicles(t)
	d := New()
	asked := 0
	d.Register(&Target{
		ID:         "january",
		Chronicles: []*chronicle.Chronicle{a},
		ActiveAt: func(ch int64) (bool, int64, int64) {
			asked++
			return window(100, 200)(ch)
		},
	})
	if got := d.Affected(a, at(rowsFor("x", 1), 50)); len(got) != 0 {
		t.Error("inactive target dispatched")
	}
	if got := d.Affected(a, at(rowsFor("x", 1), 150)); len(got) != 1 {
		t.Error("active target missed")
	}
	// A call's rows carry their own chronons: the target is affected when it
	// is active at any of them, and is asked once per run, not once per row.
	call := func(chronons ...int64) []chronicle.Row {
		var rows []chronicle.Row
		for i, ch := range chronons {
			rows = append(rows, chronicle.Row{SN: int64(i + 1), Chronon: ch, Vals: value.Tuple{value.Str("x"), value.Int(1)}})
		}
		return rows
	}
	asked = 0
	if got := d.Affected(a, call(50, 60, 70, 150, 160)); len(got) != 1 {
		t.Error("target active at the call's fourth row missed")
	}
	if asked != 2 {
		t.Errorf("ActiveAt asked %d times for two runs", asked)
	}
	asked = 0
	if got := d.Affected(a, call(50, 250, 260, 60)); len(got) != 0 {
		t.Error("target dispatched for a call that never enters its period")
	}
	if asked != 3 {
		t.Errorf("ActiveAt asked %d times for three runs", asked)
	}
}

func TestMultiRowBatchDedup(t *testing.T) {
	_, a, _ := newChronicles(t)
	d := New()
	d.Register(&Target{
		ID:              "acct1",
		Chronicles:      []*chronicle.Chronicle{a},
		Filter:          pred.Or(pred.ColConst(0, pred.Eq, value.Str("acct1"))),
		FilterChronicle: a,
	})
	rows := []chronicle.Row{
		{SN: 1, Vals: value.Tuple{value.Str("acct1"), value.Int(1)}},
		{SN: 1, Vals: value.Tuple{value.Str("acct1"), value.Int(2)}},
	}
	if got := d.Affected(a, rows); len(got) != 1 {
		t.Errorf("target duplicated: %v", ids(got))
	}
}

// TestIndexedMatchesLinear: the dispatcher must return exactly the target set
// of the linear scan for random workloads, examining fewer targets.
func TestIndexedMatchesLinear(t *testing.T) {
	_, a, b := newChronicles(t)
	var targets []*Target
	var scanned int64
	// linear is the §5.2 baseline the predicate index replaces: every target
	// on the chronicle is examined, its filter evaluated over the rows, its
	// period asked about at each row's chronon.
	linear := func(c *chronicle.Chronicle, rows []chronicle.Row) (out []string) {
		for _, t := range targets {
			if !slices.Contains(t.Chronicles, c) {
				continue
			}
			scanned++
			match, active := t.FilterChronicle != c || t.Filter.IsTrue(), t.ActiveAt == nil
			for _, r := range rows {
				match = match || t.Filter.Eval(r.Vals)
				if !active {
					active, _, _ = t.ActiveAt(r.Chronon)
				}
			}
			if match && active {
				out = append(out, t.ID)
			}
		}
		sort.Strings(out)
		return out
	}
	indexed := New()
	rng := rand.New(rand.NewSource(11))

	for i := 0; i < 200; i++ {
		tgt := Target{ID: fmt.Sprintf("t%d", i)}
		switch rng.Intn(3) {
		case 0:
			tgt.Chronicles = []*chronicle.Chronicle{a}
		case 1:
			tgt.Chronicles = []*chronicle.Chronicle{b}
		default:
			tgt.Chronicles = []*chronicle.Chronicle{a, b}
		}
		switch rng.Intn(3) {
		case 0: // equality filter
			tgt.Filter = pred.Or(pred.ColConst(0, pred.Eq, value.Str(fmt.Sprintf("acct%d", rng.Intn(20)))))
			tgt.FilterChronicle = tgt.Chronicles[0]
		case 1: // range filter
			tgt.Filter = pred.Or(pred.ColConst(1, pred.Gt, value.Int(int64(rng.Intn(100)))))
			tgt.FilterChronicle = tgt.Chronicles[0]
		}
		if rng.Intn(4) == 0 {
			lo := int64(rng.Intn(1000))
			hi := lo + int64(rng.Intn(1000))
			tgt.ActiveAt = window(lo, hi)
		}
		t1, t2 := tgt, tgt
		targets = append(targets, &t1)
		if err := indexed.Register(&t2); err != nil {
			t.Fatal(err)
		}
	}

	for trial := 0; trial < 500; trial++ {
		c := a
		if rng.Intn(2) == 0 {
			c = b
		}
		rows := rowsFor(fmt.Sprintf("acct%d", rng.Intn(25)), int64(rng.Intn(150)))
		ch := int64(rng.Intn(1200))
		got := ids(indexed.Affected(c, at(rows, ch)))
		if want := linear(c, at(rows, ch)); !slices.Equal(got, want) {
			t.Fatalf("trial %d: indexed %v != linear %v", trial, got, want)
		}
	}
	// The index must actually reduce scanning.
	if indexed.Scanned >= scanned {
		t.Errorf("index did not reduce scans: indexed %d, linear %d", indexed.Scanned, scanned)
	}
}

func TestUnregister(t *testing.T) {
	_, a, _ := newChronicles(t)
	d := New()
	d.Register(&Target{
		ID:              "eq",
		Chronicles:      []*chronicle.Chronicle{a},
		Filter:          pred.Or(pred.ColConst(0, pred.Eq, value.Str("x"))),
		FilterChronicle: a,
	})
	d.Register(&Target{ID: "plain", Chronicles: []*chronicle.Chronicle{a}})
	if d.Targets() != 2 {
		t.Fatalf("Targets = %d", d.Targets())
	}
	if !d.Unregister("eq") {
		t.Error("Unregister(eq) = false")
	}
	if d.Unregister("eq") {
		t.Error("double Unregister = true")
	}
	if d.Unregister("ghost") {
		t.Error("Unregister(ghost) = true")
	}
	got := ids(d.Affected(a, rowsFor("x", 1)))
	if len(got) != 1 || got[0] != "plain" {
		t.Errorf("Affected after unregister = %v", got)
	}
	if !d.Unregister("plain") {
		t.Error("Unregister(plain) = false")
	}
	if got := d.Affected(a, rowsFor("x", 1)); len(got) != 0 {
		t.Errorf("Affected after full unregister = %v", ids(got))
	}
	// The ID is reusable afterwards.
	if err := d.Register(&Target{ID: "eq", Chronicles: []*chronicle.Chronicle{a}}); err != nil {
		t.Errorf("re-register after unregister: %v", err)
	}
}
