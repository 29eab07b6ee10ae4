package keyenc_test

import (
	"fmt"
	"testing"

	"chronicledb/internal/aggregate"
	"chronicledb/internal/algebra"
	"chronicledb/internal/chronicle"
	"chronicledb/internal/dispatch"
	"chronicledb/internal/keyenc"
	"chronicledb/internal/pred"
	"chronicledb/internal/relation"
	"chronicledb/internal/value"
)

// TestKeyRuleAgreesWithCompare: every place that decides whether two values
// are one key decides it as value.Compare does, over every pair (a, b) of
// the values TestCompareTotalOrder orders — two NaN payloads, ±0, 2⁵³±1,
// the neighbours of ±2⁶³ and the Int/Float twins among them. A relation Get
// by b finds the row upserted under a, a dispatch target with the constant a
// is emitted for a row holding b, a key join probing by b joins the row
// keyed a, and GROUP BY SN puts a and b in one group, each exactly when
// value.Compare(a, b) == 0.
func TestKeyRuleAgreesWithCompare(t *testing.T) {
	vals := keyenc.TotalOrderValues()
	row := func(v value.Value) []chronicle.Row {
		return []chronicle.Row{{SN: 1, LSN: 1, Vals: value.Tuple{v}}}
	}
	g := chronicle.NewGroup("g")
	newChronicle := func(name string, k value.Kind) *chronicle.Chronicle {
		c, err := g.NewChronicle(name, value.NewSchema(value.Column{Name: "x", Kind: k}), chronicle.RetainNone)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	d := dispatch.New()
	dc := newChronicle("d", value.KindFloat)
	for i, a := range vals {
		err := d.Register(&dispatch.Target{ID: fmt.Sprint(i), Chronicles: []*chronicle.Chronicle{dc},
			Filter: pred.Or(pred.ColConst(0, pred.Eq, a)), FilterChronicle: dc})
		if err != nil {
			t.Fatal(err)
		}
	}
	emitted := make([]map[string]bool, len(vals))
	for j, b := range vals {
		emitted[j] = map[string]bool{}
		for _, tg := range d.Affected(dc, row(b)) {
			emitted[j][tg.ID] = true
		}
	}

	gc := newChronicle("grouped", value.KindFloat)
	grouped, err := algebra.NewGroupBySN(algebra.NewScan(gc), []int{0}, []aggregate.Spec{{Func: aggregate.Count, Col: -1, Name: "n"}})
	if err != nil {
		t.Fatal(err)
	}

	for i, a := range vals {
		var rel *relation.Relation
		var join algebra.Node
		var jc *chronicle.Chronicle
		if !a.IsNull() { // a relation key is never null
			schema := value.NewSchema(value.Column{Name: "k", Kind: a.Kind()}, value.Column{Name: "v", Kind: value.KindInt})
			if rel, err = relation.New(fmt.Sprint("r", i), schema, []int{0}, false); err != nil {
				t.Fatal(err)
			}
			if err := rel.Upsert(1, value.Tuple{a, value.Int(int64(i))}); err != nil {
				t.Fatal(err)
			}
			jc = newChronicle(fmt.Sprint("j", i), a.Kind())
			if join, err = algebra.NewJoinRel(algebra.NewScan(jc), rel, []int{0}, []int{0}); err != nil {
				t.Fatal(err)
			}
		}
		for j, b := range vals {
			want := value.Compare(a, b) == 0
			if rel != nil {
				got, ok := rel.Get(value.Tuple{b})
				if ok != want || ok && got[1].AsInt() != int64(i) {
					t.Errorf("relation keyed %v: Get(%v) = %v, %v; Compare equal %v", a, b, got, ok, want)
				}
				if n := len(algebra.Delta(join, algebra.BatchDelta{jc: row(b)})); n != boolInt(want) {
					t.Errorf("key join probing by %v joined %d rows of the relation keyed %v; Compare equal %v", b, n, a, want)
				}
			}
			if got := emitted[j][fmt.Sprint(i)]; got != want {
				t.Errorf("dispatch target with constant %v emitted %v for a row holding %v; Compare equal %v", a, got, b, want)
			}
			rows := []chronicle.Row{{SN: 1, LSN: 1, Vals: value.Tuple{a}}, {SN: 1, LSN: 1, Vals: value.Tuple{b}}}
			if n := len(algebra.Delta(grouped, algebra.BatchDelta{gc: rows})); n != 2-boolInt(want) {
				t.Errorf("GROUP BY SN made %d groups of %v and %v; Compare equal %v", n, a, b, want)
			}
		}
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
