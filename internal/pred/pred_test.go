package pred

import (
	"testing"
	"testing/quick"

	"chronicledb/internal/value"
)

func tup(vals ...value.Value) value.Tuple { return value.Tuple(vals) }

func TestOpString(t *testing.T) {
	want := map[Op]string{Eq: "=", Ne: "!=", Lt: "<", Le: "<=", Gt: ">", Ge: ">="}
	for op, s := range want {
		if op.String() != s {
			t.Errorf("%v.String() = %q, want %q", uint8(op), op.String(), s)
		}
	}
	if Op(42).String() != "op(42)" {
		t.Error("unknown op rendering")
	}
}

func TestAtomEvalColConst(t *testing.T) {
	row := tup(value.Int(10), value.Str("nj"))
	for _, tc := range []struct {
		atom Atom
		want bool
	}{
		{ColConst(0, Eq, value.Int(10)), true},
		{ColConst(0, Ne, value.Int(10)), false},
		{ColConst(0, Lt, value.Int(11)), true},
		{ColConst(0, Le, value.Int(10)), true},
		{ColConst(0, Gt, value.Int(10)), false},
		{ColConst(0, Ge, value.Int(10)), true},
		{ColConst(1, Eq, value.Str("nj")), true},
		{ColConst(1, Eq, value.Str("ny")), false},
		{ColConst(0, Eq, value.Float(10.0)), true}, // numeric cross-kind
	} {
		if got := tc.atom.Eval(row); got != tc.want {
			t.Errorf("%s = %v, want %v", tc.atom.String(nil), got, tc.want)
		}
	}
}

func TestAtomEvalColCol(t *testing.T) {
	row := tup(value.Int(3), value.Int(7))
	if !ColCol(0, Lt, 1).Eval(row) {
		t.Error("3 < 7 should hold")
	}
	if ColCol(0, Ge, 1).Eval(row) {
		t.Error("3 >= 7 should not hold")
	}
}

func TestPredicateTrue(t *testing.T) {
	p := True()
	if !p.IsTrue() {
		t.Error("True().IsTrue() = false")
	}
	if !p.Eval(tup(value.Int(1))) {
		t.Error("True() should match everything")
	}
	if p.String(nil) != "true" {
		t.Errorf("String = %q", p.String(nil))
	}
	if Or().IsTrue() != true {
		t.Error("Or() should be True")
	}
}

func TestPredicateDisjunction(t *testing.T) {
	// minutes > 100 OR state = "nj"
	p := Or(
		ColConst(0, Gt, value.Int(100)),
		ColConst(1, Eq, value.Str("nj")),
	)
	if p.IsTrue() {
		t.Error("non-empty predicate reported true")
	}
	if !p.Eval(tup(value.Int(101), value.Str("ny"))) {
		t.Error("first disjunct should match")
	}
	if !p.Eval(tup(value.Int(5), value.Str("nj"))) {
		t.Error("second disjunct should match")
	}
	if p.Eval(tup(value.Int(5), value.Str("ny"))) {
		t.Error("neither disjunct should match")
	}
}

func TestPredicateColumnsAndMax(t *testing.T) {
	p := Or(ColCol(3, Lt, 1), ColConst(5, Eq, value.Int(0)))
	cols := p.Columns()
	if len(cols) != 3 || cols[0] != 1 || cols[1] != 3 || cols[2] != 5 {
		t.Errorf("Columns = %v", cols)
	}
	if p.MaxColumn() != 5 {
		t.Errorf("MaxColumn = %d", p.MaxColumn())
	}
	if True().MaxColumn() != -1 {
		t.Error("True().MaxColumn() != -1")
	}
}

func TestEqualityConstant(t *testing.T) {
	if col, k, ok := Or(ColConst(2, Eq, value.Str("a"))).EqualityConstant(); !ok || col != 2 || k.AsString() != "a" {
		t.Errorf("EqualityConstant = %d, %v, %v", col, k, ok)
	}
	if _, _, ok := Or(ColConst(2, Lt, value.Int(1))).EqualityConstant(); ok {
		t.Error("inequality should not be an equality constant")
	}
	if _, _, ok := Or(ColCol(0, Eq, 1)).EqualityConstant(); ok {
		t.Error("col-col equality should not qualify")
	}
	if _, _, ok := Or(ColConst(0, Eq, value.Int(1)), ColConst(1, Eq, value.Int(2))).EqualityConstant(); ok {
		t.Error("multi-atom disjunction should not qualify")
	}
	if _, _, ok := True().EqualityConstant(); ok {
		t.Error("True should not qualify")
	}
}

func TestPredicateString(t *testing.T) {
	schema := value.NewSchema(
		value.Column{Name: "minutes", Kind: value.KindInt},
		value.Column{Name: "state", Kind: value.KindString},
	)
	p := Or(ColConst(0, Gt, value.Int(100)), ColConst(1, Eq, value.Str("nj")))
	got := p.String(schema)
	if got != `minutes > 100 OR state = "nj"` {
		t.Errorf("String = %q", got)
	}
	if ColCol(0, Le, 1).String(nil) != "$0 <= $1" {
		t.Errorf("schemaless atom = %q", ColCol(0, Le, 1).String(nil))
	}
}

func TestDisjunctionEquivalentToAnyQuick(t *testing.T) {
	f := func(v int16, bounds []int16) bool {
		if len(bounds) > 8 {
			bounds = bounds[:8]
		}
		atoms := make([]Atom, len(bounds))
		for i, b := range bounds {
			atoms[i] = ColConst(0, Gt, value.Int(int64(b)))
		}
		p := Or(atoms...)
		row := tup(value.Int(int64(v)))
		want := len(bounds) == 0 // empty = true
		for _, b := range bounds {
			if int64(v) > int64(b) {
				want = true
			}
		}
		return p.Eval(row) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
