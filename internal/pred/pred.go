// Package pred implements the selection-predicate language of Definition
// 4.1 of the chronicle paper: a predicate is an atom of the form A θ A′ or
// A θ k — where A, A′ are attributes, k is a constant, and θ ∈
// {=, ≠, ≤, <, >, ≥} — or a disjunction of such atoms.
//
// Conjunction is deliberately absent from a single predicate, exactly as in
// the paper; the planner expresses AND by stacking selections
// (σ_p1(σ_p2(C))), which stays inside the chronicle algebra.
package pred

import (
	"cmp"
	"fmt"
	"strings"

	"chronicledb/internal/value"
)

// Op is a comparison operator.
type Op uint8

// The six comparison operators of Definition 4.1.
const (
	Eq Op = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

// String returns the SQL spelling of the operator.
func (o Op) String() string {
	switch o {
	case Eq:
		return "="
	case Ne:
		return "!="
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// eval applies the operator to a three-way comparison result.
func (o Op) eval(cmp int) bool {
	switch o {
	case Eq:
		return cmp == 0
	case Ne:
		return cmp != 0
	case Lt:
		return cmp < 0
	case Le:
		return cmp <= 0
	case Gt:
		return cmp > 0
	case Ge:
		return cmp >= 0
	default:
		return false
	}
}

// Operand is the right-hand side of an atom: either another column or a
// constant.
type Operand struct {
	IsCol bool
	Col   int         // column index, when IsCol
	Const value.Value // constant, otherwise
}

// ColOperand returns an operand referring to the column at index col.
func ColOperand(col int) Operand { return Operand{IsCol: true, Col: col} }

// ConstOperand returns a constant operand.
func ConstOperand(v value.Value) Operand { return Operand{Const: v} }

// Atom is a single comparison: column θ operand.
type Atom struct {
	Left  int // column index of the left-hand attribute
	Op    Op
	class class // how Predicate.Eval compares it, set by Or
	Right Operand
}

// ColConst builds the atom "col θ k".
func ColConst(col int, op Op, k value.Value) Atom {
	return Atom{Left: col, Op: op, Right: ConstOperand(k)}
}

// ColCol builds the atom "a θ b" over two columns.
func ColCol(a int, op Op, b int) Atom {
	return Atom{Left: a, Op: op, Right: ColOperand(b)}
}

// Eval evaluates the atom against a tuple. Comparisons involving null are
// false (SQL-style), except that "= null"/"!= null" treat null as a plain
// sortable value so selections stay total.
func (a Atom) Eval(t value.Tuple) bool {
	left := t[a.Left]
	var right value.Value
	if a.Right.IsCol {
		right = t[a.Right.Col]
	} else {
		right = a.Right.Const
	}
	return a.Op.eval(value.Compare(left, right))
}

// String renders the atom against an optional schema for column names.
func (a Atom) String(schema *value.Schema) string {
	name := func(i int) string {
		if schema != nil && i < schema.Len() {
			return schema.Col(i).Name
		}
		return fmt.Sprintf("$%d", i)
	}
	rhs := ""
	if a.Right.IsCol {
		rhs = name(a.Right.Col)
	} else if a.Right.Const.Kind() == value.KindString {
		rhs = fmt.Sprintf("%q", a.Right.Const.AsString())
	} else {
		rhs = a.Right.Const.String()
	}
	return fmt.Sprintf("%s %s %s", name(a.Left), a.Op, rhs)
}

// Predicate is a disjunction of atoms. The zero value (no atoms) is the
// always-true predicate, so that σ_true is the identity selection.
type Predicate struct {
	atoms []Atom
}

// class is how Predicate.Eval compares one atom: the pairs of kinds it
// compares inline, decided by the atom's right operand. Every other pair
// goes through value.Compare, so an atom's result is Atom.Eval's whatever
// its class. The class fits in the padding after Atom.Op, so a predicate
// is still one allocation.
type class uint8

const (
	general    class = iota // every pair through value.Compare
	colCol                  // two columns: int/int and float/float inline
	intConst                // an int constant of |k| ≤ 2⁵³: int and float columns inline
	floatConst              // a float constant: float columns inline
)

// maxExact is 2⁵³: every int64 of at most this magnitude is a float64
// exactly, so a float compares with it as with its float.
const maxExact = 1 << 53

// classify decides an atom's class.
func classify(a Atom) class {
	if a.Right.IsCol {
		return colCol
	}
	switch k := a.Right.Const; k.Kind() {
	case value.KindInt:
		if i := k.AsInt(); -maxExact <= i && i <= maxExact {
			return intConst
		}
	case value.KindFloat:
		return floatConst
	}
	return general
}

// True returns the always-true predicate.
func True() Predicate { return Predicate{} }

// Or builds a predicate that is the disjunction of the given atoms.
// Or() with no atoms is True.
func Or(atoms ...Atom) Predicate {
	p := Predicate{atoms: append([]Atom(nil), atoms...)}
	for i := range p.atoms {
		p.atoms[i].class = classify(p.atoms[i])
	}
	return p
}

// IsTrue reports whether the predicate is the always-true predicate.
func (p Predicate) IsTrue() bool { return len(p.atoms) == 0 }

// Atoms returns the predicate's atoms. Callers must not modify the result.
func (p Predicate) Atoms() []Atom { return p.atoms }

// Eval evaluates the disjunction against a tuple. It decides each atom as
// Atom.Eval does, comparing the pairs of kinds its class names in place
// (cmp.Compare orders floats, NaN and ±0 included, as value.Compare does).
func (p Predicate) Eval(t value.Tuple) bool {
	for i := range p.atoms {
		a := &p.atoms[i]
		l := &t[a.Left]
		var c int
		switch k := &a.Right.Const; {
		case a.class == colCol:
			c = compare(l, &t[a.Right.Col])
		case a.class == intConst && l.Kind() == value.KindInt:
			c = cmp.Compare(l.AsInt(), k.AsInt())
		case a.class == intConst && l.Kind() == value.KindFloat:
			c = cmp.Compare(l.AsFloat(), float64(k.AsInt()))
		case a.class == floatConst && l.Kind() == value.KindFloat:
			c = cmp.Compare(l.AsFloat(), k.AsFloat())
		default:
			c = value.Compare(*l, *k)
		}
		if a.Op.eval(c) {
			return true
		}
	}
	return len(p.atoms) == 0
}

// compare is value.Compare with the int/int and float/float pairs inline.
func compare(l, r *value.Value) int {
	switch {
	case l.Kind() == value.KindInt && r.Kind() == value.KindInt:
		return cmp.Compare(l.AsInt(), r.AsInt())
	case l.Kind() == value.KindFloat && r.Kind() == value.KindFloat:
		return cmp.Compare(l.AsFloat(), r.AsFloat())
	}
	return value.Compare(*l, *r)
}

// MaxColumn returns the largest column index referenced, or -1 if none.
// The algebra uses it to validate predicates against operand schemas.
func (p Predicate) MaxColumn() int {
	max := -1
	for _, a := range p.atoms {
		if a.Left > max {
			max = a.Left
		}
		if a.Right.IsCol && a.Right.Col > max {
			max = a.Right.Col
		}
	}
	return max
}

// Columns returns the set of referenced column indexes in ascending order.
func (p Predicate) Columns() []int {
	seen := map[int]bool{}
	for _, a := range p.atoms {
		seen[a.Left] = true
		if a.Right.IsCol {
			seen[a.Right.Col] = true
		}
	}
	out := make([]int, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	for i := 1; i < len(out); i++ { // insertion sort; sets are tiny
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// EqualityConstant reports whether the predicate is the single atom
// "col = k" and, if so, returns the column and constant. The dispatch
// index (Section 5.2) fast-paths such predicates.
func (p Predicate) EqualityConstant() (col int, k value.Value, ok bool) {
	if len(p.atoms) != 1 {
		return 0, value.Null(), false
	}
	a := p.atoms[0]
	if a.Op != Eq || a.Right.IsCol {
		return 0, value.Null(), false
	}
	return a.Left, a.Right.Const, true
}

// String renders the predicate as "a OR b OR ...".
func (p Predicate) String(schema *value.Schema) string {
	if p.IsTrue() {
		return "true"
	}
	parts := make([]string, len(p.atoms))
	for i, a := range p.atoms {
		parts[i] = a.String(schema)
	}
	return strings.Join(parts, " OR ")
}
