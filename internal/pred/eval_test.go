package pred

import (
	"math"
	"math/rand"
	"testing"

	"chronicledb/internal/value"
)

// holds is what each operator of Definition 4.1 makes of a three-way
// comparison, written out apart from Op.eval.
var holds = map[Op]func(c int) bool{
	Eq: func(c int) bool { return c == 0 },
	Ne: func(c int) bool { return c != 0 },
	Lt: func(c int) bool { return c < 0 },
	Le: func(c int) bool { return c <= 0 },
	Gt: func(c int) bool { return c > 0 },
	Ge: func(c int) bool { return c >= 0 },
}

// refEval is the disjunction decided through value.Compare alone: what
// Predicate.Eval's inline comparisons must reproduce.
func refEval(atoms []Atom, t value.Tuple) bool {
	if len(atoms) == 0 {
		return true
	}
	for _, a := range atoms {
		r := a.Right.Const
		if a.Right.IsCol {
			r = t[a.Right.Col]
		}
		if holds[a.Op](value.Compare(t[a.Left], r)) {
			return true
		}
	}
	return false
}

// edgeValues is one or more values of every kind, with the edges an inline
// comparison could get wrong: NULL, NaN, ±0, ±∞, ±2⁵³±1 (the first integers
// a float64 cannot hold beside 2⁵³), the int64 extremes and floats just past
// them, and strings that share a prefix.
func edgeValues() []value.Value {
	const p53 = 1 << 53
	vals := []value.Value{value.Null(), value.Bool(false), value.Bool(true),
		value.Chronon(0), value.Chronon(p53 + 1),
		value.Str(""), value.Str("a"), value.Str("ab"), value.Str("b"), value.Str("9")}
	for _, i := range []int64{0, 1, -1, 9, p53 - 1, p53, p53 + 1, -p53 + 1, -p53, -p53 - 1,
		p53 + 2, math.MaxInt64, math.MaxInt64 - 1, math.MinInt64, math.MinInt64 + 1} {
		vals = append(vals, value.Int(i))
	}
	for _, f := range []float64{0, math.Copysign(0, -1), 0.5, -0.5, 1, -1, 9, math.NaN(), math.Inf(1), math.Inf(-1),
		p53, p53 + 2, -p53, -p53 - 2, p53 - 1, 0x1p63, -0x1p63, math.Nextafter(0x1p63, 0), math.MaxFloat64,
		math.SmallestNonzeroFloat64} {
		vals = append(vals, value.Float(f))
	}
	return vals
}

// TestTypedEvalEqualsCompare: for every pair of edge values — so every pair
// of kinds — and every operator, an atom against a constant and against a
// column decides as value.Compare does, alone and as a disjunct of a
// predicate that holds several classes of atom.
func TestTypedEvalEqualsCompare(t *testing.T) {
	vals := edgeValues()
	for _, l := range vals {
		for _, r := range vals {
			row := value.Tuple{l, r}
			for op := Eq; op <= Ge; op++ {
				for _, a := range []Atom{ColConst(0, op, r), ColCol(0, op, 1), ColCol(1, op, 0), ColConst(1, op, l)} {
					if got, want := Or(a).Eval(row), refEval([]Atom{a}, row); got != want {
						t.Errorf("%v %s (row %v) = %v, value.Compare says %v", l, a.String(nil), row, got, want)
					}
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for range 20000 {
		row := value.Tuple{vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))]}
		atoms := make([]Atom, rng.Intn(4))
		for i := range atoms {
			if rng.Intn(3) == 0 {
				atoms[i] = ColCol(rng.Intn(3), Op(rng.Intn(6)), rng.Intn(3))
			} else {
				atoms[i] = ColConst(rng.Intn(3), Op(rng.Intn(6)), vals[rng.Intn(len(vals))])
			}
		}
		if got, want := Or(atoms...).Eval(row), refEval(atoms, row); got != want {
			t.Fatalf("%s over %v = %v, value.Compare says %v", Or(atoms...).String(nil), row, got, want)
		}
	}
}

// fuzzValue builds a value of kind k%6 from the fuzzer's payloads.
func fuzzValue(k uint8, i int64, f float64, s string) value.Value {
	switch value.Kind(k % 6) {
	case value.KindInt:
		return value.Int(i)
	case value.KindFloat:
		return value.Float(f)
	case value.KindString:
		return value.Str(s)
	case value.KindBool:
		return value.Bool(i&1 == 1)
	case value.KindTime:
		return value.Chronon(i)
	}
	return value.Null()
}

// FuzzTypedEval drives TestTypedEvalEqualsCompare's check with values the
// fuzzer picks: the float payload doubles as an int near it, so the fuzzer
// reaches both sides of 2⁵³ and of the int64 range.
func FuzzTypedEval(f *testing.F) {
	f.Add(uint8(1), int64(1<<53+1), uint8(2), int64(0), float64(1<<53), "", uint8(0))
	f.Add(uint8(2), int64(0), uint8(1), int64(math.MaxInt64), 0x1p63, "a", uint8(3))
	f.Add(uint8(2), int64(-1), uint8(2), int64(0), math.NaN(), "", uint8(1))
	f.Add(uint8(3), int64(0), uint8(3), int64(0), 0.0, "b", uint8(4))
	f.Add(uint8(0), int64(7), uint8(1), int64(7), -0.0, "", uint8(5))
	f.Fuzz(func(t *testing.T, lk uint8, li int64, rk uint8, ri int64, fl float64, s string, op uint8) {
		near := li
		if !math.IsNaN(fl) && math.Abs(fl) < 0x1p63 {
			near = int64(fl) + ri%3
		}
		l := fuzzValue(lk, near, fl, s)
		r := fuzzValue(rk, ri, fl+float64(ri%3), s[:len(s)/2])
		row := value.Tuple{l, r}
		o := Op(op % 6)
		for _, a := range []Atom{ColConst(0, o, r), ColCol(0, o, 1), ColConst(1, o, l)} {
			if got, want := Or(a).Eval(row), refEval([]Atom{a}, row); got != want {
				t.Fatalf("%v %s (row %v) = %v, value.Compare says %v", l, a.String(nil), row, got, want)
			}
		}
	})
}

// BenchmarkAtomEval is the cost of one σ atom of the suite's preload shape
// (minutes >= k, cost >= 0 over an int and a float column), typed and
// through value.Compare (Atom.Eval, the evaluation before typed atoms).
func BenchmarkAtomEval(b *testing.B) {
	p := Or(ColConst(0, Ge, value.Int(5)))
	q := Or(ColConst(1, Ge, value.Int(0)))
	rows := make([]value.Tuple, 1024)
	for i := range rows {
		rows[i] = value.Tuple{value.Int(int64(i % 10)), value.Float(float64(i) / 3), value.Str("acct")}
	}
	b.Run("typed", func(b *testing.B) {
		n := 0
		for i := 0; i < b.N; i++ {
			r := rows[i%len(rows)]
			if p.Eval(r) && q.Eval(r) {
				n++
			}
		}
	})
	b.Run("compare", func(b *testing.B) {
		n := 0
		for i := 0; i < b.N; i++ {
			r := rows[i%len(rows)]
			if p.atoms[0].Eval(r) && q.atoms[0].Eval(r) {
				n++
			}
		}
	})
}
