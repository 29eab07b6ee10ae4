package aggregate

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"chronicledb/internal/value"
)

// layoutOf compiles one aggregation of f over column 0, of kind k.
func layoutOf(t testing.TB, f Func, k value.Kind) *Layout {
	t.Helper()
	l, err := NewLayout([]Spec{{Func: f, Col: 0, Name: "a"}}, []value.Kind{k})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// fold steps vals, a row each, into a fresh group of l.
func fold(l *Layout, vals ...value.Value) Group {
	g := l.New()
	for _, v := range vals {
		l.Step(g, value.Tuple{v})
	}
	return g
}

// stepAll is f over a column of kind k once vals are stepped.
func stepAll(t *testing.T, f Func, k value.Kind, vals ...value.Value) value.Value {
	t.Helper()
	l := layoutOf(t, f, k)
	return l.Result(fold(l, vals...), 0)
}

func TestFuncStringAndParse(t *testing.T) {
	for _, f := range []Func{Count, Sum, Min, Max, Avg, First, Last} {
		got, ok := FuncOf(f.String())
		if !ok || got != f {
			t.Errorf("FuncOf(%s) = %v, %v", f, got, ok)
		}
	}
	if _, ok := FuncOf("MEDIAN"); ok {
		t.Error("MEDIAN should not parse")
	}
	if Func(99).String() != "func(99)" {
		t.Error("unknown func rendering")
	}
}

func TestCount(t *testing.T) {
	if got := stepAll(t, Count, value.KindString, value.Str("y"), value.Str("x"), value.Null()); got.AsInt() != 3 {
		t.Errorf("COUNT = %v, want 3 (COUNT counts nulls too when stepped)", got)
	}
}

func TestSumInt(t *testing.T) {
	got := stepAll(t, Sum, value.KindInt, value.Int(2), value.Int(3), value.Null(), value.Int(-1))
	if got.Kind() != value.KindInt || got.AsInt() != 4 {
		t.Errorf("SUM = %v", got)
	}
}

// TestSumFloatPromotion: a FLOAT column's SUM is a float whatever order its
// inputs come in, an int among them (Coerce widens those) included.
func TestSumFloatPromotion(t *testing.T) {
	if got := stepAll(t, Sum, value.KindFloat, value.Int(2), value.Float(0.5)); got.Kind() != value.KindFloat || got.AsFloat() != 2.5 {
		t.Errorf("SUM = %v", got)
	}
	if got := stepAll(t, Sum, value.KindFloat, value.Float(1.5), value.Int(2)); got.AsFloat() != 3.5 {
		t.Errorf("SUM = %v", got)
	}
}

func TestSumEmptyIsNull(t *testing.T) {
	for _, k := range []value.Kind{value.KindInt, value.KindFloat} {
		if !stepAll(t, Sum, k).IsNull() {
			t.Errorf("empty SUM over %s should be null", k)
		}
		if !stepAll(t, Sum, k, value.Null()).IsNull() {
			t.Errorf("all-null SUM over %s should be null", k)
		}
	}
}

func TestMinMax(t *testing.T) {
	if got := stepAll(t, Min, value.KindInt, value.Int(5), value.Int(2), value.Int(9), value.Null()); got.AsInt() != 2 {
		t.Errorf("MIN = %v", got)
	}
	if got := stepAll(t, Max, value.KindInt, value.Int(5), value.Int(2), value.Int(9)); got.AsInt() != 9 {
		t.Errorf("MAX = %v", got)
	}
	if !stepAll(t, Min, value.KindInt).IsNull() {
		t.Error("empty MIN should be null")
	}
	if got := stepAll(t, Min, value.KindString, value.Str("pear"), value.Str("apple")); got.AsString() != "apple" {
		t.Errorf("string MIN = %v", got)
	}
	// A negative int must not order as a large unsigned word.
	if got := stepAll(t, Max, value.KindInt, value.Int(-5), value.Int(3)); got.AsInt() != 3 {
		t.Errorf("MAX = %v", got)
	}
	// NaN orders below every number, as value.Compare has it.
	if got := stepAll(t, Min, value.KindFloat, value.Float(1), value.Float(math.NaN())); !math.IsNaN(got.AsFloat()) {
		t.Errorf("MIN with NaN = %v", got)
	}
	if got := stepAll(t, Max, value.KindFloat, value.Float(math.NaN()), value.Float(-1)); got.AsFloat() != -1 {
		t.Errorf("MAX with NaN = %v", got)
	}
}

func TestAvg(t *testing.T) {
	if got := stepAll(t, Avg, value.KindInt, value.Int(1), value.Int(2), value.Int(3), value.Null()); got.Kind() != value.KindFloat || got.AsFloat() != 2.0 {
		t.Errorf("AVG = %v", got)
	}
	if !stepAll(t, Avg, value.KindInt).IsNull() {
		t.Error("empty AVG should be null")
	}
}

func TestFirstLast(t *testing.T) {
	if got := stepAll(t, First, value.KindInt, value.Null(), value.Int(7), value.Int(8)); got.AsInt() != 7 {
		t.Errorf("FIRST = %v", got)
	}
	if got := stepAll(t, Last, value.KindInt, value.Int(7), value.Int(8), value.Null()); got.AsInt() != 8 {
		t.Errorf("LAST = %v (null must not overwrite)", got)
	}
	if !stepAll(t, First, value.KindInt).IsNull() || !stepAll(t, Last, value.KindInt).IsNull() {
		t.Error("empty FIRST/LAST should be null")
	}
}

// TestMergeDecomposition is the paper's decomposability requirement: for
// every function, stepping a stream must equal stepping a prefix and a
// suffix separately and merging.
func TestMergeDecomposition(t *testing.T) {
	stream := []value.Value{
		value.Int(3), value.Int(-1), value.Float(2.5), value.Int(10),
		value.Null(), value.Int(7), value.Float(-0.5),
	}
	for _, f := range []Func{Count, Sum, Min, Max, Avg, First, Last} {
		l := layoutOf(t, f, value.KindFloat)
		whole := fold(l, stream...)
		for split := 0; split <= len(stream); split++ {
			left, right := fold(l, stream[:split]...), fold(l, stream[split:]...)
			l.Merge(left, right)
			if !value.Equal(l.Result(whole, 0), l.Result(left, 0)) {
				t.Errorf("%s split %d: whole %v != merged %v", f, split, l.Result(whole, 0), l.Result(left, 0))
			}
		}
	}
}

func TestMergeDecompositionQuick(t *testing.T) {
	f := func(prefix, suffix []int32) bool {
		for _, fn := range []Func{Count, Sum, Min, Max, Avg} {
			l := layoutOf(t, fn, value.KindInt)
			whole, left, right := l.New(), l.New(), l.New()
			for _, v := range prefix {
				l.Step(whole, value.Tuple{value.Int(int64(v))})
				l.Step(left, value.Tuple{value.Int(int64(v))})
			}
			for _, v := range suffix {
				l.Step(whole, value.Tuple{value.Int(int64(v))})
				l.Step(right, value.Tuple{value.Int(int64(v))})
			}
			l.Merge(left, right)
			if !value.Equal(l.Result(whole, 0), l.Result(left, 0)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestAssignmentIsADeepCopy: a group copied word for word (and string slot
// for string slot) is the clone the view stores rely on.
func TestAssignmentIsADeepCopy(t *testing.T) {
	for _, f := range []Func{Count, Sum, Min, Max, Avg, First, Last, Var, Stddev} {
		l := layoutOf(t, f, value.KindInt)
		s := fold(l, value.Int(5), value.Int(1))
		before := l.Result(s, 0)
		c := l.New()
		c.CopyFrom(s)
		// Mutate the copy heavily; the original must be unaffected.
		l.Step(c, value.Tuple{value.Int(100)})
		l.Step(c, value.Tuple{value.Int(-100)})
		if !value.Equal(l.Result(s, 0), before) {
			t.Errorf("%s: mutating clone changed original: %v -> %v", f, before, l.Result(s, 0))
		}
		// And the clone must actually have absorbed the steps.
		replay := fold(l, value.Int(5), value.Int(1), value.Int(100), value.Int(-100))
		if !value.Equal(l.Result(c, 0), l.Result(replay, 0)) {
			t.Errorf("%s: clone result %v, want %v", f, l.Result(c, 0), l.Result(replay, 0))
		}
	}
}

func TestSpecResultKind(t *testing.T) {
	for _, tc := range []struct {
		spec Spec
		in   value.Kind
		want value.Kind
	}{
		{Spec{Func: Count}, value.KindString, value.KindInt},
		{Spec{Func: Avg}, value.KindInt, value.KindFloat},
		{Spec{Func: Sum}, value.KindInt, value.KindInt},
		{Spec{Func: Sum}, value.KindFloat, value.KindFloat},
		{Spec{Func: Min}, value.KindString, value.KindString},
		{Spec{Func: Last}, value.KindTime, value.KindTime},
	} {
		if got := tc.spec.ResultKind(tc.in); got != tc.want {
			t.Errorf("%s ResultKind(%s) = %s, want %s", tc.spec.Func, tc.in, got, tc.want)
		}
	}
}

func TestSpecString(t *testing.T) {
	schema := value.NewSchema(value.Column{Name: "amount", Kind: value.KindFloat})
	s := Spec{Func: Sum, Col: 0, Name: "total"}
	if got := s.String(schema); got != "SUM(amount) AS total" {
		t.Errorf("String = %q", got)
	}
	star := Spec{Func: Count, Col: -1, Name: "n"}
	if got := star.String(schema); got != "COUNT(*) AS n" {
		t.Errorf("String = %q", got)
	}
}

func TestApplyAndResults(t *testing.T) {
	specs := []Spec{
		{Func: Count, Col: -1, Name: "n"},
		{Func: Sum, Col: 1, Name: "total"},
		{Func: Max, Col: 1, Name: "biggest"},
	}
	l, err := NewLayout(specs, []value.Kind{value.KindInt, value.KindInt, value.KindInt})
	if err != nil {
		t.Fatal(err)
	}
	if l.Words() != 3 || l.Strs() != 0 {
		t.Errorf("COUNT, SUM, MAX take %d words and %d strings, want 3 (count and seen bits, sum, max) and 0", l.Words(), l.Strs())
	}
	g := l.New()
	rows := []value.Tuple{
		{value.Str("a"), value.Int(10)},
		{value.Str("a"), value.Int(30)},
		{value.Str("a"), value.Int(20)},
	}
	for _, r := range rows {
		l.Step(g, r)
	}
	got := l.AppendResults(nil, g)
	want := value.Tuple{value.Int(3), value.Int(60), value.Int(30)}
	if !value.TuplesEqual(got, want) {
		t.Errorf("Results = %v, want %v", got, want)
	}
}

func TestCopyOfStatesIsADeepCopy(t *testing.T) {
	l := layoutOf(t, Sum, value.KindInt)
	g := fold(l, value.Int(5))
	words := append([]uint64(nil), g.Words...)
	l.Step(g, value.Tuple{value.Int(7)})
	if got := l.Result(Group{Words: words}, 0); got.AsInt() != 5 {
		t.Errorf("copy aliases original: %v", got)
	}
}

// TestLayoutRejectsUntypedInputs: numeric functions need a numeric column,
// held values a typed one, and only COUNT counts without a column.
func TestLayoutRejectsUntypedInputs(t *testing.T) {
	for _, tc := range []struct {
		spec Spec
		kind value.Kind
	}{
		{Spec{Func: Sum, Col: 0}, value.KindString},
		{Spec{Func: Avg, Col: 0}, value.KindBool},
		{Spec{Func: Var, Col: 0}, value.KindTime},
		{Spec{Func: Min, Col: 0}, value.KindNull},
		{Spec{Func: Sum, Col: -1}, value.KindInt},
		{Spec{Func: Func(77), Col: 0}, value.KindInt},
	} {
		if _, err := NewLayout([]Spec{tc.spec}, []value.Kind{tc.kind}); err == nil {
			t.Errorf("%s(col %d) over %s compiled", tc.spec.Func, tc.spec.Col, tc.kind)
		}
	}
	if _, err := NewLayout([]Spec{{Func: Count, Col: -1}}, nil); err == nil {
		t.Error("a layout compiled without its input kinds")
	}
}

func TestEncodeDecodeStateRoundTrip(t *testing.T) {
	streams := []struct {
		kind value.Kind
		vals []value.Value
	}{
		{value.KindInt, nil},
		{value.KindInt, []value.Value{value.Int(5)}},
		{value.KindFloat, []value.Value{value.Float(5), value.Float(2.5), value.Float(-3)}},
		{value.KindString, []value.Value{value.Str("m"), value.Str("a")}},
		{value.KindInt, []value.Value{value.Null()}},
	}
	for _, f := range []Func{Count, Sum, Min, Max, Avg, First, Last} {
		for _, stream := range streams {
			if (f == Sum || f == Avg) && stream.kind == value.KindString {
				continue // numeric aggregates over strings are rejected upstream
			}
			l := layoutOf(t, f, stream.kind)
			s := fold(l, stream.vals...)
			enc := l.AppendStates(nil, s)
			got := l.New()
			n, err := l.DecodeStates(got, s.Rows(), enc)
			if err != nil {
				t.Fatalf("%s: decode: %v", f, err)
			}
			if n != len(enc) {
				t.Errorf("%s: consumed %d of %d", f, n, len(enc))
			}
			if !value.Equal(l.Result(got, 0), l.Result(s, 0)) {
				t.Errorf("%s: round trip %v -> %v", f, l.Result(s, 0), l.Result(got, 0))
			}
			// The decoded group must keep working incrementally.
			next := value.Tuple{value.Int(1)}
			if stream.kind == value.KindString {
				next = value.Tuple{value.Str("b")}
			}
			l.Step(got, next)
			l.Step(s, next)
			if !value.Equal(l.Result(got, 0), l.Result(s, 0)) {
				t.Errorf("%s: decoded state diverges after Step: %v vs %v", f, l.Result(got, 0), l.Result(s, 0))
			}
		}
	}
}

func TestDecodeStateErrors(t *testing.T) {
	for _, f := range []Func{Count, Sum, Min, Max, Avg, First, Last} {
		l := layoutOf(t, f, value.KindInt)
		if _, err := l.DecodeStates(l.New(), 0, nil); err == nil {
			t.Errorf("%s: expected error on empty buffer", f)
		}
	}
	// Well-formed states the layout cannot hold are typed errors.
	for _, tc := range []struct {
		f    Func
		kind value.Kind
		rows uint64
		enc  []byte
	}{
		{Count, value.KindInt, 2, value.AppendValue(nil, value.Int(3))[1:]}, // counts 3 rows of 2
		{Min, value.KindInt, 1, []byte{1, byte(value.KindString), 1, 'a'}},  // a string in an INT column
		{Var, value.KindInt, 1, append([]byte{1}, make([]byte, 24)...)},     // STDDEV's flag
	} {
		l := layoutOf(t, tc.f, tc.kind)
		_, err := l.DecodeStates(l.New(), tc.rows, tc.enc)
		var mismatch *MismatchError
		if !errors.As(err, &mismatch) {
			t.Errorf("%s over %s decoded %x: err %v, want a *MismatchError", tc.f, tc.kind, tc.enc, err)
		}
	}
}

func TestSumLargeIntExact(t *testing.T) {
	// Integer sums must stay exact where float64 would lose precision.
	big := int64(1) << 60
	if got := stepAll(t, Sum, value.KindInt, value.Int(big), value.Int(1)).AsInt(); got != big+1 {
		t.Errorf("SUM = %d, want %d", got, big+1)
	}
	if float64(big)+1 != float64(big) {
		// sanity: this is exactly the precision float64 loses
		t.Skip("platform float64 unexpectedly exact")
	}
}

func TestAvgOfFloats(t *testing.T) {
	if got := stepAll(t, Avg, value.KindFloat, value.Float(1.0), value.Float(2.0)).AsFloat(); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("AVG = %v", got)
	}
}

func TestVarAndStddev(t *testing.T) {
	vals := []value.Value{value.Int(2), value.Int(4), value.Int(4), value.Int(4), value.Int(5), value.Int(5), value.Int(7), value.Int(9)}
	if got := stepAll(t, Var, value.KindInt, vals...).AsFloat(); math.Abs(got-4.0) > 1e-9 {
		t.Errorf("VAR = %v, want 4", got)
	}
	if got := stepAll(t, Stddev, value.KindInt, vals...).AsFloat(); math.Abs(got-2.0) > 1e-9 {
		t.Errorf("STDDEV = %v, want 2", got)
	}
	if !stepAll(t, Var, value.KindInt).IsNull() {
		t.Error("empty VAR should be null")
	}
	// Nulls skipped.
	if got := stepAll(t, Var, value.KindInt, value.Null(), value.Int(3), value.Int(3)).AsFloat(); got != 0 {
		t.Errorf("constant VAR = %v, want 0", got)
	}
}

func TestVarDecomposition(t *testing.T) {
	stream := []value.Value{value.Int(1), value.Float(2.5), value.Int(-4), value.Int(10), value.Float(0.25)}
	for _, f := range []Func{Var, Stddev} {
		l := layoutOf(t, f, value.KindFloat)
		whole := fold(l, stream...)
		for split := 0; split <= len(stream); split++ {
			left, right := fold(l, stream[:split]...), fold(l, stream[split:]...)
			l.Merge(left, right)
			if math.Abs(l.Result(whole, 0).AsFloat()-l.Result(left, 0).AsFloat()) > 1e-9 {
				t.Errorf("%s split %d: %v != %v", f, split, l.Result(whole, 0), l.Result(left, 0))
			}
		}
	}
}

func TestVarEncodeRoundTrip(t *testing.T) {
	for _, f := range []Func{Var, Stddev} {
		l := layoutOf(t, f, value.KindInt)
		s := fold(l, value.Int(1), value.Int(5), value.Int(9))
		enc := l.AppendStates(nil, s)
		got := l.New()
		n, err := l.DecodeStates(got, s.Rows(), enc)
		if err != nil || n != len(enc) {
			t.Fatalf("%s: decode %v n=%d", f, err, n)
		}
		if !value.Equal(l.Result(got, 0), l.Result(s, 0)) {
			t.Errorf("%s: %v != %v", f, l.Result(got, 0), l.Result(s, 0))
		}
		l.Step(got, value.Tuple{value.Int(2)})
		l.Step(s, value.Tuple{value.Int(2)})
		if !value.Equal(l.Result(got, 0), l.Result(s, 0)) {
			t.Errorf("%s: diverged after Step", f)
		}
	}
	l := layoutOf(t, Var, value.KindInt)
	if _, err := l.DecodeStates(l.New(), 0, []byte{1, 2}); err == nil {
		t.Error("truncated moment state accepted")
	}
}
