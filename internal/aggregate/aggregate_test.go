package aggregate

import (
	"math"
	"testing"
	"testing/quick"

	"chronicledb/internal/value"
)

func stepAll(f Func, vals ...value.Value) State {
	s := NewState(f)
	for _, v := range vals {
		s.Step(v)
	}
	return s
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
	s := stepAll(Count, value.Int(1), value.Str("x"), value.Null())
	if got := s.Result(); got.AsInt() != 3 {
		t.Errorf("COUNT = %v, want 3 (COUNT counts nulls too when stepped)", got)
	}
}

func TestSumInt(t *testing.T) {
	s := stepAll(Sum, value.Int(2), value.Int(3), value.Null(), value.Int(-1))
	if got := s.Result(); got.Kind() != value.KindInt || got.AsInt() != 4 {
		t.Errorf("SUM = %v", got)
	}
}

func TestSumFloatPromotion(t *testing.T) {
	s := stepAll(Sum, value.Int(2), value.Float(0.5))
	if got := s.Result(); got.Kind() != value.KindFloat || got.AsFloat() != 2.5 {
		t.Errorf("SUM = %v", got)
	}
	// float first, then int
	s = stepAll(Sum, value.Float(1.5), value.Int(2))
	if got := s.Result(); got.AsFloat() != 3.5 {
		t.Errorf("SUM = %v", got)
	}
}

func TestSumEmptyIsNull(t *testing.T) {
	if !NewState(Sum).Result().IsNull() {
		t.Error("empty SUM should be null")
	}
	if !stepAll(Sum, value.Null()).Result().IsNull() {
		t.Error("all-null SUM should be null")
	}
}

func TestMinMax(t *testing.T) {
	s := stepAll(Min, value.Int(5), value.Int(2), value.Int(9), value.Null())
	if got := s.Result(); got.AsInt() != 2 {
		t.Errorf("MIN = %v", got)
	}
	s = stepAll(Max, value.Int(5), value.Int(2), value.Int(9))
	if got := s.Result(); got.AsInt() != 9 {
		t.Errorf("MAX = %v", got)
	}
	if !NewState(Min).Result().IsNull() {
		t.Error("empty MIN should be null")
	}
	s = stepAll(Min, value.Str("pear"), value.Str("apple"))
	if got := s.Result(); got.AsString() != "apple" {
		t.Errorf("string MIN = %v", got)
	}
}

func TestAvg(t *testing.T) {
	s := stepAll(Avg, value.Int(1), value.Int(2), value.Int(3), value.Null())
	if got := s.Result(); got.Kind() != value.KindFloat || got.AsFloat() != 2.0 {
		t.Errorf("AVG = %v", got)
	}
	if !NewState(Avg).Result().IsNull() {
		t.Error("empty AVG should be null")
	}
}

func TestFirstLast(t *testing.T) {
	s := stepAll(First, value.Null(), value.Int(7), value.Int(8))
	if got := s.Result(); got.AsInt() != 7 {
		t.Errorf("FIRST = %v", got)
	}
	s = stepAll(Last, value.Int(7), value.Int(8), value.Null())
	if got := s.Result(); got.AsInt() != 8 {
		t.Errorf("LAST = %v (null must not overwrite)", got)
	}
	if !NewState(First).Result().IsNull() || !NewState(Last).Result().IsNull() {
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
		for split := 0; split <= len(stream); split++ {
			whole := NewState(f)
			for _, v := range stream {
				whole.Step(v)
			}
			left, right := NewState(f), NewState(f)
			for _, v := range stream[:split] {
				left.Step(v)
			}
			for _, v := range stream[split:] {
				right.Step(v)
			}
			left.Merge(right)
			if !value.Equal(whole.Result(), left.Result()) {
				t.Errorf("%s split %d: whole %v != merged %v", f, split, whole.Result(), left.Result())
			}
		}
	}
}

func TestMergeDecompositionQuick(t *testing.T) {
	f := func(prefix, suffix []int32) bool {
		for _, fn := range []Func{Count, Sum, Min, Max, Avg} {
			whole, left, right := NewState(fn), NewState(fn), NewState(fn)
			for _, v := range prefix {
				whole.Step(value.Int(int64(v)))
				left.Step(value.Int(int64(v)))
			}
			for _, v := range suffix {
				whole.Step(value.Int(int64(v)))
				right.Step(value.Int(int64(v)))
			}
			left.Merge(right)
			if !value.Equal(whole.Result(), left.Result()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestAssignmentIsADeepCopy: a State is a flat value, so assigning it is the
// clone the view stores rely on.
func TestAssignmentIsADeepCopy(t *testing.T) {
	for _, f := range []Func{Count, Sum, Min, Max, Avg, First, Last, Var, Stddev} {
		s := stepAll(f, value.Int(5), value.Int(1))
		before := s.Result()
		c := s
		// Mutate the copy heavily; the original must be unaffected.
		c.Step(value.Int(100))
		c.Step(value.Int(-100))
		if !value.Equal(s.Result(), before) {
			t.Errorf("%s: mutating clone changed original: %v -> %v", f, before, s.Result())
		}
		// And the clone must actually have absorbed the steps (COUNT shows
		// it most directly; for the rest, compare against a fresh replay).
		replay := stepAll(f, value.Int(5), value.Int(1), value.Int(100), value.Int(-100))
		if !value.Equal(c.Result(), replay.Result()) {
			t.Errorf("%s: clone result %v, want %v", f, c.Result(), replay.Result())
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
	states := NewStates(specs)
	rows := []value.Tuple{
		{value.Str("a"), value.Int(10)},
		{value.Str("a"), value.Int(30)},
		{value.Str("a"), value.Int(20)},
	}
	for _, r := range rows {
		Apply(states, specs, r)
	}
	got := Results(states)
	want := value.Tuple{value.Int(3), value.Int(60), value.Int(30)}
	if !value.TuplesEqual(got, want) {
		t.Errorf("Results = %v, want %v", got, want)
	}
}

func TestCopyOfStatesIsADeepCopy(t *testing.T) {
	specs := []Spec{{Func: Sum, Col: 0, Name: "s"}}
	states := NewStates(specs)
	Apply(states, specs, value.Tuple{value.Int(5)})
	copies := make([]State, len(states))
	copy(copies, states)
	Apply(states, specs, value.Tuple{value.Int(7)})
	if copies[0].Result().AsInt() != 5 {
		t.Errorf("copy aliases original: %v", copies[0].Result())
	}
}

func TestEncodeDecodeStateRoundTrip(t *testing.T) {
	streams := [][]value.Value{
		{},
		{value.Int(5)},
		{value.Int(5), value.Float(2.5), value.Int(-3)},
		{value.Str("m"), value.Str("a")},
		{value.Null()},
	}
	for _, f := range []Func{Count, Sum, Min, Max, Avg, First, Last} {
		for _, stream := range streams {
			if (f == Sum || f == Avg) && len(stream) > 0 && stream[0].Kind() == value.KindString {
				continue // numeric aggregates over strings are rejected upstream
			}
			s := NewState(f)
			for _, v := range stream {
				s.Step(v)
			}
			enc := AppendState(nil, f, s)
			got, n, err := DecodeState(f, enc)
			if err != nil {
				t.Fatalf("%s: decode: %v", f, err)
			}
			if n != len(enc) {
				t.Errorf("%s: consumed %d of %d", f, n, len(enc))
			}
			if !value.Equal(got.Result(), s.Result()) {
				t.Errorf("%s: round trip %v -> %v", f, s.Result(), got.Result())
			}
			// Decoded state must keep working incrementally.
			got.Step(value.Int(1))
			s.Step(value.Int(1))
			if !value.Equal(got.Result(), s.Result()) {
				t.Errorf("%s: decoded state diverges after Step: %v vs %v", f, got.Result(), s.Result())
			}
		}
	}
}

func TestDecodeStateErrors(t *testing.T) {
	for _, f := range []Func{Count, Sum, Min, Max, Avg, First, Last} {
		if _, _, err := DecodeState(f, nil); err == nil {
			t.Errorf("%s: expected error on empty buffer", f)
		}
	}
	if _, _, err := DecodeState(Func(77), []byte{1, 2, 3}); err == nil {
		t.Error("unknown func should error")
	}
}

func TestSumLargeIntExact(t *testing.T) {
	// Integer sums must stay exact where float64 would lose precision.
	s := NewState(Sum)
	big := int64(1) << 60
	s.Step(value.Int(big))
	s.Step(value.Int(1))
	if got := s.Result().AsInt(); got != big+1 {
		t.Errorf("SUM = %d, want %d", got, big+1)
	}
	if float64(big)+1 != float64(big) {
		// sanity: this is exactly the precision float64 loses
		t.Skip("platform float64 unexpectedly exact")
	}
}

func TestAvgOfFloats(t *testing.T) {
	s := stepAll(Avg, value.Float(1.0), value.Float(2.0))
	if got := s.Result().AsFloat(); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("AVG = %v", got)
	}
}

func TestVarAndStddev(t *testing.T) {
	vals := []value.Value{value.Int(2), value.Int(4), value.Int(4), value.Int(4), value.Int(5), value.Int(5), value.Int(7), value.Int(9)}
	v := NewState(Var)
	sd := NewState(Stddev)
	for _, x := range vals {
		v.Step(x)
		sd.Step(x)
	}
	if got := v.Result().AsFloat(); math.Abs(got-4.0) > 1e-9 {
		t.Errorf("VAR = %v, want 4", got)
	}
	if got := sd.Result().AsFloat(); math.Abs(got-2.0) > 1e-9 {
		t.Errorf("STDDEV = %v, want 2", got)
	}
	if !NewState(Var).Result().IsNull() {
		t.Error("empty VAR should be null")
	}
	// Nulls skipped.
	s := stepAll(Var, value.Null(), value.Int(3), value.Int(3))
	if got := s.Result().AsFloat(); got != 0 {
		t.Errorf("constant VAR = %v, want 0", got)
	}
}

func TestVarDecomposition(t *testing.T) {
	stream := []value.Value{value.Int(1), value.Float(2.5), value.Int(-4), value.Int(10), value.Float(0.25)}
	for _, f := range []Func{Var, Stddev} {
		for split := 0; split <= len(stream); split++ {
			whole, left, right := NewState(f), NewState(f), NewState(f)
			for _, v := range stream {
				whole.Step(v)
			}
			for _, v := range stream[:split] {
				left.Step(v)
			}
			for _, v := range stream[split:] {
				right.Step(v)
			}
			left.Merge(right)
			if math.Abs(whole.Result().AsFloat()-left.Result().AsFloat()) > 1e-9 {
				t.Errorf("%s split %d: %v != %v", f, split, whole.Result(), left.Result())
			}
		}
	}
}

func TestVarEncodeRoundTrip(t *testing.T) {
	for _, f := range []Func{Var, Stddev} {
		s := stepAll(f, value.Int(1), value.Int(5), value.Int(9))
		enc := AppendState(nil, f, s)
		got, n, err := DecodeState(f, enc)
		if err != nil || n != len(enc) {
			t.Fatalf("%s: decode %v n=%d", f, err, n)
		}
		if !value.Equal(got.Result(), s.Result()) {
			t.Errorf("%s: %v != %v", f, got.Result(), s.Result())
		}
		got.Step(value.Int(2))
		s.Step(value.Int(2))
		if !value.Equal(got.Result(), s.Result()) {
			t.Errorf("%s: diverged after Step", f)
		}
	}
	if _, _, err := DecodeState(Var, []byte{1, 2}); err == nil {
		t.Error("truncated moment state accepted")
	}
}
