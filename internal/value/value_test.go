package value

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "null", KindInt: "int", KindFloat: "float",
		KindString: "string", KindBool: "bool", KindTime: "time",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if got := Kind(99).String(); got != "kind(99)" {
		t.Errorf("unknown kind rendered as %q", got)
	}
}

func TestKindOf(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Kind
		ok   bool
	}{
		{"int", KindInt, true},
		{"INTEGER", KindInt, true},
		{"double", KindFloat, true},
		{"VARCHAR", KindString, true},
		{"boolean", KindBool, true},
		{"timestamp", KindTime, true},
		{"blob", KindNull, false},
	} {
		got, ok := KindOf(tc.name)
		if got != tc.want || ok != tc.ok {
			t.Errorf("KindOf(%q) = (%v, %v), want (%v, %v)", tc.name, got, ok, tc.want, tc.ok)
		}
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if v := Int(42); v.Kind() != KindInt || v.AsInt() != 42 {
		t.Errorf("Int round trip failed: %v", v)
	}
	if v := Float(2.5); v.Kind() != KindFloat || v.AsFloat() != 2.5 {
		t.Errorf("Float round trip failed: %v", v)
	}
	if v := Str("hi"); v.Kind() != KindString || v.AsString() != "hi" {
		t.Errorf("Str round trip failed: %v", v)
	}
	if v := Bool(true); v.Kind() != KindBool || !v.AsBool() {
		t.Errorf("Bool round trip failed: %v", v)
	}
	now := time.Unix(1234, 5678)
	if v := Time(now); v.Kind() != KindTime || !v.AsTime().Equal(now) {
		t.Errorf("Time round trip failed: %v", v)
	}
	if v := Chronon(99); v.AsChronon() != 99 {
		t.Errorf("Chronon round trip failed: %v", v)
	}
	if !Null().IsNull() || Int(0).IsNull() {
		t.Error("IsNull misclassified")
	}
	if v := Int(3); v.AsFloat() != 3.0 {
		t.Errorf("Int.AsFloat = %v, want 3", v.AsFloat())
	}
	if !Int(1).IsNumeric() || !Float(1).IsNumeric() || Str("x").IsNumeric() {
		t.Error("IsNumeric misclassified")
	}
}

func TestCompare(t *testing.T) {
	for _, tc := range []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Int(3), Int(2), 1},
		{Float(1.5), Float(2.5), -1},
		{Int(2), Float(2.0), 0},
		{Float(2.5), Int(2), 1},
		{Str("a"), Str("b"), -1},
		{Str("b"), Str("b"), 0},
		{Bool(false), Bool(true), -1},
		{Chronon(1), Chronon(2), -1},
		{Null(), Int(0), -1},
		{Int(0), Null(), 1},
		{Null(), Null(), 0},
	} {
		if got := Compare(tc.a, tc.b); got != tc.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
	// Mismatched non-numeric kinds order by kind tag, keeping order total.
	if Compare(Str("z"), Bool(true)) == 0 {
		t.Error("cross-kind comparison must not report equality")
	}
}

func TestCompareAntisymmetry(t *testing.T) {
	vals := sampleValues()
	for _, a := range vals {
		for _, b := range vals {
			if Compare(a, b) != -Compare(b, a) {
				t.Errorf("Compare(%v,%v) not antisymmetric", a, b)
			}
		}
	}
}

func TestCompareTransitivityQuick(t *testing.T) {
	f := func(x, y, z int64) bool {
		a, b, c := Int(x), Float(float64(y)), Int(z)
		vs := []Value{a, b, c}
		// sort the three and check pairwise consistency
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				for k := 0; k < 3; k++ {
					if Compare(vs[i], vs[j]) <= 0 && Compare(vs[j], vs[k]) <= 0 && Compare(vs[i], vs[k]) > 0 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValueString(t *testing.T) {
	for _, tc := range []struct {
		v    Value
		want string
	}{
		{Null(), "NULL"},
		{Int(-5), "-5"},
		{Float(1.5), "1.5"},
		{Str("hey"), "hey"},
		{Bool(false), "false"},
	} {
		if got := tc.v.String(); got != tc.want {
			t.Errorf("%#v.String() = %q, want %q", tc.v, got, tc.want)
		}
	}
}

func TestEncodeDecodeValueRoundTrip(t *testing.T) {
	for _, v := range sampleValues() {
		enc := AppendValue(nil, v)
		got, n, err := DecodeValue(enc)
		if err != nil {
			t.Fatalf("DecodeValue(%v): %v", v, err)
		}
		if n != len(enc) {
			t.Errorf("DecodeValue(%v) consumed %d of %d bytes", v, n, len(enc))
		}
		if !Equal(got, v) || got.Kind() != v.Kind() {
			t.Errorf("round trip %v -> %v", v, got)
		}
	}
}

func TestEncodeDecodeValueQuick(t *testing.T) {
	f := func(i int64, fl float64, s string, b bool) bool {
		for _, v := range []Value{Int(i), Float(fl), Str(s), Bool(b), Chronon(i), Null()} {
			if math.IsNaN(fl) && v.Kind() == KindFloat {
				continue // NaN never compares equal; encoding still round-trips bits
			}
			enc := AppendValue(nil, v)
			got, n, err := DecodeValue(enc)
			if err != nil || n != len(enc) || got.Kind() != v.Kind() || !Equal(got, v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeValueErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		{byte(KindInt), 1, 2},      // truncated int
		{byte(KindFloat), 1},       // truncated float
		{byte(KindBool)},           // truncated bool
		{byte(KindString), 5, 'a'}, // truncated string
		{200},                      // unknown kind
		{byte(KindString), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, // huge length
	}
	for i, b := range cases {
		if _, _, err := DecodeValue(b); err == nil {
			t.Errorf("case %d: expected error decoding %v", i, b)
		}
	}
}

func TestEncodeDecodeTupleRoundTrip(t *testing.T) {
	tup := Tuple{Int(1), Str("x"), Float(2.5), Bool(true), Null(), Chronon(77)}
	enc := AppendTuple(nil, tup)
	got, n, err := DecodeTuple(enc)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(enc) {
		t.Errorf("consumed %d of %d", n, len(enc))
	}
	if !TuplesEqual(got, tup) {
		t.Errorf("round trip %v -> %v", tup, got)
	}
	// Concatenated tuples decode one at a time.
	enc2 := AppendTuple(enc, Tuple{Int(9)})
	first, n1, err := DecodeTuple(enc2)
	if err != nil || !TuplesEqual(first, tup) {
		t.Fatalf("first decode: %v %v", first, err)
	}
	second, _, err := DecodeTuple(enc2[n1:])
	if err != nil || !TuplesEqual(second, Tuple{Int(9)}) {
		t.Fatalf("second decode: %v %v", second, err)
	}
}

// TestDecodeTupleStringInPlace: the string decoder appends after what dst
// holds, reads what DecodeTuple reads, and — into a dst with room — allocates
// nothing, its string cells sharing the encoded string.
func TestDecodeTupleStringInPlace(t *testing.T) {
	tup := Tuple{Int(1), Str("x"), Float(2.5), Bool(true), Null(), Chronon(77), Str("hello world")}
	enc := string(AppendTuple(nil, tup))
	lead := Tuple{Str("lead")}
	got, n, err := DecodeTupleString(lead, enc+"trailing")
	if err != nil || n != len(enc) {
		t.Fatalf("DecodeTupleString: %v, consumed %d of %d", err, n, len(enc))
	}
	if want := append(lead.Clone(), tup...); !TuplesEqual(got, want) {
		t.Errorf("decoded %v, want %v", got, want)
	}
	dst := make(Tuple, 0, len(tup))
	if allocs := testing.AllocsPerRun(100, func() { dst, _, _ = DecodeTupleString(dst[:0], enc) }); allocs != 0 {
		t.Errorf("decoding in place allocated %.0f objects, want 0", allocs)
	}
	if _, _, err := DecodeTupleString(nil, enc[:len(enc)-1]); err == nil {
		t.Error("truncated string decoded")
	}
}

func TestDecodeTupleErrors(t *testing.T) {
	if _, _, err := DecodeTuple(nil); err == nil {
		t.Error("expected error on empty buffer")
	}
	if _, _, err := DecodeTuple([]byte{10, byte(KindInt)}); err == nil {
		t.Error("expected error on arity exceeding buffer")
	}
	if _, _, err := DecodeTuple([]byte{2, byte(KindInt), 0, 0, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Error("expected error on truncated second column")
	}
}

func sampleValues() []Value {
	return []Value{
		Null(), Int(0), Int(1), Int(-1), Int(math.MaxInt64), Int(math.MinInt64),
		Float(0.5), Float(-3.25), Float(1e300),
		Str(""), Str("a"), Str("hello world"), Str("\x00binary\xff"),
		Bool(true), Bool(false),
		Chronon(0), Chronon(1700000000000000000),
	}
}

func TestTupleProjectCloneString(t *testing.T) {
	tup := Tuple{Int(1), Str("b"), Float(3)}
	p := tup.Project([]int{2, 0})
	if !TuplesEqual(p, Tuple{Float(3), Int(1)}) {
		t.Errorf("Project = %v", p)
	}
	c := tup.Clone()
	c[0] = Int(99)
	if tup[0].AsInt() != 1 {
		t.Error("Clone aliases original")
	}
	if got := tup.String(); got != "(1, b, 3)" {
		t.Errorf("String = %q", got)
	}
}

func TestCompareTuples(t *testing.T) {
	for _, tc := range []struct {
		a, b Tuple
		want int
	}{
		{Tuple{Int(1)}, Tuple{Int(2)}, -1},
		{Tuple{Int(1), Str("a")}, Tuple{Int(1), Str("a")}, 0},
		{Tuple{Int(1), Str("b")}, Tuple{Int(1), Str("a")}, 1},
		{Tuple{Int(1)}, Tuple{Int(1), Int(0)}, -1},
	} {
		if got := CompareTuples(tc.a, tc.b); got != tc.want {
			t.Errorf("CompareTuples(%v, %v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}
