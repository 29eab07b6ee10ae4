package keyenc

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"chronicledb/internal/value"
)

func enc(v value.Value) []byte { return AppendValue(nil, v) }

// sign normalizes a comparison result to -1/0/1.
func sign(c int) int {
	switch {
	case c < 0:
		return -1
	case c > 0:
		return 1
	}
	return 0
}

func sampleValues() []value.Value {
	return []value.Value{
		value.Null(),
		value.Int(math.MinInt32), value.Int(-1), value.Int(0), value.Int(1), value.Int(42), value.Int(math.MaxInt32),
		value.Float(math.Inf(-1)), value.Float(-2.5), value.Float(-0.0), value.Float(0.0),
		value.Float(0.5), value.Float(2.0), value.Float(math.Inf(1)),
		value.Str(""), value.Str("a"), value.Str("a\x00b"), value.Str("a\x00"), value.Str("ab"), value.Str("b"),
		value.Bool(false), value.Bool(true),
		value.Chronon(math.MinInt64), value.Chronon(-5), value.Chronon(0), value.Chronon(77), value.Chronon(math.MaxInt64),
	}
}

// TestOrderAgreesWithCompare is the package's defining property: byte order
// of encodings equals value.Compare for every pair in the sample set.
func TestOrderAgreesWithCompare(t *testing.T) {
	vals := sampleValues()
	for _, a := range vals {
		for _, b := range vals {
			want := sign(value.Compare(a, b))
			got := sign(bytes.Compare(enc(a), enc(b)))
			if got != want {
				t.Errorf("order(%v, %v): encoded %d, Compare %d", a, b, got, want)
			}
		}
	}
}

func TestOrderQuickInts(t *testing.T) {
	f := func(a, b int32) bool {
		va, vb := value.Int(int64(a)), value.Int(int64(b))
		return sign(bytes.Compare(enc(va), enc(vb))) == sign(value.Compare(va, vb))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOrderQuickFloats(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		va, vb := value.Float(a), value.Float(b)
		return sign(bytes.Compare(enc(va), enc(vb))) == sign(value.Compare(va, vb))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOrderQuickMixedNumeric(t *testing.T) {
	f := func(a int32, b float64) bool {
		if math.IsNaN(b) {
			return true
		}
		va, vb := value.Int(int64(a)), value.Float(b)
		return sign(bytes.Compare(enc(va), enc(vb))) == sign(value.Compare(va, vb))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOrderQuickStrings(t *testing.T) {
	f := func(a, b string) bool {
		va, vb := value.Str(a), value.Str(b)
		return sign(bytes.Compare(enc(va), enc(vb))) == sign(value.Compare(va, vb))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestStringPrefixFree: no string encoding is a prefix of another distinct
// string's encoding, so tuple encodings compare lexicographically.
func TestStringPrefixFree(t *testing.T) {
	pairs := [][2]string{
		{"a", "ab"}, {"a\x00", "a"}, {"a\x00", "a\x00b"}, {"", "x"},
	}
	for _, p := range pairs {
		ea, eb := enc(value.Str(p[0])), enc(value.Str(p[1]))
		if bytes.HasPrefix(eb, ea) || bytes.HasPrefix(ea, eb) {
			t.Errorf("encodings of %q and %q are prefix-related", p[0], p[1])
		}
	}
}

func TestTupleOrderAgreesWithCompareTuples(t *testing.T) {
	tuples := []value.Tuple{
		{value.Str("a"), value.Int(1)},
		{value.Str("a"), value.Int(2)},
		{value.Str("a")},
		{value.Str("ab"), value.Int(0)},
		{value.Int(5), value.Str("z")},
		{value.Null(), value.Null()},
	}
	for _, a := range tuples {
		for _, b := range tuples {
			want := sign(value.CompareTuples(a, b))
			got := sign(bytes.Compare(AppendTuple(nil, a), AppendTuple(nil, b)))
			if got != want {
				t.Errorf("tuple order(%v, %v): encoded %d, Compare %d", a, b, got, want)
			}
		}
	}
}

func TestEqualValuesEncodeEqual(t *testing.T) {
	if !bytes.Equal(enc(value.Int(2)), enc(value.Float(2.0))) {
		t.Error("Int(2) and Float(2.0) must encode identically (they Compare equal)")
	}
	if bytes.Equal(enc(value.Int(2)), enc(value.Int(3))) {
		t.Error("distinct values encode equal")
	}
}

func TestKeyHelpers(t *testing.T) {
	tup := value.Tuple{value.Str("a"), value.Int(7), value.Bool(true)}
	if Key(tup, []int{1}) != string(enc(value.Int(7))) {
		t.Error("Key(cols) mismatch")
	}
	if TupleKey(tup) != string(AppendTuple(nil, tup)) {
		t.Error("TupleKey mismatch")
	}
}

func TestNegativeZeroEqualsZero(t *testing.T) {
	if !bytes.Equal(enc(value.Float(0.0)), enc(value.Float(math.Copysign(0, -1)))) {
		t.Error("-0.0 and +0.0 should encode identically (they compare equal)")
	}
}

// TestPrefixRangeSemantics pins the property LookupRange relies on: for
// bounds that are prefixes of the stored tuples, membership of a tuple in
// the encoded byte range [enc(lo), enc(hi)) equals lexicographic tuple
// membership lo ≤ t < hi (with prefix comparison extending shorter bounds).
func TestPrefixRangeSemantics(t *testing.T) {
	tuples := []value.Tuple{
		{value.Str("alpha"), value.Int(1)},
		{value.Str("alpha"), value.Int(2)},
		{value.Str("bravo"), value.Int(0)},
		{value.Str("bravo"), value.Int(9)},
		{value.Str("br"), value.Int(5)},
		{value.Str("charlie"), value.Int(3)},
	}
	bounds := []value.Tuple{
		{value.Str("a")}, {value.Str("alpha")}, {value.Str("alpha"), value.Int(2)},
		{value.Str("b")}, {value.Str("bravo")}, {value.Str("c")}, {value.Str("zz")},
	}
	for _, lo := range bounds {
		for _, hi := range bounds {
			loK, hiK := TupleKey(lo), TupleKey(hi)
			for _, tup := range tuples {
				k := TupleKey(tup)
				inBytes := k >= loK && k < hiK
				inTuples := value.CompareTuples(tup, lo) >= 0 && value.CompareTuples(tup, hi) < 0
				if inBytes != inTuples {
					t.Errorf("range [%v,%v) tuple %v: bytes=%v tuples=%v",
						lo, hi, tup, inBytes, inTuples)
				}
			}
		}
	}
}

func TestSeparator(t *testing.T) {
	cases := []struct{ a, b string }{
		{"apple", "banana"},
		{"app", "apple"},
		{"abc", "abd"},
		{"abczzz", "abd"},
		{"", "a"},
		{"a", "ab"},
		{"aa", "ab"},
	}
	for _, c := range cases {
		s := Separator(nil, []byte(c.a), []byte(c.b))
		if !(bytes.Compare([]byte(c.a), s) < 0 && bytes.Compare(s, []byte(c.b)) <= 0) {
			t.Errorf("Separator(%q, %q) = %q, want a < s <= b", c.a, c.b, s)
		}
		if len(s) > len(c.b) {
			t.Errorf("Separator(%q, %q) = %q longer than b", c.a, c.b, s)
		}
	}
	// Degenerate: a >= b returns b verbatim.
	if s := Separator(nil, []byte("zz"), []byte("a")); !bytes.Equal(s, []byte("a")) {
		t.Errorf("degenerate Separator = %q, want %q", s, "a")
	}
}

// TestPrefixSuccessor pins the bound the WHERE pushdown builds windows from:
// every key extending the prefix sorts below the successor, the successor is
// tight (nothing that does not extend the prefix fits between), and a prefix
// with no successor says so.
func TestPrefixSuccessor(t *testing.T) {
	for _, p := range [][]byte{{0x03, 'a', 0, 0}, {0x02, 0xFF, 0xFF}, {0x01}, {0x03, 0xFE, 0xFF}} {
		succ, ok := PrefixSuccessor(nil, p)
		if !ok {
			t.Fatalf("PrefixSuccessor(%x) reports no successor", p)
		}
		for _, ext := range [][]byte{nil, {0x00}, {0xFF}, {0xFF, 0xFF, 0xFF}} {
			k := append(append([]byte(nil), p...), ext...)
			if bytes.Compare(k, succ) >= 0 {
				t.Errorf("key %x extends %x but is not below its successor %x", k, p, succ)
			}
		}
		if bytes.HasPrefix(succ, p) || bytes.Compare(succ, p) <= 0 {
			t.Errorf("PrefixSuccessor(%x) = %x is not past the prefix", p, succ)
		}
		// Tight: the successor's own predecessor at the same length extends p
		// or is p's truncation, so no foreign key fits between.
		pred := append([]byte(nil), succ...)
		pred[len(pred)-1]--
		if !bytes.HasPrefix(p, pred) {
			t.Errorf("PrefixSuccessor(%x) = %x leaves room for keys outside the prefix", p, succ)
		}
	}
	for _, p := range [][]byte{nil, {}, {0xFF}, {0xFF, 0xFF}} {
		if succ, ok := PrefixSuccessor(nil, p); ok {
			t.Errorf("PrefixSuccessor(%x) = %x, want no successor", p, succ)
		}
	}
	// dst is appended to, prefix left alone.
	p := []byte{0x03, 'k', 0xFF}
	if succ, _ := PrefixSuccessor([]byte("x"), p); string(succ) != "x\x03l" || p[1] != 'k' {
		t.Errorf("PrefixSuccessor appended %q (prefix now %x)", succ, p)
	}
}
