package keyenc

import (
	"bytes"
	"math"
	"math/rand"
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

// TestStringCopiedByRuns: AppendValue copies a string by the runs between
// its 0x00 bytes; its bytes are those of escaping the string one byte at a
// time, over strings made of runs of 0x00, 0xFF and other bytes.
func TestStringCopiedByRuns(t *testing.T) {
	perByte := func(s string) []byte {
		dst := []byte{tagString}
		for i := 0; i < len(s); i++ {
			if s[i] == 0x00 {
				dst = append(dst, 0x00, 0xFF)
			} else {
				dst = append(dst, s[i])
			}
		}
		return append(dst, 0x00, 0x00)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		var b []byte
		for runs := rng.Intn(6); runs > 0; runs-- {
			c := []byte{0x00, 0xFF, 'a' + byte(rng.Intn(3))}[rng.Intn(3)]
			for n := 1 + rng.Intn(4); n > 0; n-- {
				b = append(b, c)
			}
		}
		s := string(b)
		if got, want := enc(value.Str(s)), perByte(s); !bytes.Equal(got, want) {
			t.Fatalf("AppendValue(%q) = %x, escaping byte by byte gives %x", s, got, want)
		}
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

// TestKeyHelpers: AppendCols encodes the named columns in their order, and
// Len finds where the first n values of a tuple's encoding end, whatever
// follows them.
func TestKeyHelpers(t *testing.T) {
	tup := value.Tuple{value.Str("a\x00"), value.Int(1<<53 + 1), value.Bool(true), value.Float(0.5)}
	if got, want := AppendCols(nil, tup, []int{3, 1}), AppendTuple(nil, value.Tuple{tup[3], tup[1]}); !bytes.Equal(got, want) {
		t.Errorf("AppendCols = %x, want %x", got, want)
	}
	whole := append(AppendTuple(nil, tup), "tail"...)
	for n := 0; n <= len(tup); n++ {
		want := len(AppendTuple(nil, tup[:n]))
		if got := Len(whole, n); got != want {
			t.Errorf("Len(bytes, %d) = %d, want %d", n, got, want)
		}
		if got := Len(string(whole), n); got != want {
			t.Errorf("Len(string, %d) = %d, want %d", n, got, want)
		}
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
			loK, hiK := string(AppendTuple(nil, lo)), string(AppendTuple(nil, hi))
			for _, tup := range tuples {
				k := string(AppendTuple(nil, tup))
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

// totalOrderValues are the values TestCompareTotalOrder draws triples from:
// the numbers an inexact int/float comparison gets wrong (±2⁵³±1, ±2⁶³ and
// their float neighbours, NaN, −0, ±Inf) in both kinds where they exist,
// seeded random numbers near those edges, and a value of every other kind.
func totalOrderValues() []value.Value {
	vals := []value.Value{
		value.Null(), value.Str(""), value.Str("a\x00"), value.Bool(true), value.Chronon(-1),
		value.Float(math.NaN()), value.Float(math.Float64frombits(0xFFF8000000000001)), // two NaNs, one
		value.Float(math.Copysign(0, -1)), value.Float(0), value.Int(0),
		value.Float(math.Inf(-1)), value.Float(math.Inf(1)), value.Float(0.5), value.Float(-0.5),
		value.Int(math.MaxInt64), value.Int(math.MinInt64), value.Int(math.MinInt64 + 1), value.Int(math.MaxInt64 - 511),
		value.Float(0x1p63), value.Float(-0x1p63), value.Float(math.Nextafter(0x1p63, 0)), value.Float(math.Nextafter(-0x1p63, 0)),
	}
	for _, base := range []int64{1 << 53, -(1 << 53)} {
		for d := int64(-2); d <= 2; d++ {
			vals = append(vals, value.Int(base+d), value.Float(float64(base+d)))
		}
		vals = append(vals, value.Float(float64(base)+0.5), value.Float(float64(base)*2+2))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 12; i++ {
		n := rng.Int63() >> uint(rng.Intn(12))
		if rng.Intn(2) == 0 {
			n = -n
		}
		vals = append(vals, value.Int(n), value.Float(float64(n)), value.Float(rng.NormFloat64()*float64(n)))
	}
	return vals
}

// TestCompareTotalOrder: value.Compare is a total order — antisymmetric and
// transitive, equality included — over every triple of totalOrderValues, and
// the encoding's byte order is that order.
func TestCompareTotalOrder(t *testing.T) {
	vals := totalOrderValues()
	cmp := make([][]int, len(vals))
	for i, a := range vals {
		cmp[i] = make([]int, len(vals))
		for j, b := range vals {
			c := sign(value.Compare(a, b))
			cmp[i][j] = c
			if got := sign(bytes.Compare(enc(a), enc(b))); got != c {
				t.Errorf("bytes.Compare(enc(%v), enc(%v)) = %d, value.Compare = %d", a, b, got, c)
			}
		}
	}
	for i := range vals {
		for j := range vals {
			if cmp[i][j] != -cmp[j][i] {
				t.Errorf("Compare(%v, %v) = %d but Compare(%v, %v) = %d", vals[i], vals[j], cmp[i][j], vals[j], vals[i], cmp[j][i])
			}
			for k := range vals {
				if cmp[i][j] <= 0 && cmp[j][k] <= 0 && cmp[i][k] != min(cmp[i][j], cmp[j][k]) {
					t.Errorf("not transitive: %v ≤ %v ≤ %v but Compare(%v, %v) = %d", vals[i], vals[j], vals[k], vals[i], vals[k], cmp[i][k])
				}
			}
		}
	}
}

// TestDecodeRoundTrip: every sample decodes back, under its own kind, to a
// value of that kind that compares equal, taking exactly its encoding.
func TestDecodeRoundTrip(t *testing.T) {
	for _, v := range append(sampleValues(), totalOrderValues()...) {
		e := enc(v)
		for _, got := range []func() (value.Value, int, error){
			func() (value.Value, int, error) { return DecodeValue(e, v.Kind()) },
			func() (value.Value, int, error) { return DecodeValue(string(e), v.Kind()) },
		} {
			d, n, err := got()
			if err != nil || n != len(e) || d.Kind() != v.Kind() || value.Compare(d, v) != 0 {
				t.Errorf("decode(enc(%v)) = %v (%s), %d of %d bytes, %v", v, d, d.Kind(), n, len(e), err)
			}
		}
	}
	// A numeric decodes as its column's kind.
	if d, _, _ := DecodeValue(enc(value.Int(7)), value.KindFloat); d.Kind() != value.KindFloat {
		t.Errorf("7 in a FLOAT column decodes as %s", d.Kind())
	}
	if d, _, _ := DecodeValue(enc(value.Float(7)), value.KindInt); d.Kind() != value.KindInt {
		t.Errorf("7.0 in an INT column decodes as %s", d.Kind())
	}
	if d, _, _ := DecodeValue(enc(value.Float(7.5)), value.KindInt); d.Kind() != value.KindFloat || d.AsFloat() != 7.5 {
		t.Errorf("7.5 decodes as %v", d)
	}
}

// TestDecodeRejectsMalformed: bytes AppendValue never writes are refused,
// not decoded into some value.
func TestDecodeRejectsMalformed(t *testing.T) {
	seven := enc(value.Int(7))
	bad := map[string][]byte{
		"empty":               nil,
		"unknown tag":         {0x09},
		"short numeric":       seven[:9],
		"zero in 3 bytes":     append(append([]byte(nil), seven[:9]...), remPos, 0x80, 0x00),
		"remainder sign":      append(append([]byte(nil), seven[:9]...), remNeg, 0x80, 0x01),
		"remainder on 7":      append(append([]byte(nil), seven[:9]...), remPos, 0x80, 0x01),
		"bad suffix":          append(append([]byte(nil), seven[:9]...), 0x42),
		"non-canonical float": {tagNumeric, 0xFF, 0xF8, 0, 0, 0, 0, 0, 1, remZero},
		"unterminated string": {tagString, 'a', 0x00},
		"bad escape":          {tagString, 'a', 0x00, 0x01, 0x00, 0x00},
		"bool 2":              {tagBool, 2},
		"short time":          {tagTime, 1, 2},
	}
	for name, b := range bad {
		if v, _, err := DecodeValue(b, value.KindInt); err == nil {
			t.Errorf("%s: %x decoded as %v", name, b, v)
		}
	}
	key := AppendTuple(nil, value.Tuple{value.Str("a"), value.Int(1 << 60)})
	if err := CheckKey(key, 2); err != nil {
		t.Errorf("CheckKey refuses a two-value key: %v", err)
	}
	for _, n := range []int{1, 3} {
		if CheckKey(key, n) == nil {
			t.Errorf("CheckKey accepts a two-value key as %d values", n)
		}
	}
}

// TestDecodeStringCellShares: a string cell decoded from a string key is a
// substring of it — no allocation — which is what makes building a hash
// view's row from its key free; from bytes it is one copy.
func TestDecodeStringCellShares(t *testing.T) {
	key := string(AppendTuple(nil, value.Tuple{value.Str("acct-0007"), value.Int(1<<53 + 1)}))
	kinds := []value.Kind{value.KindString, value.KindInt}
	row := make(value.Tuple, 0, 2)
	if n := testing.AllocsPerRun(100, func() { row, _ = DecodeKey(row[:0], key, kinds) }); n != 0 {
		t.Errorf("decoding a string key allocates %.0f times, want 0", n)
	}
	if row[0].AsString() != "acct-0007" || row[1].AsInt() != 1<<53+1 {
		t.Errorf("decoded %v", row)
	}
	b := []byte(key)
	if n := testing.AllocsPerRun(100, func() { row, _ = DecodeKey(row[:0], b, kinds) }); n != 1 {
		t.Errorf("decoding a byte key allocates %.0f times, want 1 (the string cell)", n)
	}
}

// FuzzKeyenc: for any int, float and string, each decodes from its
// encoding under its column kind to an equal value of that kind, the
// encodings order as value.Compare does, and a tuple of them decodes from
// its concatenated encoding with nothing left over — each encoding is
// self-delimiting.
func FuzzKeyenc(f *testing.F) {
	f.Add(int64(1<<53+1), float64(1<<53), "a\x00b")
	f.Add(int64(-(1<<53)-1), float64(-(1 << 53)), "\x00")
	f.Add(int64(1<<53-1), float64(1<<53+2), "\x00\xff")
	f.Add(int64(math.MaxInt64), 0x1p63, "")
	f.Add(int64(math.MinInt64), -0x1p63, "a\x00")
	f.Add(int64(0), math.Copysign(0, -1), "\x00\x00")
	f.Add(int64(-1), math.NaN(), "z\xff")
	f.Fuzz(func(t *testing.T, i int64, x float64, s string) {
		vals := value.Tuple{value.Int(i), value.Float(x), value.Str(s), value.Int(i ^ 1), value.Float(float64(i))}
		kinds := []value.Kind{value.KindInt, value.KindFloat, value.KindString, value.KindInt, value.KindFloat}
		for k, v := range vals {
			e := enc(v)
			d, n, err := DecodeValue(e, kinds[k])
			if err != nil || n != len(e) || d.Kind() != v.Kind() || value.Compare(d, v) != 0 {
				t.Fatalf("decode(enc(%v)) = %v, %d of %d bytes, %v", v, d, n, len(e), err)
			}
			for _, w := range vals {
				if got, want := sign(bytes.Compare(e, enc(w))), sign(value.Compare(v, w)); got != want {
					t.Fatalf("enc(%v) vs enc(%v): bytes %d, Compare %d", v, w, got, want)
				}
			}
		}
		key := AppendTuple(nil, vals)
		got, err := DecodeKey(nil, key, kinds)
		if err != nil || value.CompareTuples(got, vals) != 0 || CheckKey(key, len(vals)) != nil {
			t.Fatalf("tuple %v decodes as %v (%v)", vals, got, err)
		}
		if _, err := DecodeKey(nil, append(key, tagNull), kinds); err == nil {
			t.Fatal("a key with a value left over decodes")
		}
	})
}
