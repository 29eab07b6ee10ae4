package value_test

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
	"unsafe"

	"chronicledb/internal/keyenc"
	"chronicledb/internal/value"
)

// TestValueLayout pins the two-word layout of a Value and what it must not
// change: every accessor answers for every kind as it did when a Value kept
// a kind byte, an int64, a float64 and a string side by side.
func TestValueLayout(t *testing.T) {
	if got := unsafe.Sizeof(value.Value{}); got != 16 {
		t.Errorf("a Value is %d bytes, want 16: a field added to it costs every tuple in flight", got)
	}

	for _, tc := range []struct {
		v        value.Value
		kind     value.Kind
		i        int64 // AsInt and AsChronon
		f        float64
		s        string
		b        bool
		null     bool
		numeric  bool
		rendered string
	}{
		{value.Null(), value.KindNull, 0, 0, "", false, true, false, "NULL"},
		{value.Int(5), value.KindInt, 5, 5, "", true, false, true, "5"},
		{value.Int(-3), value.KindInt, -3, -3, "", true, false, true, "-3"},
		{value.Float(2.5), value.KindFloat, 0, 2.5, "", false, false, true, "2.5"},
		{value.Str("abc"), value.KindString, 0, 0, "abc", false, false, false, "abc"},
		{value.Str(""), value.KindString, 0, 0, "", false, false, false, ""},
		{value.Bool(true), value.KindBool, 1, 0, "", true, false, false, "true"},
		{value.Bool(false), value.KindBool, 0, 0, "", false, false, false, "false"},
		{value.Chronon(7), value.KindTime, 7, 0, "", true, false, false, "1970-01-01T00:00:00.000000007Z"},
	} {
		v := tc.v
		if v.Kind() != tc.kind || v.IsNull() != tc.null || v.IsNumeric() != tc.numeric {
			t.Errorf("%#v: kind %s null %v numeric %v, want %s %v %v", v, v.Kind(), v.IsNull(), v.IsNumeric(), tc.kind, tc.null, tc.numeric)
		}
		if v.AsInt() != tc.i || v.AsChronon() != tc.i || v.AsTime().UnixNano() != tc.i {
			t.Errorf("%#v: AsInt %d AsChronon %d AsTime %d, want %d", v, v.AsInt(), v.AsChronon(), v.AsTime().UnixNano(), tc.i)
		}
		if v.AsFloat() != tc.f || v.AsString() != tc.s || v.AsBool() != tc.b {
			t.Errorf("%#v: AsFloat %v AsString %q AsBool %v, want %v %q %v", v, v.AsFloat(), v.AsString(), v.AsBool(), tc.f, tc.s, tc.b)
		}
		if v.String() != tc.rendered {
			t.Errorf("%#v: String %q, want %q", v, v.String(), tc.rendered)
		}
	}

	if empty := value.Str(""); empty.IsNull() || value.Equal(empty, value.Null()) ||
		!bytes.Equal(value.AppendValue(nil, empty), []byte{byte(value.KindString), 0}) {
		t.Errorf("Str(\"\") must be an empty string, not NULL")
	}

	a := strings.Repeat("acct-\x00\xff", 3)
	b := strings.Clone(a)
	if unsafe.StringData(a) == unsafe.StringData(b) {
		t.Fatal("the two strings share their bytes; the test needs two addresses")
	}
	va, vb := value.Str(a), value.Str(b)
	if !value.Equal(va, vb) || value.Compare(va, vb) != 0 {
		t.Errorf("equal strings at two addresses compare unequal")
	}
	if !bytes.Equal(value.AppendValue(nil, va), value.AppendValue(nil, vb)) ||
		!bytes.Equal(keyenc.AppendValue(nil, va), keyenc.AppendValue(nil, vb)) {
		t.Errorf("equal strings at two addresses encode differently")
	}
	if fmt.Sprintf("%#v", value.Tuple{va}) != fmt.Sprintf("%#v", value.Tuple{vb}) {
		t.Errorf("%%#v shows a string's address: %#v", va)
	}

	for _, tc := range []struct {
		v    value.Value
		want string
	}{
		{value.Null(), "value.Null()"},
		{value.Int(-2), "value.Int(-2)"},
		{value.Float(1.5), "value.Float(1.5)"},
		{value.Float(math.Copysign(0, -1)), "value.Float(-0)"},
		{value.Float(0), "value.Float(0)"},
		{value.Float(math.Float64frombits(0x7ff8000000000001)), "value.Float(math.Float64frombits(0x7ff8000000000001))"},
		{value.Float(math.Float64frombits(0x7ff8000000000002)), "value.Float(math.Float64frombits(0x7ff8000000000002))"},
		{value.Float(math.Inf(-1)), "value.Float(math.Float64frombits(0xfff0000000000000))"},
		{value.Str("a\x00\"b"), `value.Str("a\x00\"b")`},
		{value.Bool(true), "value.Bool(true)"},
		{value.Chronon(-9), "value.Chronon(-9)"},
	} {
		if got := fmt.Sprintf("%#v", tc.v); got != tc.want {
			t.Errorf("%%#v = %s, want %s", got, tc.want)
		}
	}
}
