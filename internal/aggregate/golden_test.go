package aggregate

import (
	"encoding/hex"
	"errors"
	"testing"

	"chronicledb/internal/value"
)

// The format pin: every function's state, over streams that reach each of
// its representations, must encode to the bytes the boxed per-function
// states wrote before states became one flat struct and then words
// (checkpoints and view blocks written then must restore now), and must
// decode back to a group that re-encodes identically.

// goldenStreams are the inputs, each a column of one kind.
var goldenStreams = []struct {
	kind value.Kind
	vals []value.Value
}{
	{value.KindInt, nil},
	{value.KindInt, []value.Value{value.Int(5), value.Int(-3), value.Int(12)}},
	// Ints and floats in one column: no typed column holds them (see
	// TestGoldenMixedStreamIsRefused).
	{value.KindInt, []value.Value{value.Int(5), value.Float(2.5), value.Int(-3)}},
	{value.KindInt, []value.Value{value.Null(), value.Null()}},
	{value.KindString, []value.Value{value.Str("m"), value.Str("a"), value.Null(), value.Str("z")}},
	{value.KindFloat, []value.Value{value.Float(1.5), value.Float(2.25), value.Float(-0.5)}},
	{value.KindTime, []value.Value{value.Chronon(1234567890123), value.Chronon(99)}},
	{value.KindBool, []value.Value{value.Bool(true), value.Bool(false)}},
}

// goldenStates lists {function, stream, encoding}; numeric functions skip
// the non-numeric streams (they are rejected upstream).
var goldenStates = []struct {
	f      Func
	stream int
	hex    string
}{
	{0, 0, "0000000000000000"},
	{1, 0, "000000000000000000000000000000000000"},
	{2, 0, "0000"},
	{3, 0, "0000"},
	{4, 0, "0000000000000000000000000000000000000000000000000000"},
	{5, 0, "0000"},
	{6, 0, "0000"},
	{7, 0, "00000000000000000000000000000000000000000000000000"},
	{8, 0, "01000000000000000000000000000000000000000000000000"},
	{0, 1, "0300000000000000"},
	{1, 1, "00010e000000000000000000000000000000"},
	{2, 1, "0101fdffffffffffffff"},
	{3, 1, "01010c00000000000000"},
	{4, 1, "00010e0000000000000000000000000000000300000000000000"},
	{5, 1, "01010500000000000000"},
	{6, 1, "01010c00000000000000"},
	{7, 1, "0003000000000000000000000000002c400000000000406640"},
	{8, 1, "0103000000000000000000000000002c400000000000406640"},
	{0, 3, "0200000000000000"},
	{1, 3, "000000000000000000000000000000000000"},
	{2, 3, "0000"},
	{3, 3, "0000"},
	{4, 3, "0000000000000000000000000000000000000000000000000000"},
	{5, 3, "0000"},
	{6, 3, "0000"},
	{7, 3, "00000000000000000000000000000000000000000000000000"},
	{8, 3, "01000000000000000000000000000000000000000000000000"},
	{0, 4, "0400000000000000"},
	{2, 4, "01030161"},
	{3, 4, "0103017a"},
	{5, 4, "0103016d"},
	{6, 4, "0103017a"},
	{0, 5, "0300000000000000"},
	{1, 5, "010100000000000000000000000000000a40"},
	{2, 5, "0102000000000000e0bf"},
	{3, 5, "01020000000000000240"},
	{4, 5, "010100000000000000000000000000000a400300000000000000"},
	{5, 5, "0102000000000000f83f"},
	{6, 5, "0102000000000000e0bf"},
	{7, 5, "0003000000000000000000000000000a400000000000401e40"},
	{8, 5, "0103000000000000000000000000000a400000000000401e40"},
	{0, 6, "0200000000000000"},
	{2, 6, "01056300000000000000"},
	{3, 6, "0105cb04fb711f010000"},
	{5, 6, "0105cb04fb711f010000"},
	{6, 6, "01056300000000000000"},
	{0, 7, "0200000000000000"},
	{2, 7, "010400"},
	{3, 7, "010401"},
	{5, 7, "010401"},
	{6, 7, "010400"},
}

func TestStateEncodingGolden(t *testing.T) {
	seen := map[Func]bool{}
	for _, g := range goldenStates {
		seen[g.f] = true
		stream := goldenStreams[g.stream]
		l := layoutOf(t, g.f, stream.kind)
		s := fold(l, stream.vals...)
		enc := l.AppendStates(nil, s)
		if got := hex.EncodeToString(enc); got != g.hex {
			t.Errorf("%s over stream %d encodes to\n  %s, want\n  %s", g.f, g.stream, got, g.hex)
			continue
		}
		dec := l.New()
		n, err := l.DecodeStates(dec, s.Rows(), enc)
		if err != nil || n != len(enc) {
			t.Errorf("%s over stream %d: decode consumed %d of %d: %v", g.f, g.stream, n, len(enc), err)
			continue
		}
		if re := hex.EncodeToString(l.AppendStates(nil, dec)); re != g.hex {
			t.Errorf("%s over stream %d re-encodes to\n  %s, want\n  %s", g.f, g.stream, re, g.hex)
		}
		if !value.Equal(l.Result(dec, 0), l.Result(s, 0)) {
			t.Errorf("%s over stream %d: decoded result %v, want %v", g.f, g.stream, l.Result(dec, 0), l.Result(s, 0))
		}
	}
	for f := Count; f <= Stddev; f++ {
		if !seen[f] {
			t.Errorf("no golden encoding for %s", f)
		}
	}
}

// TestGoldenMixedStreamIsRefused: the SUM that the untyped states wrote over
// stream 2 — integers, then a float — is a state no typed column produces
// (Schema.Validate refuses a float in an INT column, and Coerce widens an int
// in a FLOAT one), and neither layout can hold it.
func TestGoldenMixedStreamIsRefused(t *testing.T) {
	enc, _ := hex.DecodeString("010105000000000000000000000000001240")
	for _, k := range []value.Kind{value.KindInt, value.KindFloat} {
		l := layoutOf(t, Sum, k)
		_, err := l.DecodeStates(l.New(), 3, enc)
		var mismatch *MismatchError
		if !errors.As(err, &mismatch) {
			t.Errorf("SUM over %s decoded the mixed stream's state: err %v, want a *MismatchError", k, err)
		}
	}
}
