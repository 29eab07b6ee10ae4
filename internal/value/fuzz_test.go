package value

import "testing"

// FuzzDecodeValue: arbitrary bytes must never panic the decoder, and every
// successfully decoded value must re-encode to the bytes it consumed.
func FuzzDecodeValue(f *testing.F) {
	for _, v := range sampleValues() {
		f.Add(AppendValue(nil, v))
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		v, n, err := DecodeValue(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d", n, len(data))
		}
		// The decoder tolerates non-minimal varint lengths, so require a
		// canonical fixed point rather than byte equality with the input:
		// re-encoding and re-decoding must be stable and value-preserving.
		re := AppendValue(nil, v)
		v2, n2, err := DecodeValue(re)
		if err != nil || n2 != len(re) || v2.Kind() != v.Kind() || !Equal(v2, v) {
			t.Fatalf("canonical round trip failed: %v -> %x -> %v (%v)", v, re, v2, err)
		}
	})
}

// FuzzDecodeTuple mirrors FuzzDecodeValue at the tuple level.
func FuzzDecodeTuple(f *testing.F) {
	f.Add(AppendTuple(nil, Tuple{Int(1), Str("x"), Null()}))
	f.Add([]byte{0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		tup, n, err := DecodeTuple(data)
		// The string decoder reads the same bytes the same way.
		stup, sn, serr := DecodeTupleString(nil, string(data))
		if (err == nil) != (serr == nil) || sn != n || (err == nil && !TuplesEqual(stup, tup)) {
			t.Fatalf("string decoder disagrees: %v %d %v, want %v %d %v", stup, sn, serr, tup, n, err)
		}
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d", n, len(data))
		}
		re := AppendTuple(nil, tup)
		tup2, n2, err := DecodeTuple(re)
		if err != nil || n2 != len(re) || !TuplesEqual(tup2, tup) {
			t.Fatalf("canonical round trip failed: %v -> %v (%v)", tup, tup2, err)
		}
	})
}
