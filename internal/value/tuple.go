package value

import "strings"

// Tuple is an ordered list of values interpreted against a Schema.
type Tuple []Value

// Clone returns a copy of the tuple. Values themselves are immutable, so a
// shallow copy of the slice suffices.
func (t Tuple) Clone() Tuple { return append(Tuple(nil), t...) }

// CompareTuples orders two tuples lexicographically column by column.
// Shorter tuples sort before longer ones with an equal prefix.
func CompareTuples(a, b Tuple) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return cmpInt(int64(len(a)), int64(len(b)))
}

// TuplesEqual reports whether two tuples compare equal column by column.
func TuplesEqual(a, b Tuple) bool { return CompareTuples(a, b) == 0 }

// Hash returns a 64-bit hash of the whole tuple.
func (t Tuple) Hash() uint64 {
	h := HashSeed
	for _, v := range t {
		h = v.Hash(h)
	}
	return h
}

// Project returns a new tuple containing the values at the given indexes.
func (t Tuple) Project(idx []int) Tuple {
	out := make(Tuple, len(idx))
	for i, j := range idx {
		out[i] = t[j]
	}
	return out
}

// Key renders the tuple's values at the given columns into a canonical
// string usable as a Go map key. Encodings are prefixed with the value kind
// and length-delimited so distinct tuples cannot collide.
func (t Tuple) Key(cols []int) string {
	var dst []byte
	for _, c := range cols {
		dst = AppendKey(dst, t[c])
	}
	return string(dst)
}

// FullKey is Key over every column.
func (t Tuple) FullKey() string {
	var dst []byte
	for _, v := range t {
		dst = AppendKey(dst, v)
	}
	return string(dst)
}

// AppendKey appends v's canonical map-key encoding — the byte sequence
// Key and FullKey are built from — to dst. Callers holding a reusable
// buffer get a probe key without allocating (m[string(dst)] lookups do not
// copy the bytes).
func AppendKey(dst []byte, v Value) []byte {
	// Numeric values are canonicalized through their binary encoding so that
	// Int(2) and Float(2.0) — which Compare equal — also key equal.
	mark := len(dst)
	dst = append(dst, 0)
	dst = AppendValue(dst, canonicalize(v))
	dst[mark] = byte(len(dst) - mark - 1)
	return dst
}

// canonicalize folds float values holding exact integers into KindInt.
func canonicalize(v Value) Value {
	if v.kind == KindFloat {
		i := int64(v.f)
		if float64(i) == v.f {
			return Int(i)
		}
	}
	return v
}

// String renders the tuple as "(v1, v2, ...)".
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range t {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte(')')
	return b.String()
}
