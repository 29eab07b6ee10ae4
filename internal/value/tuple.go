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

// Project returns a new tuple containing the values at the given indexes.
func (t Tuple) Project(idx []int) Tuple {
	out := make(Tuple, len(idx))
	for i, j := range idx {
		out[i] = t[j]
	}
	return out
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
