// Package keyenc provides an order-preserving ("memcomparable") binary
// encoding of values and tuples: byte-wise comparison of encodings agrees
// with value.Compare / value.CompareTuples.
//
// The ordered B-tree stores key on this encoding, which is what lets a
// persistent view support ordered scans and range queries over its group
// key — the "what indices should be constructed?" question of Section 5.2.
//
// Layout, per value (tags chosen so cross-kind order matches value.Compare:
// nulls < numerics < strings < bools < times):
//
//	null:    0x01
//	numeric: 0x02 + 8-byte sortable float64 (sign-massaged IEEE bits)
//	string:  0x03 + bytes with 0x00 escaped as 0x00 0xFF + terminator 0x00 0x00
//	bool:    0x04 + 1 byte
//	time:    0x05 + 8-byte sortable int64
//
// Integers and floats share the numeric class and compare numerically,
// exactly as value.Compare does. Like SQLite's numeric affinity, integer
// keys with |v| > 2⁵³ collapse onto their nearest float64 — distinct such
// keys may encode equal. Chronicle group keys are account numbers, names,
// and timestamps in practice; the trade-off buys byte-comparable keys.
package keyenc

import (
	"encoding/binary"
	"math"
	"sync"

	"chronicledb/internal/value"
)

// bufs pools key-encode scratch for callers that cannot keep their own
// grown-once buffer — the concurrent read paths (view lookups and range
// scans run under a shared read lock, so a per-view buffer would race).
var bufs = sync.Pool{New: func() any { b := make([]byte, 0, 64); return &b }}

// GetBuf returns a pooled scratch buffer of zero length. Pass it back with
// PutBuf when the encoded key is no longer referenced.
func GetBuf() *[]byte {
	b := bufs.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

// PutBuf returns a scratch buffer (grown capacity and all) to the pool.
func PutBuf(b *[]byte) { bufs.Put(b) }

// Kind tags, ordered to match value.Compare's cross-kind ordering.
const (
	tagNull    = 0x01
	tagNumeric = 0x02
	tagString  = 0x03
	tagBool    = 0x04
	tagTime    = 0x05
)

// AppendValue appends the order-preserving encoding of v to dst.
func AppendValue(dst []byte, v value.Value) []byte {
	switch v.Kind() {
	case value.KindNull:
		return append(dst, tagNull)
	case value.KindInt:
		dst = append(dst, tagNumeric)
		return appendSortableFloat(dst, float64(v.AsInt()))
	case value.KindFloat:
		dst = append(dst, tagNumeric)
		return appendSortableFloat(dst, v.AsFloat())
	case value.KindString:
		dst = append(dst, tagString)
		s := v.AsString()
		for i := 0; i < len(s); i++ {
			if s[i] == 0x00 {
				dst = append(dst, 0x00, 0xFF)
			} else {
				dst = append(dst, s[i])
			}
		}
		return append(dst, 0x00, 0x00)
	case value.KindBool:
		b := byte(0)
		if v.AsBool() {
			b = 1
		}
		return append(dst, tagBool, b)
	case value.KindTime:
		dst = append(dst, tagTime)
		return appendSortableInt(dst, v.AsChronon())
	default:
		return append(dst, 0xFF)
	}
}

// AppendTuple appends the encodings of every value in t. Because each value
// encoding is self-delimiting and prefix-free within its kind, byte-wise
// comparison of tuple encodings is lexicographic tuple comparison.
func AppendTuple(dst []byte, t value.Tuple) []byte {
	for _, v := range t {
		dst = AppendValue(dst, v)
	}
	return dst
}

// AppendCols appends the encodings of t's values at the given columns —
// the allocation-free form of Key for callers holding a reusable buffer.
func AppendCols(dst []byte, t value.Tuple, cols []int) []byte {
	for _, c := range cols {
		dst = AppendValue(dst, t[c])
	}
	return dst
}

// Key renders the values of t at the given columns into a string usable as
// an ordered map key.
func Key(t value.Tuple, cols []int) string {
	return string(AppendCols(nil, t, cols))
}

// TupleKey renders the whole tuple.
func TupleKey(t value.Tuple) string { return string(AppendTuple(nil, t)) }

// appendSortableFloat writes f as 8 bytes whose unsigned byte-wise order is
// the numeric order: positive floats get the sign bit flipped, negative
// floats get all bits inverted. NaN is normalized below -Inf.
func appendSortableFloat(dst []byte, f float64) []byte {
	if f == 0 {
		f = 0 // normalize -0.0, which compares equal to +0.0
	}
	bits := math.Float64bits(f)
	if math.IsNaN(f) {
		bits = 0 // sorts below every real value after the transform
	}
	if bits&(1<<63) != 0 {
		bits = ^bits
	} else {
		bits |= 1 << 63
	}
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], bits)
	return append(dst, buf[:]...)
}

// appendSortableInt writes i as 8 big-endian bytes with the sign bit
// flipped, so unsigned byte order equals signed numeric order.
func appendSortableInt(dst []byte, i int64) []byte {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(i)^(1<<63))
	return append(dst, buf[:]...)
}

// Separator returns a short key s with a < s ≤ b (byte-wise), appended to
// dst. It is the shortest prefix of b that still exceeds a, in the spirit
// of an SSTable index separator: blocked view stores use it as the lower
// boundary of a block whose first key is b when the previous block ends at
// a, keeping block indexes small. The result is a comparison key only — a
// proper prefix of an encoding is not itself a decodable encoding. When
// a ≥ b (degenerate input) it returns b whole.
func Separator(dst, a, b []byte) []byte {
	c := 0
	for c < len(a) && c < len(b) && a[c] == b[c] {
		c++
	}
	switch {
	case c == len(b):
		// b is a prefix of a (or equal): no prefix of b exceeds a.
		return append(dst, b...)
	case c == len(a):
		// a is a proper prefix of b: one extra byte breaks the tie.
		return append(dst, b[:c+1]...)
	default:
		// First divergent byte decides; b[c] > a[c] whenever a < b.
		return append(dst, b[:c+1]...)
	}
}

// PrefixSuccessor returns the smallest key greater than every key that
// starts with prefix: prefix with its trailing 0xFF bytes dropped and the
// byte before them incremented. Together with the prefix itself it bounds
// the keys that share it — [prefix, PrefixSuccessor(prefix)) — which is how
// an equality on the leading group-key columns becomes a key window. The
// result is a comparison key only, like Separator's. ok is false when no
// such key exists (prefix is empty or all 0xFF): the window has no upper
// bound. prefix is not modified; the result is appended to dst.
func PrefixSuccessor(dst, prefix []byte) (succ []byte, ok bool) {
	n := len(prefix)
	for n > 0 && prefix[n-1] == 0xFF {
		n--
	}
	if n == 0 {
		return dst, false
	}
	dst = append(dst, prefix[:n]...)
	dst[len(dst)-1]++
	return dst, true
}
