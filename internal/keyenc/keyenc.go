// Package keyenc provides an order-preserving ("memcomparable") binary
// encoding of values and tuples: byte-wise comparison of encodings agrees
// with value.Compare / value.CompareTuples, and an encoding decodes back to
// its value (DecodeValue, DecodeKey).
//
// The ordered B-tree stores key on this encoding, which is what lets a
// persistent view support ordered scans and range queries over its group
// key — the "what indices should be constructed?" question of Section 5.2.
// Because the encoding is exact and decodable, a view stores each group's
// values once, as its key, and decodes them when a reader builds the row.
//
// Layout, per value (tags chosen so cross-kind order matches value.Compare:
// nulls < numerics < strings < bools < times):
//
//	null:    0x01
//	numeric: 0x02 + 8-byte sortable float64 f + remainder suffix
//	string:  0x03 + bytes with 0x00 escaped as 0x00 0xFF + terminator 0x00 0x00
//	bool:    0x04 + 1 byte
//	time:    0x05 + 8-byte sortable int64
//
// A numeric v, int or float, is encoded as f, the float64 nearest to it
// (sign-massaged IEEE bits, NaN below -Inf, -0 as 0), then the exact signed
// remainder r = v − f as a tie-break: one byte 0x80 when r is 0 — every
// float, and every int with |v| ≤ 2⁵³ — otherwise 0x7F (r < 0) or 0x81
// (r > 0) and r as a sortable int16 (|r| ≤ 2⁹ for an int64). The numbers
// are therefore ordered by (f, r), which is their exact numeric order:
//
//	NaN < -Inf < … < -2⁶³ < … < -0 = 0 < … < 2⁵³ < 2⁵³+1 < … < 2⁶³-1 < … < +Inf
//
// Equal numbers encode equal whatever their kind (Int(5) and Float(5.0) are
// one group) and distinct ones never do. Which kind a numeric decodes to is
// the column's: values are coerced to their column kind on append, so the
// view schema names it.
//
// No encoding is a proper prefix of another, so the encodings of a tuple's
// values concatenate into the tuple's encoding, ordered lexicographically.
package keyenc

import (
	"encoding/binary"
	"errors"
	"math"
	"strings"
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

// Remainder suffix markers of a numeric encoding.
const (
	remNeg  = 0x7F
	remZero = 0x80
	remPos  = 0x81
)

// AppendValue appends the order-preserving encoding of v to dst.
func AppendValue(dst []byte, v value.Value) []byte {
	switch v.Kind() {
	case value.KindNull:
		return append(dst, tagNull)
	case value.KindInt:
		i := v.AsInt()
		f := float64(i)
		dst = appendSortableFloat(append(dst, tagNumeric), f)
		r := remainder(i, f)
		switch {
		case r < 0:
			dst = append(dst, remNeg)
		case r > 0:
			dst = append(dst, remPos)
		default:
			return append(dst, remZero)
		}
		return binary.BigEndian.AppendUint16(dst, uint16(r)^1<<15)
	case value.KindFloat:
		dst = appendSortableFloat(append(dst, tagNumeric), v.AsFloat())
		return append(dst, remZero)
	case value.KindString:
		dst = append(dst, tagString)
		s := v.AsString()
		for {
			i := strings.IndexByte(s, 0x00)
			if i < 0 {
				break
			}
			dst = append(append(dst, s[:i]...), 0x00, 0xFF)
			s = s[i+1:]
		}
		return append(append(dst, s...), 0x00, 0x00)
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

// AppendCols appends the encodings of t's values at the given columns.
func AppendCols(dst []byte, t value.Tuple, cols []int) []byte {
	for _, c := range cols {
		dst = AppendValue(dst, t[c])
	}
	return dst
}

// Len returns how many bytes of b the encodings of its first n values take:
// where a key of n values ends when other bytes follow it. b must hold the
// n encodings.
func Len[B string | []byte](b B, n int) int {
	off := 0
	for ; n > 0; n-- {
		_, used, _ := decode(b[off:], value.KindNull, false)
		off += used
	}
	return off
}

var (
	errTruncated = errors.New("keyenc: truncated encoding")
	errMalformed = errors.New("keyenc: malformed encoding")
)

// DecodeValue decodes the value encoded at the front of b as a value of a
// column of the given kind and returns it with the number of bytes it took.
// The kind decides only what a numeric becomes: a Float in a FLOAT column,
// otherwise an Int when it is one (a remainder forces Int, a fraction
// Float). Every NaN decodes as the canonical NaN and -0 as 0, which
// value.Compare holds equal to what was encoded. Decoding from a string
// builds string cells as substrings of it, without allocating, unless they
// hold a NUL; decoding from bytes copies them.
func DecodeValue[B string | []byte](b B, kind value.Kind) (value.Value, int, error) {
	return decode(b, kind, true)
}

// DecodeKey appends to dst the values of a key encoded from one value per
// entry of kinds, each decoded as that kind (see DecodeValue). It fails
// unless key holds exactly those values.
func DecodeKey[B string | []byte](dst value.Tuple, key B, kinds []value.Kind) (value.Tuple, error) {
	for _, k := range kinds {
		v, n, err := decode(key, k, true)
		if err != nil {
			return dst, err
		}
		dst = append(dst, v)
		key = key[n:]
	}
	if len(key) != 0 {
		return dst, errMalformed
	}
	return dst, nil
}

// CheckKey reports whether key is the canonical encoding of exactly n
// values — what AppendTuple writes — without building them.
func CheckKey(key []byte, n int) error {
	for ; n > 0; n-- {
		_, used, err := decode(key, value.KindNull, false)
		if err != nil {
			return err
		}
		key = key[used:]
	}
	if len(key) != 0 {
		return errMalformed
	}
	return nil
}

// decode is DecodeValue; without build it checks a string cell and leaves
// it unbuilt.
func decode[B string | []byte](b B, kind value.Kind, build bool) (value.Value, int, error) {
	if len(b) == 0 {
		return value.Value{}, 0, errTruncated
	}
	switch b[0] {
	case tagNull:
		return value.Null(), 1, nil
	case tagNumeric:
		return decodeNumeric(b, kind)
	case tagString:
		esc := false
		for i := 1; i+1 < len(b); i++ {
			if b[i] != 0x00 {
				continue
			}
			switch b[i+1] {
			case 0x00:
				switch {
				case !build:
					return value.Value{}, i + 2, nil
				case esc:
					return value.Str(unescape(b[1:i])), i + 2, nil
				}
				return value.Str(string(b[1:i])), i + 2, nil
			case 0xFF:
				esc = true
				i++
			default:
				return value.Value{}, 0, errMalformed
			}
		}
		return value.Value{}, 0, errTruncated
	case tagBool:
		if len(b) < 2 {
			return value.Value{}, 0, errTruncated
		}
		if b[1] > 1 {
			return value.Value{}, 0, errMalformed
		}
		return value.Bool(b[1] == 1), 2, nil
	case tagTime:
		if len(b) < 9 {
			return value.Value{}, 0, errTruncated
		}
		return value.Chronon(int64(bigEndian(b[1:9]) ^ 1<<63)), 9, nil
	}
	return value.Value{}, 0, errMalformed
}

// decodeNumeric decodes a numeric encoding (see the package comment),
// refusing any that AppendValue would not have written.
func decodeNumeric[B string | []byte](b B, kind value.Kind) (value.Value, int, error) {
	if len(b) < 10 {
		return value.Value{}, 0, errTruncated
	}
	bits := bigEndian(b[1:9])
	f := sortableFloat(bits)
	if sortableBits(f) != bits {
		return value.Value{}, 0, errMalformed
	}
	integral := f == math.Trunc(f) && f >= -0x1p63 && f <= 0x1p63
	switch b[9] {
	case remZero:
		if kind == value.KindFloat || !integral || f == 0x1p63 {
			return value.Float(f), 10, nil
		}
		return value.Int(int64(f)), 10, nil
	case remNeg, remPos:
		if len(b) < 12 {
			return value.Value{}, 0, errTruncated
		}
		r := int64(int16(bigEndian(b[10:12]) ^ 1<<15))
		if !integral || r == 0 || (r < 0) != (b[9] == remNeg) {
			return value.Value{}, 0, errMalformed
		}
		// i = f + r; a sum that wraps past the int64 range, or an i that f
		// is not the nearest float64 to, is no encoding.
		var i int64
		if f == 0x1p63 {
			i = r + 1<<62 + 1<<62
		} else {
			i = int64(f) + r
		}
		if float64(i) != f {
			return value.Value{}, 0, errMalformed
		}
		return value.Int(i), 12, nil
	}
	return value.Value{}, 0, errMalformed
}

// bigEndian reads b as a big-endian unsigned integer.
func bigEndian[B string | []byte](b B) (x uint64) {
	for i := 0; i < len(b); i++ {
		x = x<<8 | uint64(b[i])
	}
	return x
}

// unescape returns an encoded string body with each 0x00 0xFF back to 0x00.
func unescape[B string | []byte](body B) string {
	out := make([]byte, 0, len(body))
	for i := 0; i < len(body); i++ {
		out = append(out, body[i])
		if body[i] == 0x00 {
			i++ // the 0xFF
		}
	}
	return string(out)
}

// remainder returns i − f exactly, where f = float64(i) is i rounded to the
// nearest float64: at most half a unit in the last place, 2⁹ for an int64.
func remainder(i int64, f float64) int64 {
	if f >= 0x1p63 { // i rounded up past MaxInt64, where int64(f) is undefined
		return i - 1<<62 - 1<<62
	}
	return i - int64(f)
}

// appendSortableFloat writes f as 8 bytes whose unsigned byte-wise order is
// the numeric order (see sortableBits).
func appendSortableFloat(dst []byte, f float64) []byte {
	return binary.BigEndian.AppendUint64(dst, sortableBits(f))
}

// sortableBits maps f to a word whose unsigned order is the numeric order:
// positive floats get the sign bit flipped, negative floats get all bits
// inverted. -0 maps as 0, and every NaN to the all-zero word, below -Inf.
func sortableBits(f float64) uint64 {
	switch {
	case math.IsNaN(f):
		return 0
	case f == 0:
		return 1 << 63
	case f < 0:
		return ^math.Float64bits(f)
	default:
		return math.Float64bits(f) | 1<<63
	}
}

// sortableFloat inverts sortableBits.
func sortableFloat(bits uint64) float64 {
	switch {
	case bits == 0:
		return math.NaN()
	case bits&(1<<63) != 0:
		return math.Float64frombits(bits &^ (1 << 63))
	default:
		return math.Float64frombits(^bits)
	}
}

// appendSortableInt writes i as 8 big-endian bytes with the sign bit
// flipped, so unsigned byte order equals signed numeric order.
func appendSortableInt(dst []byte, i int64) []byte {
	return binary.BigEndian.AppendUint64(dst, uint64(i)^(1<<63))
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
