package value

import (
	"encoding/binary"
	"fmt"
)

// Binary encoding of values and tuples, used by the write-ahead log and by
// view checkpoints. The format is:
//
//	value:  kind byte, then a kind-specific payload
//	        int/time: 8-byte little-endian two's complement
//	        float:    8-byte little-endian IEEE-754 bits
//	        bool:     1 byte
//	        string:   uvarint length + bytes
//	        null:     no payload
//	tuple:  uvarint column count, then each value
//
// The encoding is self-delimiting, so records can be concatenated.
//
// Every decoder reads a []byte or a string. A string cell decoded from a
// string is a substring of it: a relation row stored as one string is read
// in place, its cells sharing the row's bytes.

// AppendValue appends the encoding of v to dst and returns the extended slice.
func AppendValue(dst []byte, v Value) []byte {
	k := v.Kind()
	dst = append(dst, byte(k))
	switch k {
	case KindNull:
	case KindInt, KindTime, KindFloat:
		dst = binary.LittleEndian.AppendUint64(dst, v.n) // a float's n is its bits
	case KindBool:
		dst = append(dst, byte(v.n))
	case KindString:
		dst = binary.AppendUvarint(dst, v.n)
		dst = append(dst, v.AsString()...)
	}
	return dst
}

// DecodeValue decodes one value from the front of b, returning the value and
// the number of bytes consumed.
func DecodeValue(b []byte) (Value, int, error) { return decodeValue(b) }

func decodeValue[S string | []byte](b S) (Value, int, error) {
	if len(b) == 0 {
		return Value{}, 0, fmt.Errorf("value: empty buffer")
	}
	k := Kind(b[0])
	rest := b[1:]
	switch k {
	case KindNull:
		return Null(), 1, nil
	case KindInt, KindTime, KindFloat:
		if len(rest) < 8 {
			return Value{}, 0, fmt.Errorf("value: truncated %s payload", k)
		}
		return scalar(k, le64(rest)), 9, nil
	case KindBool:
		if len(rest) < 1 {
			return Value{}, 0, fmt.Errorf("value: truncated bool payload")
		}
		return Bool(rest[0] != 0), 2, nil
	case KindString:
		n, sz := uvarint(rest)
		if sz <= 0 {
			return Value{}, 0, fmt.Errorf("value: bad string length")
		}
		if uint64(len(rest)-sz) < n {
			return Value{}, 0, fmt.Errorf("value: truncated string payload")
		}
		return Str(string(rest[sz : sz+int(n)])), 1 + sz + int(n), nil
	default:
		return Value{}, 0, fmt.Errorf("value: unknown kind tag %d", b[0])
	}
}

// AppendTuple appends the encoding of t to dst and returns the extended slice.
func AppendTuple(dst []byte, t Tuple) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(t)))
	for _, v := range t {
		dst = AppendValue(dst, v)
	}
	return dst
}

// DecodeTuple decodes one tuple from the front of b, returning the tuple and
// the number of bytes consumed.
func DecodeTuple(b []byte) (Tuple, int, error) { return decodeTuple(nil, b) }

// DecodeTupleString appends the values of the tuple encoded at the front of
// s to dst and returns the extended tuple and the bytes consumed. Its string
// cells are substrings of s, so decoding into a dst with room allocates
// nothing.
func DecodeTupleString(dst Tuple, s string) (Tuple, int, error) { return decodeTuple(dst, s) }

func decodeTuple[S string | []byte](dst Tuple, b S) (Tuple, int, error) {
	n, sz := uvarint(b)
	if sz <= 0 {
		return dst, 0, fmt.Errorf("value: bad tuple arity")
	}
	if n > uint64(len(b)) {
		// Each value takes at least one byte, so arity can never exceed the
		// remaining buffer; this rejects corrupt headers early.
		return dst, 0, fmt.Errorf("value: tuple arity %d exceeds buffer", n)
	}
	if dst == nil {
		dst = make(Tuple, 0, n)
	}
	start, off := len(dst), sz
	for i := 0; i < int(n); i++ {
		v, used, err := decodeValue(b[off:])
		if err != nil {
			return dst[:start], 0, fmt.Errorf("value: column %d: %w", i, err)
		}
		dst = append(dst, v)
		off += used
	}
	return dst, off, nil
}

// uvarint is binary.Uvarint over a []byte or a string.
func uvarint[S string | []byte](b S) (uint64, int) {
	var x uint64
	var s uint
	for i := 0; i < len(b); i++ {
		if i == binary.MaxVarintLen64 {
			return 0, -(i + 1) // overflow
		}
		c := b[i]
		if c < 0x80 {
			if i == binary.MaxVarintLen64-1 && c > 1 {
				return 0, -(i + 1) // overflow
			}
			return x | uint64(c)<<s, i + 1
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	return 0, 0
}

// le64 is binary.LittleEndian.Uint64 over a []byte or a string.
func le64[S string | []byte](b S) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}
