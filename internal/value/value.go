// Package value provides the typed value, tuple, and schema substrate shared
// by chronicles, relations, and persistent views.
//
// Values are small immutable tagged unions of two machine words, 16 bytes:
// a pointer word that is nil for NULL, points at a per-kind sentinel for an
// int, float, bool, chronon or the empty string, or points at a non-empty
// string's bytes; and a payload word (see Value). A tuple is a slice of
// values interpreted against a Schema. The package also provides total
// ordering and a compact binary encoding used by the write-ahead log and by
// view checkpoints.
//
// Compare values with Equal (or Compare), never with == or
// reflect.DeepEqual: equal strings at two addresses are one value.
package value

import (
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"time"
	"unsafe"
)

// Kind identifies the dynamic type of a Value.
type Kind uint8

// The supported value kinds. KindTime values carry a chronon: an absolute
// instant stored as nanoseconds since the Unix epoch, matching the paper's
// "temporal instant (or chronon) associated with each sequence number".
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
	KindTime
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	case KindTime:
		return "time"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// KindOf parses a kind name as written in the view-definition language.
func KindOf(name string) (Kind, bool) {
	switch name {
	case "int", "INT", "INTEGER", "integer", "bigint", "BIGINT":
		return KindInt, true
	case "float", "FLOAT", "double", "DOUBLE", "real", "REAL":
		return KindFloat, true
	case "string", "STRING", "text", "TEXT", "varchar", "VARCHAR":
		return KindString, true
	case "bool", "BOOL", "boolean", "BOOLEAN":
		return KindBool, true
	case "time", "TIME", "timestamp", "TIMESTAMP":
		return KindTime, true
	default:
		return KindNull, false
	}
}

// Value is an immutable typed scalar in two machine words. The zero Value is
// the SQL-style null.
//
// The pointer word p carries the kind: nil is NULL, the address of kinds[k]
// is kind k (for KindString, the empty string), and any other address is the
// data of a non-empty string. The payload word n holds the int64, the
// float64's bits, 0 or 1, the chronon's nanoseconds, or the string's length.
// This is log/slog.Value's string trick with the kind folded into the
// pointer, so a tuple of three values is 48 bytes.
//
// Because a string value holds its bytes' address, compare values with
// Equal, never with == (it does not compile) or reflect.DeepEqual (it would
// compare addresses). %#v prints the kind and the exact payload (GoString).
type Value struct {
	_ [0]func() // keeps == from compiling
	p unsafe.Pointer
	n uint64
}

// kinds holds one sentinel byte per kind: a non-null value that is not a
// non-empty string points at its kind's byte.
var kinds [KindTime + 1]byte

// scalar returns the value of kind k with payload n.
func scalar(k Kind, n uint64) Value { return Value{p: unsafe.Pointer(&kinds[k]), n: n} }

// is reports whether v is of kind k, for any k but KindNull and KindString.
func (v Value) is(k Kind) bool { return v.p == unsafe.Pointer(&kinds[k]) }

// Null returns the null value.
func Null() Value { return Value{} }

// Int returns an integer value.
func Int(v int64) Value { return scalar(KindInt, uint64(v)) }

// Float returns a floating-point value.
func Float(v float64) Value { return scalar(KindFloat, math.Float64bits(v)) }

// Str returns a string value. (Named Str rather than String to avoid
// clashing with the fmt.Stringer method on Value.)
func Str(v string) Value {
	if len(v) == 0 {
		return scalar(KindString, 0)
	}
	return Value{p: unsafe.Pointer(unsafe.StringData(v)), n: uint64(len(v))}
}

// Bool returns a boolean value.
func Bool(v bool) Value {
	var n uint64
	if v {
		n = 1
	}
	return scalar(KindBool, n)
}

// Time returns a chronon value for the given instant.
func Time(t time.Time) Value { return Chronon(t.UnixNano()) }

// Chronon returns a chronon value from raw nanoseconds since the epoch.
func Chronon(ns int64) Value { return scalar(KindTime, uint64(ns)) }

// Kind reports the value's dynamic kind.
func (v Value) Kind() Kind {
	if d := uintptr(v.p) - uintptr(unsafe.Pointer(&kinds)); d < uintptr(len(kinds)) {
		return Kind(d)
	}
	if v.p == nil {
		return KindNull
	}
	return KindString
}

// IsNull reports whether the value is null.
func (v Value) IsNull() bool { return v.p == nil }

// word returns the integer payload of an int, bool or chronon, and 0 for
// any other kind.
func (v Value) word() int64 {
	if v.is(KindInt) || v.is(KindTime) || v.is(KindBool) {
		return int64(v.n)
	}
	return 0
}

// AsInt returns the integer payload. It is valid only for KindInt.
func (v Value) AsInt() int64 { return v.word() }

// AsFloat returns the float payload. For KindInt values it converts.
func (v Value) AsFloat() float64 {
	switch {
	case v.is(KindInt):
		return float64(int64(v.n))
	case v.is(KindFloat):
		return math.Float64frombits(v.n)
	}
	return 0
}

// AsString returns the string payload. It is valid only for KindString.
func (v Value) AsString() string {
	if v.Kind() != KindString {
		return ""
	}
	return unsafe.String((*byte)(v.p), int(v.n))
}

// AsBool returns the boolean payload. It is valid only for KindBool.
func (v Value) AsBool() bool { return v.word() != 0 }

// AsTime returns the instant for a KindTime value.
func (v Value) AsTime() time.Time { return time.Unix(0, v.word()) }

// AsChronon returns the raw nanosecond payload for a KindTime value.
func (v Value) AsChronon() int64 { return v.word() }

// IsNumeric reports whether the value is an int or float.
func (v Value) IsNumeric() bool { return v.is(KindInt) || v.is(KindFloat) }

// String renders the value for display and for the CLI.
func (v Value) String() string {
	switch v.Kind() {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(int64(v.n), 10)
	case KindFloat:
		return strconv.FormatFloat(math.Float64frombits(v.n), 'g', -1, 64)
	case KindString:
		return v.AsString()
	case KindBool:
		if v.n != 0 {
			return "true"
		}
		return "false"
	case KindTime:
		return time.Unix(0, int64(v.n)).UTC().Format(time.RFC3339Nano)
	default:
		return "?"
	}
}

// GoString renders the value as the constructor call that makes it, so %#v
// shows a value's kind and exact payload rather than its string's address:
// a string is quoted byte for byte, and a NaN or infinite float is written by
// its bits.
func (v Value) GoString() string {
	switch v.Kind() {
	case KindNull:
		return "value.Null()"
	case KindInt:
		return "value.Int(" + strconv.FormatInt(int64(v.n), 10) + ")"
	case KindFloat:
		if f := math.Float64frombits(v.n); !math.IsNaN(f) && !math.IsInf(f, 0) {
			return "value.Float(" + strconv.FormatFloat(f, 'g', -1, 64) + ")"
		}
		return fmt.Sprintf("value.Float(math.Float64frombits(%#016x))", v.n)
	case KindString:
		return "value.Str(" + strconv.Quote(v.AsString()) + ")"
	case KindBool:
		return "value.Bool(" + strconv.FormatBool(v.n != 0) + ")"
	default:
		return "value.Chronon(" + strconv.FormatInt(int64(v.n), 10) + ")"
	}
}

// Compare totally orders two values. Nulls sort first; mismatched,
// non-numeric kinds order by kind tag so that the ordering stays total.
// Int and float values compare by their exact numeric values — an int is
// never rounded to a float64 first, so Int(2⁵³+1) is above Float(2⁵³) —
// and NaN sorts below every other number and equals itself.
func Compare(a, b Value) int {
	if a.p == nil || b.p == nil {
		return int(boolToInt(b.p == nil)) - int(boolToInt(a.p == nil))
	}
	if a.IsNumeric() && b.IsNumeric() {
		switch {
		case a.is(KindInt) && b.is(KindInt):
			return cmpInt(int64(a.n), int64(b.n))
		case a.is(KindFloat) && b.is(KindFloat):
			return cmpFloat(math.Float64frombits(a.n), math.Float64frombits(b.n))
		case a.is(KindFloat):
			return cmpFloatInt(math.Float64frombits(a.n), int64(b.n))
		default:
			return -cmpFloatInt(math.Float64frombits(b.n), int64(a.n))
		}
	}
	ka, kb := a.Kind(), b.Kind()
	if ka != kb {
		return cmpInt(int64(ka), int64(kb))
	}
	switch ka {
	case KindString:
		as, bs := a.AsString(), b.AsString()
		switch {
		case as < bs:
			return -1
		case as > bs:
			return 1
		}
		return 0
	case KindBool, KindTime:
		return cmpInt(int64(a.n), int64(b.n))
	default:
		return 0
	}
}

// Equal reports whether two values compare equal under Compare.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// hashSeed is the starting seed of Schema.Fingerprint's FNV-1a hash.
const hashSeed uint64 = 14695981039346656037 // FNV-1a offset basis

func fnvByte(h uint64, b byte) uint64 {
	h ^= uint64(b)
	h *= 1099511628211
	return h
}

func fnvUint64(h uint64, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(v))
		v >>= 8
	}
	return h
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// cmpFloat orders floats numerically, with NaN below every other float and
// equal to itself (-0 and +0 are equal).
func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	}
	return cmpInt(boolToInt(!math.IsNaN(a)), boolToInt(!math.IsNaN(b)))
}

// cmpFloatInt compares a float with an int exactly: within the int64 range
// by integral part, then by the fraction's sign.
func cmpFloatInt(f float64, i int64) int {
	switch {
	case math.IsNaN(f), f < -0x1p63: // below every int64
		return -1
	case f >= 0x1p63:
		return 1
	}
	t := math.Trunc(f)
	if c := cmpInt(int64(t), i); c != 0 {
		return c
	}
	return cmpFloat(f, t)
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// fnvString is a helper for package-internal string hashing.
func fnvString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}
