// Package value provides the typed value, tuple, and schema substrate shared
// by chronicles, relations, and persistent views.
//
// Values are small immutable tagged unions. A tuple is a slice of values
// interpreted against a Schema. The package also provides total ordering
// and a compact binary encoding used by the write-ahead log and by view
// checkpoints.
package value

import (
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"time"
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

// Value is an immutable typed scalar. The zero Value is the SQL-style null.
type Value struct {
	kind Kind
	i    int64 // payload for KindInt, KindBool (0/1), KindTime (unix nanos)
	f    float64
	s    string
}

// Null returns the null value.
func Null() Value { return Value{} }

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// Float returns a floating-point value.
func Float(v float64) Value { return Value{kind: KindFloat, f: v} }

// Str returns a string value. (Named Str rather than String to avoid
// clashing with the fmt.Stringer method on Value.)
func Str(v string) Value { return Value{kind: KindString, s: v} }

// Bool returns a boolean value.
func Bool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{kind: KindBool, i: i}
}

// Time returns a chronon value for the given instant.
func Time(t time.Time) Value { return Value{kind: KindTime, i: t.UnixNano()} }

// Chronon returns a chronon value from raw nanoseconds since the epoch.
func Chronon(ns int64) Value { return Value{kind: KindTime, i: ns} }

// Kind reports the value's dynamic kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is null.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsInt returns the integer payload. It is valid only for KindInt.
func (v Value) AsInt() int64 { return v.i }

// AsFloat returns the float payload. For KindInt values it converts.
func (v Value) AsFloat() float64 {
	if v.kind == KindInt {
		return float64(v.i)
	}
	return v.f
}

// AsString returns the string payload. It is valid only for KindString.
func (v Value) AsString() string { return v.s }

// AsBool returns the boolean payload. It is valid only for KindBool.
func (v Value) AsBool() bool { return v.i != 0 }

// AsTime returns the instant for a KindTime value.
func (v Value) AsTime() time.Time { return time.Unix(0, v.i) }

// AsChronon returns the raw nanosecond payload for a KindTime value.
func (v Value) AsChronon() int64 { return v.i }

// IsNumeric reports whether the value is an int or float.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// String renders the value for display and for the CLI.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return v.s
	case KindBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	case KindTime:
		return time.Unix(0, v.i).UTC().Format(time.RFC3339Nano)
	default:
		return "?"
	}
}

// Compare totally orders two values. Nulls sort first; mismatched,
// non-numeric kinds order by kind tag so that the ordering stays total.
// Int and float values compare by their exact numeric values — an int is
// never rounded to a float64 first, so Int(2⁵³+1) is above Float(2⁵³) —
// and NaN sorts below every other number and equals itself.
func Compare(a, b Value) int {
	if a.kind == KindNull || b.kind == KindNull {
		return int(boolToInt(b.kind == KindNull)) - int(boolToInt(a.kind == KindNull))
	}
	if a.IsNumeric() && b.IsNumeric() {
		switch {
		case a.kind == KindInt && b.kind == KindInt:
			return cmpInt(a.i, b.i)
		case a.kind == KindFloat && b.kind == KindFloat:
			return cmpFloat(a.f, b.f)
		case a.kind == KindFloat:
			return cmpFloatInt(a.f, b.i)
		default:
			return -cmpFloatInt(b.f, a.i)
		}
	}
	if a.kind != b.kind {
		return cmpInt(int64(a.kind), int64(b.kind))
	}
	switch a.kind {
	case KindString:
		switch {
		case a.s < b.s:
			return -1
		case a.s > b.s:
			return 1
		}
		return 0
	case KindBool, KindTime:
		return cmpInt(a.i, b.i)
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
