package aggregate

import (
	"encoding/binary"
	"fmt"

	"chronicledb/internal/value"
)

// Binary serialization of aggregation states, used by view checkpoints:
// since chronicles are not retained, a view's aggregate states are the only
// durable record of past activity and must round-trip exactly.
//
// Each state is encoded on its own, in spec order, in a per-function format
// that view images depend on:
//
//	COUNT                 n (8 bytes)
//	SUM                   isFloat, seen, integer sum (8), float sum (8)
//	AVG                   SUM's, then n (8)
//	MIN MAX FIRST LAST    seen, the held value (value.AppendValue; NULL unseen)
//	VAR STDDEV            sqrt, n (8), Σx (8), Σx² (8)
//
// The group's row count is not among them: it is the caller's to keep.

// MismatchError reports an encoded state the layout cannot hold: bytes that
// are well formed but say something the layout's types rule out — a SUM that
// went float over an INT column, a held value of another kind, a COUNT that
// disagrees with the group's row count.
type MismatchError struct {
	Spec   Spec
	Kind   value.Kind // the spec's input column kind
	Reason string
}

func (e *MismatchError) Error() string {
	return fmt.Sprintf("aggregate: %s over %s cannot hold a state that %s", e.Spec.Func, e.Kind, e.Reason)
}

// AppendStates appends the encoding of g's states to dst.
func (l *Layout) AppendStates(dst []byte, g Group) []byte {
	for i := range l.ops {
		dst = l.ops[i].appendState(dst, g)
	}
	return dst
}

// AppendStatesOf appends the encoding of g's states at the indices at, in
// that order. A state's encoding does not depend on where its words sit, so
// for the indices Union returned for one of its layouts these are the bytes
// that layout's AppendStates writes for the same rows.
func (l *Layout) AppendStatesOf(dst []byte, g Group, at []int) []byte {
	for _, i := range at {
		dst = l.ops[i].appendState(dst, g)
	}
	return dst
}

// appendState appends the encoding of o's state in g to dst.
func (o *op) appendState(dst []byte, g Group) []byte {
	w := g.Words
	switch o.code {
	case cCount:
		dst = binary.LittleEndian.AppendUint64(dst, g.Rows())
	case cSumInt:
		dst = appendSum(dst, false, o.seen(w), w[o.at], 0)
	case cSumFloat:
		dst = appendSum(dst, o.seen(w), o.seen(w), 0, w[o.at])
	case cAvgInt, cAvgFloat:
		n := w[o.at+1]
		if o.code == cAvgInt {
			dst = appendSum(dst, false, n != 0, w[o.at], 0)
		} else {
			dst = appendSum(dst, n != 0, n != 0, 0, w[o.at])
		}
		dst = binary.LittleEndian.AppendUint64(dst, n)
	case cMoments:
		dst = append(dst, flag(o.sqrt))
		for _, x := range w[o.at : o.at+3] {
			dst = binary.LittleEndian.AppendUint64(dst, x)
		}
	default:
		switch {
		case !o.seen(w):
			dst = append(dst, 0, byte(value.KindNull))
		case o.str:
			dst = value.AppendValue(append(dst, 1), value.Str(g.Strs[o.at]))
		default:
			dst = value.AppendValue(append(dst, 1), held(o.kind, w[o.at]))
		}
	}
	return dst
}

func appendSum(dst []byte, isFloat, seen bool, sum, fsum uint64) []byte {
	dst = append(dst, flag(isFloat), flag(seen))
	dst = binary.LittleEndian.AppendUint64(dst, sum)
	return binary.LittleEndian.AppendUint64(dst, fsum)
}

func flag(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// DecodeStates decodes a group's states from the front of b into g, a group
// of the layout that rows rows have reached, and returns the bytes consumed.
// It accepts exactly what AppendStates writes: malformed or truncated bytes
// are an error, and so — a *MismatchError — is a well-formed state the layout
// cannot hold, and so is a row count past maxRows. On error g is left partly
// written.
func (l *Layout) DecodeStates(g Group, rows uint64, b []byte) (int, error) {
	if rows > maxRows {
		return 0, fmt.Errorf("aggregate: a group of %d rows: at most %d fit", rows, uint64(maxRows))
	}
	g.Reset()
	w := g.Words
	w[0] = rows
	off := 0
	for i := range l.ops {
		o := &l.ops[i]
		n, err := o.decode(g, rows, b[off:], l.specs[i])
		if err != nil {
			return 0, fmt.Errorf("state %d (%s): %w", i, l.specs[i].Func, err)
		}
		off += n
	}
	return off, nil
}

// decode decodes one state, of spec s, into g and returns the bytes it took.
func (o *op) decode(g Group, rows uint64, b []byte, s Spec) (int, error) {
	w := g.Words
	mismatch := func(reason string) error {
		return &MismatchError{Spec: s, Kind: o.kind, Reason: reason}
	}
	switch o.code {
	case cCount:
		if len(b) < 8 {
			return 0, fmt.Errorf("truncated")
		}
		if binary.LittleEndian.Uint64(b) != rows {
			return 0, mismatch(fmt.Sprintf("counts %d rows of a group of %d", binary.LittleEndian.Uint64(b), rows))
		}
		return 8, nil
	case cSumInt, cSumFloat, cAvgInt, cAvgFloat:
		size := 18
		if o.code == cAvgInt || o.code == cAvgFloat {
			size = 26
		}
		if len(b) < size {
			return 0, fmt.Errorf("truncated")
		}
		if b[0] > 1 || b[1] > 1 {
			return 0, fmt.Errorf("bad flag")
		}
		isFloat, seen := b[0] == 1, b[1] == 1
		sum, fsum := binary.LittleEndian.Uint64(b[2:]), binary.LittleEndian.Uint64(b[10:])
		float := o.code == cSumFloat || o.code == cAvgFloat
		switch {
		case !float && (isFloat || fsum != 0):
			return 0, mismatch("went float")
		case float && (isFloat != seen || sum != 0):
			return 0, mismatch("summed integers")
		}
		if float {
			sum = fsum
		}
		w[o.at] = sum
		if size == 18 {
			if seen {
				w[o.mask] |= o.bit
			}
			return size, nil
		}
		n := binary.LittleEndian.Uint64(b[18:])
		if seen != (n != 0) {
			return 0, mismatch("is seen and averages no inputs, or the reverse")
		}
		w[o.at+1] = n
		return size, nil
	case cMoments:
		if len(b) < 25 {
			return 0, fmt.Errorf("truncated")
		}
		if b[0] != flag(o.sqrt) {
			return 0, mismatch("is the other of VAR and STDDEV")
		}
		for j := range 3 {
			w[o.at+j] = binary.LittleEndian.Uint64(b[1+8*j:])
		}
		return 25, nil
	}
	// MIN MAX FIRST LAST: seen, then the value. The payload is read here, not
	// by value.DecodeValue, so that only the canonical form is accepted.
	if len(b) < 2 {
		return 0, fmt.Errorf("truncated")
	}
	if b[0] > 1 {
		return 0, fmt.Errorf("bad flag")
	}
	k := value.Kind(b[1])
	if b[0] == 0 {
		if k != value.KindNull {
			return 0, fmt.Errorf("unseen state holds a value")
		}
		return 2, nil
	}
	if k != o.kind {
		return 0, mismatch(fmt.Sprintf("holds a %s", k))
	}
	w[o.mask] |= o.bit
	p := b[2:]
	switch k {
	case value.KindBool:
		if len(p) < 1 || p[0] > 1 {
			return 0, fmt.Errorf("bad bool")
		}
		w[o.at] = uint64(p[0])
		return 3, nil
	case value.KindString:
		n, sz := binary.Uvarint(p)
		if sz <= 0 || sz != uvarintLen(n) || n > uint64(len(p)-sz) {
			return 0, fmt.Errorf("bad string")
		}
		g.Strs[o.at] = string(p[sz : sz+int(n)])
		return 2 + sz + int(n), nil
	default:
		if len(p) < 8 {
			return 0, fmt.Errorf("truncated")
		}
		w[o.at] = binary.LittleEndian.Uint64(p)
		return 10, nil
	}
}

func uvarintLen(n uint64) int {
	var buf [binary.MaxVarintLen64]byte
	return binary.PutUvarint(buf[:], n)
}
