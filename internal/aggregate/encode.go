package aggregate

import (
	"encoding/binary"
	"fmt"
	"math"

	"chronicledb/internal/value"
)

// Binary serialization of aggregation states, used by view checkpoints:
// since chronicles are not retained, a view's aggregate states are the only
// durable record of past activity and must round-trip exactly.

// AppendState appends the encoding of s, a state of function f, to dst.
func AppendState(dst []byte, f Func, s State) []byte {
	switch f {
	case Count:
		return binary.LittleEndian.AppendUint64(dst, uint64(s.n))
	case Sum, Avg:
		dst = append(dst, encodeBool(s.isFloat), encodeBool(s.seen))
		dst = binary.LittleEndian.AppendUint64(dst, s.w)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(s.f))
		if f == Avg {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(s.n))
		}
		return dst
	case Min, Max, First, Last:
		dst = append(dst, encodeBool(s.seen))
		return value.AppendValue(dst, s.held())
	case Var, Stddev:
		dst = append(dst, encodeBool(s.sqrt))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(s.n))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(s.f))
		return binary.LittleEndian.AppendUint64(dst, s.w)
	default:
		panic(fmt.Sprintf("aggregate: cannot encode state of function %d", f))
	}
}

// DecodeState decodes one state for function f from the front of b,
// returning the state and bytes consumed.
func DecodeState(f Func, b []byte) (State, int, error) {
	s := State{fn: f}
	switch f {
	case Count:
		if len(b) < 8 {
			return State{}, 0, fmt.Errorf("aggregate: truncated count state")
		}
		s.n = int64(binary.LittleEndian.Uint64(b))
		return s, 8, nil
	case Sum, Avg:
		size, name := 18, "sum"
		if f == Avg {
			size, name = 26, "avg"
		}
		if len(b) < size {
			return State{}, 0, fmt.Errorf("aggregate: truncated %s state", name)
		}
		s.isFloat, s.seen = b[0] != 0, b[1] != 0
		s.w = binary.LittleEndian.Uint64(b[2:])
		s.f = math.Float64frombits(binary.LittleEndian.Uint64(b[10:]))
		if f == Avg {
			s.n = int64(binary.LittleEndian.Uint64(b[18:]))
		}
		return s, size, nil
	case Min, Max, First, Last:
		if len(b) < 1 {
			return State{}, 0, fmt.Errorf("aggregate: truncated state header")
		}
		v, n, err := value.DecodeValue(b[1:])
		if err != nil {
			return State{}, 0, err
		}
		s.hold(v)
		s.seen = b[0] != 0
		return s, 1 + n, nil
	case Var, Stddev:
		if len(b) < 25 {
			return State{}, 0, fmt.Errorf("aggregate: truncated moment state")
		}
		s.sqrt = b[0] != 0
		s.n = int64(binary.LittleEndian.Uint64(b[1:]))
		s.f = math.Float64frombits(binary.LittleEndian.Uint64(b[9:]))
		s.w = binary.LittleEndian.Uint64(b[17:])
		return s, 25, nil
	default:
		return State{}, 0, fmt.Errorf("aggregate: unknown function %d", f)
	}
}

func encodeBool(b bool) byte {
	if b {
		return 1
	}
	return 0
}
