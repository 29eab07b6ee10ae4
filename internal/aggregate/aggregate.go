// Package aggregate implements the incrementally computable aggregation
// functions of the chronicle paper.
//
// The paper (Preliminaries) considers aggregation functions that "can be
// computed in time O(n) over a group of size n, and can be computed
// incrementally in time O(1) over an increment of size 1", naming MIN, MAX,
// SUM and COUNT, and functions "decomposable into incremental computation
// functions" (AVG = SUM/COUNT). Because chronicles are insert-only, MIN and
// MAX are incrementally maintainable without keeping group members.
package aggregate

import (
	"fmt"
	"math"

	"chronicledb/internal/value"
)

// Func identifies an aggregation function.
type Func uint8

// The supported aggregation functions.
const (
	Count Func = iota
	Sum
	Min
	Max
	Avg
	First
	Last
	Var
	Stddev
)

// String returns the SQL spelling of the function.
func (f Func) String() string {
	switch f {
	case Count:
		return "COUNT"
	case Sum:
		return "SUM"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	case Avg:
		return "AVG"
	case First:
		return "FIRST"
	case Last:
		return "LAST"
	case Var:
		return "VAR"
	case Stddev:
		return "STDDEV"
	default:
		return fmt.Sprintf("func(%d)", uint8(f))
	}
}

// FuncOf parses an aggregation function name.
func FuncOf(name string) (Func, bool) {
	switch name {
	case "COUNT", "count":
		return Count, true
	case "SUM", "sum":
		return Sum, true
	case "MIN", "min":
		return Min, true
	case "MAX", "max":
		return Max, true
	case "AVG", "avg":
		return Avg, true
	case "FIRST", "first":
		return First, true
	case "LAST", "last":
		return Last, true
	case "VAR", "var", "VARIANCE", "variance":
		return Var, true
	case "STDDEV", "stddev":
		return Stddev, true
	default:
		return Count, false
	}
}

// Spec binds an aggregation function to an input column and an output name.
// COUNT ignores its column (use any index; conventionally 0, or -1 to count
// tuples regardless of arity).
type Spec struct {
	Func Func
	Col  int
	Name string
}

// ResultKind returns the value kind the aggregate produces given the kind
// of its input column.
func (s Spec) ResultKind(in value.Kind) value.Kind {
	switch s.Func {
	case Count:
		return value.KindInt
	case Avg, Var, Stddev:
		return value.KindFloat
	case Sum:
		if in == value.KindFloat {
			return value.KindFloat
		}
		return value.KindInt
	default:
		return in
	}
}

// String renders the spec as "FUNC(col) AS name" using the given schema.
func (s Spec) String(schema *value.Schema) string {
	col := fmt.Sprintf("$%d", s.Col)
	if s.Func == Count && s.Col < 0 {
		col = "*"
	} else if schema != nil && s.Col >= 0 && s.Col < schema.Len() {
		col = schema.Col(s.Col).Name
	}
	return fmt.Sprintf("%s(%s) AS %s", s.Func, col, s.Name)
}

// State is the per-group running state of one aggregation function: one
// flat value, stepped by a switch on its function. Step folds in one input
// value in O(1); Merge folds in another state of the same function (the
// "decomposable" requirement); Result extracts the current aggregate.
//
// Every field is an immutable scalar or a pointer to one, so assignment —
// and copy over a []State — is a deep copy, and a state vector is one block
// of memory. The fields are shared between functions to keep that block
// small:
//
//	COUNT                n
//	SUM                  seen, isFloat, w (integer sum), f (float sum)
//	AVG                  SUM's fields over the non-null inputs, n of them
//	MIN MAX FIRST LAST   seen, and the held value as kind + w | f | *str
//	VAR STDDEV           sqrt, n, f (Σx), w (Σx² as IEEE-754 bits)
//
// A held string is boxed: inline, its two words would be carried by every
// state of every function, and the numeric aggregates are the common case.
// The box is never written after it is made (a new value gets a new box), so
// copies of a state may share it.
type State struct {
	fn      Func
	seen    bool
	isFloat bool // SUM, AVG: a float input was seen; the sum continues in f
	sqrt    bool // VAR, STDDEV: report the standard deviation
	kind    value.Kind
	n       int64
	w       uint64
	f       float64
	str     *string
}

// NewState returns a fresh state for the function.
func NewState(f Func) State {
	if f > Stddev {
		panic(fmt.Sprintf("aggregate: unknown function %d", f))
	}
	return State{fn: f, sqrt: f == Stddev}
}

// NewStates returns fresh states for each spec.
func NewStates(specs []Spec) []State {
	out := make([]State, len(specs))
	InitStates(out, specs)
	return out
}

// InitStates resets dst, which the caller sized to len(specs), to fresh
// states.
func InitStates(dst []State, specs []Spec) {
	for i, s := range specs {
		dst[i] = NewState(s.Func)
	}
}

// hold makes v the value the state holds.
func (s *State) hold(v value.Value) {
	s.kind, s.w, s.f, s.str = v.Kind(), 0, 0, nil
	switch s.kind {
	case value.KindFloat:
		s.f = v.AsFloat()
	case value.KindString:
		str := v.AsString()
		s.str = &str
	default:
		s.w = uint64(v.AsInt())
	}
}

// held returns the value the state holds.
func (s *State) held() value.Value {
	switch s.kind {
	case value.KindInt:
		return value.Int(int64(s.w))
	case value.KindFloat:
		return value.Float(s.f)
	case value.KindString:
		return value.Str(*s.str)
	case value.KindBool:
		return value.Bool(s.w != 0)
	case value.KindTime:
		return value.Chronon(int64(s.w))
	default:
		return value.Null()
	}
}

// Step folds one input value into the state.
func (s *State) Step(v value.Value) {
	if s.fn == Count {
		s.n++
		return
	}
	if v.IsNull() {
		return
	}
	switch s.fn {
	case Sum:
		s.add(v)
	case Avg:
		s.add(v)
		s.n++
	case Min:
		if !s.seen || value.Compare(v, s.held()) < 0 {
			s.hold(v)
			s.seen = true
		}
	case Max:
		if !s.seen || value.Compare(v, s.held()) > 0 {
			s.hold(v)
			s.seen = true
		}
	case First:
		// Chronicle deltas arrive in sequence order, so the first non-null
		// value stepped is the earliest in the group.
		if !s.seen {
			s.hold(v)
			s.seen = true
		}
	case Last:
		s.hold(v)
		s.seen = true
	case Var, Stddev:
		x := v.AsFloat()
		s.n++
		s.f += x
		s.w = math.Float64bits(math.Float64frombits(s.w) + x*x)
	}
}

// add is SUM's step: integers accumulate exactly, and the sum switches to
// float arithmetic as soon as any float input is seen.
func (s *State) add(v value.Value) {
	s.seen = true
	switch {
	case v.Kind() == value.KindFloat && !s.isFloat:
		s.f = float64(int64(s.w)) + v.AsFloat()
		s.isFloat = true
	case s.isFloat:
		s.f += v.AsFloat()
	default:
		s.w = uint64(int64(s.w) + v.AsInt())
	}
}

// Merge folds o, a state of the same function over rows that follow the
// receiver's in sequence order, into the receiver.
func (s *State) Merge(o State) {
	switch s.fn {
	case Count:
		s.n += o.n
	case Sum, Avg:
		s.n += o.n
		if !o.seen {
			return
		}
		s.seen = true
		switch {
		case o.isFloat || s.isFloat:
			if !s.isFloat {
				s.f = float64(int64(s.w))
				s.isFloat = true
			}
			if o.isFloat {
				s.f += o.f
			} else {
				s.f += float64(int64(o.w))
			}
		default:
			s.w = uint64(int64(s.w) + int64(o.w))
		}
	case Min, Max:
		if o.seen {
			s.Step(o.held())
		}
	case First, Last:
		// The receiver precedes o in sequence order: its FIRST wins if set,
		// its LAST loses if o's is.
		if o.seen && (s.fn == Last || !s.seen) {
			s.hold(o.held())
			s.seen = true
		}
	case Var, Stddev:
		s.n += o.n
		s.f += o.f
		s.w = math.Float64bits(math.Float64frombits(s.w) + math.Float64frombits(o.w))
	}
}

// Result extracts the current aggregate. AVG and VAR show the paper's
// decomposition requirement: neither is incrementally computable from its
// own result, but each derives from functions that are — SUM and COUNT,
// and (COUNT, Σx, Σx²).
func (s State) Result() value.Value {
	switch s.fn {
	case Count:
		return value.Int(s.n)
	case Sum:
		return s.sum()
	case Avg:
		if s.n == 0 {
			return value.Null()
		}
		return value.Float(s.sum().AsFloat() / float64(s.n))
	case Var, Stddev:
		if s.n == 0 {
			return value.Null()
		}
		mean := s.f / float64(s.n)
		variance := math.Float64frombits(s.w)/float64(s.n) - mean*mean
		if variance < 0 {
			variance = 0 // numeric noise near zero variance
		}
		if s.sqrt {
			return value.Float(math.Sqrt(variance))
		}
		return value.Float(variance)
	default:
		if !s.seen {
			return value.Null()
		}
		return s.held()
	}
}

func (s *State) sum() value.Value {
	switch {
	case !s.seen:
		return value.Null()
	case s.isFloat:
		return value.Float(s.f)
	default:
		return value.Int(int64(s.w))
	}
}

// Apply folds the value at each spec's column of t into the matching state.
// It is the single O(1)-per-tuple step at the heart of view maintenance.
func Apply(states []State, specs []Spec, t value.Tuple) {
	for i, sp := range specs {
		if sp.Func == Count && sp.Col < 0 {
			states[i].Step(value.Int(1))
			continue
		}
		states[i].Step(t[sp.Col])
	}
}

// Results extracts the current value of each state.
func Results(states []State) value.Tuple {
	out := make(value.Tuple, len(states))
	for i := range states {
		out[i] = states[i].Result()
	}
	return out
}
