// Package aggregate implements the incrementally computable aggregation
// functions of the chronicle paper.
//
// The paper (Preliminaries) considers aggregation functions that "can be
// computed in time O(n) over a group of size n, and can be computed
// incrementally in time O(1) over an increment of size 1", naming MIN, MAX,
// SUM and COUNT, and functions "decomposable into incremental computation
// functions" (AVG = SUM/COUNT). Because chronicles are insert-only, MIN and
// MAX are incrementally maintainable without keeping group members.
//
// A list of aggregations over typed input columns compiles into one Layout,
// and a group's states under it are a run of words — a Group. The layout
// fixes, once per view, what no group needs to repeat: which function, over
// which kind, in which words. Word 0 of every group counts its rows in its
// low 56 bits (Group.Rows), and its top byte holds the seen bits of the first
// eight states that can be empty while the group is not (their inputs all
// NULL so far); a ninth such state spills to a mask word after word 0, and
// every 64 more to another. Then each aggregation takes its own words:
//
//	COUNT                 none: word 0 is the count
//	SUM                   the sum, an int or a float by the column kind
//	AVG                   the sum, then n (the non-null inputs)
//	VAR STDDEV            n, Σx, Σx² (floats)
//	MIN MAX FIRST LAST    the held value: an int, float, bool or chronon;
//	                      over a STRING column none, a string slot instead
//
// SUM, MIN, MAX, FIRST and LAST keep a seen bit; AVG, VAR and STDDEV read
// theirs off n. The words hold no pointers, so the collector never follows
// one; the string-held values sit beside them, in Group.Strs, and a
// numeric-only layout has none.
package aggregate

import (
	"fmt"
	"math"
	"slices"

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

// Group is one group's states under a Layout: Words, Layout.Words of them,
// and Strs, the string-held values, Layout.Strs of them. All zero is the
// empty group, so fresh memory needs no set-up, and copying both slices is a
// deep copy (a held string is never written, only replaced).
type Group struct {
	Words []uint64
	Strs  []string
}

// Reset makes g the empty group.
func (g Group) Reset() {
	clear(g.Words)
	clear(g.Strs)
}

// countBits is how many low bits of word 0 count the group's rows; the
// byte above them holds seen bits (see NewLayout).
const countBits = 56

// maxRows is the most rows a group can count: one more would carry into the
// seen bits. DecodeStates refuses a count past it; a fold adds one per
// chronicle row, and no chronicle gets near 2⁵⁶ rows.
const maxRows = 1<<countBits - 1

// Rows returns the rows folded into g: word 0's count, without the seen
// bits it shares the word with. It is how anything outside the package reads
// word 0.
func (g Group) Rows() uint64 { return g.Words[0] & maxRows }

// CopyFrom makes g a copy of src, a group of the same layout.
func (g Group) CopyFrom(src Group) {
	copy(g.Words, src.Words)
	copy(g.Strs, src.Strs)
}

// code is what an aggregation's words hold and how a step changes them,
// chosen once per spec when the layout is compiled.
type code uint8

const (
	cCount code = iota
	cSumInt
	cSumFloat
	cAvgInt
	cAvgFloat
	cMoments // VAR, STDDEV
	cMin
	cMax
	cFirst
	cLast
)

// op is one compiled aggregation.
type op struct {
	code code
	col  int        // input column; -1 for COUNT(*)
	kind value.Kind // input column kind
	at   int        // first word, or the string slot of a string-held value
	mask int        // the seen bit's word: 0, the count word, for the first eight
	bit  uint64     // the seen bit in it; 0 when the state keeps none
	str  bool       // MIN MAX FIRST LAST over STRING: the value is held in Strs[at]
	sqrt bool       // STDDEV
}

// Layout is a list of aggregations compiled against the kinds of their input
// columns: where each one's state lives in a group's words and the operation
// that steps it. It is immutable and may be shared.
type Layout struct {
	specs []Spec
	ops   []op // one per spec
	words int
	strs  int
}

// NewLayout compiles specs; kinds[i] is the kind of spec i's input column
// (COUNT ignores it). Numeric functions need an INT or FLOAT column, and MIN,
// MAX, FIRST and LAST a typed one.
func NewLayout(specs []Spec, kinds []value.Kind) (*Layout, error) {
	if len(kinds) != len(specs) {
		return nil, fmt.Errorf("aggregate: %d specs, %d input kinds", len(specs), len(kinds))
	}
	l := &Layout{specs: append([]Spec(nil), specs...), ops: make([]op, len(specs)), words: 1}
	seen := 0
	for i, s := range specs {
		o := op{col: s.Col, kind: kinds[i]}
		numeric := o.kind == value.KindInt || o.kind == value.KindFloat
		float := o.kind == value.KindFloat
		switch s.Func {
		case Count:
			o.code = cCount
		case Sum, Avg, Var, Stddev:
			if !numeric {
				return nil, fmt.Errorf("aggregate: %s needs a numeric column, not %s", s.Func, o.kind)
			}
			switch {
			case s.Func == Sum && float:
				o.code = cSumFloat
			case s.Func == Sum:
				o.code = cSumInt
			case s.Func == Avg && float:
				o.code = cAvgFloat
			case s.Func == Avg:
				o.code = cAvgInt
			default:
				o.code, o.sqrt = cMoments, s.Func == Stddev
			}
		case Min, Max, First, Last:
			switch o.kind {
			case value.KindInt, value.KindFloat, value.KindBool, value.KindTime, value.KindString:
			default:
				return nil, fmt.Errorf("aggregate: %s needs a typed column, not %s", s.Func, o.kind)
			}
			o.code = [...]code{Min: cMin, Max: cMax, First: cFirst, Last: cLast}[s.Func]
			o.str = o.kind == value.KindString
		default:
			return nil, fmt.Errorf("aggregate: unknown function %d", s.Func)
		}
		if s.Col < 0 && o.code != cCount {
			return nil, fmt.Errorf("aggregate: %s needs an input column", s.Func)
		}
		if o.code == cSumInt || o.code == cSumFloat || o.code >= cMin {
			// The first eight seen bits fill word 0's top byte, the rest the
			// mask words that follow it.
			if seen < 64-countBits {
				o.bit = 1 << (countBits + seen)
			} else {
				spill := seen - (64 - countBits)
				o.mask, o.bit = 1+spill/64, 1<<(spill%64)
			}
			seen++
		}
		l.ops[i] = o
	}
	l.words += (max(seen-(64-countBits), 0) + 63) / 64
	for i := range l.ops {
		o := &l.ops[i]
		switch {
		case o.code == cCount:
		case o.str:
			o.at = l.strs
			l.strs++
		default:
			o.at = l.words
			l.words += wordsOf[o.code]
		}
	}
	return l, nil
}

// Union compiles a layout holding l's aggregations, then those of o that l
// lacks, and returns where each of o's lands in it: an aggregation of the
// same function over the same column as one already there shares its state
// (every COUNT is word 0). An aggregation of l keeps its index, so a reader
// of l's results by index reads the union's alike; the words move, so no
// group of l carries over.
func (l *Layout) Union(o *Layout) (*Layout, []int) {
	all := append([]Spec(nil), l.specs...)
	kinds := make([]value.Kind, len(l.ops), len(l.ops)+len(o.ops))
	for i := range l.ops {
		kinds[i] = l.ops[i].kind
	}
	at := make([]int, len(o.specs))
	for i, s := range o.specs {
		at[i] = slices.IndexFunc(all, func(u Spec) bool {
			return u.Func == s.Func && (u.Col == s.Col || s.Func == Count)
		})
		if at[i] < 0 {
			at[i] = len(all)
			all = append(all, s)
			kinds = append(kinds, o.ops[i].kind)
		}
	}
	u, err := NewLayout(all, kinds)
	if err != nil {
		panic(fmt.Sprintf("aggregate: the union of two layouts: %v", err)) // both compiled
	}
	return u, at
}

// wordsOf is how many words a state of each code takes.
var wordsOf = [...]int{cSumInt: 1, cSumFloat: 1, cAvgInt: 2, cAvgFloat: 2, cMoments: 3, cMin: 1, cMax: 1, cFirst: 1, cLast: 1}

// Specs returns the aggregations the layout was compiled from.
func (l *Layout) Specs() []Spec { return l.specs }

// Words returns how many words a group takes: at least one, its row count.
func (l *Layout) Words() int { return l.words }

// Strs returns how many string-held values a group takes.
func (l *Layout) Strs() int { return l.strs }

// New returns an empty group of its own.
func (l *Layout) New() Group {
	g := Group{Words: make([]uint64, l.words)}
	if l.strs > 0 {
		g.Strs = make([]string, l.strs)
	}
	return g
}

// Step folds one row into g: it counts the row in word 0 and steps each
// aggregation with the value at its column, skipping NULLs. It is the single
// O(1)-per-tuple step at the heart of view maintenance.
func (l *Layout) Step(g Group, t value.Tuple) {
	w := g.Words
	w[0]++
	for i := range l.ops {
		o := &l.ops[i]
		if o.code == cCount {
			continue // word 0
		}
		v := t[o.col]
		if v.IsNull() {
			continue
		}
		switch o.code {
		case cSumInt:
			w[o.at] += uint64(v.AsInt())
			w[o.mask] |= o.bit
		case cSumFloat:
			w[o.at] = addFloat(w[o.at], v.AsFloat())
			w[o.mask] |= o.bit
		case cAvgInt:
			w[o.at] += uint64(v.AsInt())
			w[o.at+1]++
		case cAvgFloat:
			w[o.at] = addFloat(w[o.at], v.AsFloat())
			w[o.at+1]++
		case cMoments:
			x := v.AsFloat()
			w[o.at]++
			w[o.at+1] = addFloat(w[o.at+1], x)
			w[o.at+2] = addFloat(w[o.at+2], x*x)
		default:
			if o.str {
				o.holdStr(g, v.AsString())
			} else {
				o.hold(w, o.word(v))
			}
		}
	}
}

// Merge folds src, a group of the same layout over rows that follow g's in
// sequence order (FIRST and LAST depend on it), into g — the paper's
// "decomposable" requirement.
func (l *Layout) Merge(g, src Group) {
	w, s := g.Words, src.Words
	w[0] += s[0] & maxRows // the seen bits are ORed per state below
	for i := range l.ops {
		o := &l.ops[i]
		switch o.code {
		case cCount: // word 0
		case cSumInt:
			if o.seen(s) {
				w[o.at] += s[o.at]
				w[o.mask] |= o.bit
			}
		case cSumFloat:
			if o.seen(s) {
				w[o.at] = addFloat(w[o.at], math.Float64frombits(s[o.at]))
				w[o.mask] |= o.bit
			}
		case cAvgInt:
			w[o.at] += s[o.at]
			w[o.at+1] += s[o.at+1]
		case cAvgFloat:
			w[o.at] = addFloat(w[o.at], math.Float64frombits(s[o.at]))
			w[o.at+1] += s[o.at+1]
		case cMoments:
			w[o.at] += s[o.at]
			w[o.at+1] = addFloat(w[o.at+1], math.Float64frombits(s[o.at+1]))
			w[o.at+2] = addFloat(w[o.at+2], math.Float64frombits(s[o.at+2]))
		default:
			switch {
			case !o.seen(s):
			case o.str:
				o.holdStr(g, src.Strs[o.at])
			default:
				o.hold(w, s[o.at])
			}
		}
	}
}

// seen reports whether the state holds a value: some non-null input reached
// it.
func (o *op) seen(w []uint64) bool { return w[o.mask]&o.bit != 0 }

// word is v as a held word: a float's bits, any other kind's integer.
func (o *op) word(v value.Value) uint64 {
	if o.kind == value.KindFloat {
		return math.Float64bits(v.AsFloat())
	}
	return uint64(v.AsInt())
}

// hold offers x to a MIN, MAX, FIRST or LAST state held in a word.
func (o *op) hold(w []uint64, x uint64) {
	if o.seen(w) {
		switch cur := w[o.at]; o.code {
		case cFirst:
			return
		case cMin:
			if !o.less(x, cur) {
				return
			}
		case cMax:
			if !o.less(cur, x) {
				return
			}
		}
	}
	w[o.at] = x
	w[o.mask] |= o.bit
}

// less orders two held words the way value.Compare orders their values.
func (o *op) less(a, b uint64) bool {
	if o.kind == value.KindFloat {
		return floatLess(math.Float64frombits(a), math.Float64frombits(b))
	}
	return int64(a) < int64(b)
}

// holdStr offers x to a MIN, MAX, FIRST or LAST state held in a string slot.
func (o *op) holdStr(g Group, x string) {
	if o.seen(g.Words) {
		switch cur := g.Strs[o.at]; o.code {
		case cFirst:
			return
		case cMin:
			if x >= cur {
				return
			}
		case cMax:
			if x <= cur {
				return
			}
		}
	}
	g.Strs[o.at] = x
	g.Words[o.mask] |= o.bit
}

// floatLess orders floats the way value.Compare does: NaN below every number.
func floatLess(a, b float64) bool { return a < b || (a != a && b == b) }

func addFloat(w uint64, x float64) uint64 {
	return math.Float64bits(math.Float64frombits(w) + x)
}

// Result returns the current value of aggregation i. AVG and VAR show the
// paper's decomposition requirement: neither is incrementally computable
// from its own result, but each derives from functions that are — SUM and
// COUNT, and (COUNT, Σx, Σx²).
func (l *Layout) Result(g Group, i int) value.Value {
	o, w := &l.ops[i], g.Words
	switch o.code {
	case cCount:
		return value.Int(int64(g.Rows()))
	case cSumInt:
		if !o.seen(w) {
			return value.Null()
		}
		return value.Int(int64(w[o.at]))
	case cSumFloat:
		if !o.seen(w) {
			return value.Null()
		}
		return value.Float(math.Float64frombits(w[o.at]))
	case cAvgInt, cAvgFloat:
		n := int64(w[o.at+1])
		if n == 0 {
			return value.Null()
		}
		sum := float64(int64(w[o.at]))
		if o.code == cAvgFloat {
			sum = math.Float64frombits(w[o.at])
		}
		return value.Float(sum / float64(n))
	case cMoments:
		n := int64(w[o.at])
		if n == 0 {
			return value.Null()
		}
		mean := math.Float64frombits(w[o.at+1]) / float64(n)
		variance := math.Float64frombits(w[o.at+2])/float64(n) - mean*mean
		if variance < 0 {
			variance = 0 // numeric noise near zero variance
		}
		if o.sqrt {
			return value.Float(math.Sqrt(variance))
		}
		return value.Float(variance)
	default:
		if !o.seen(w) {
			return value.Null()
		}
		if o.str {
			return value.Str(g.Strs[o.at])
		}
		return held(o.kind, w[o.at])
	}
}

// held is the value of kind k a word holds.
func held(k value.Kind, x uint64) value.Value {
	switch k {
	case value.KindFloat:
		return value.Float(math.Float64frombits(x))
	case value.KindBool:
		return value.Bool(x != 0)
	case value.KindTime:
		return value.Chronon(int64(x))
	default:
		return value.Int(int64(x))
	}
}

// AppendResults appends the current value of every aggregation, in spec
// order, to dst.
func (l *Layout) AppendResults(dst value.Tuple, g Group) value.Tuple {
	for i := range l.ops {
		dst = append(dst, l.Result(g, i))
	}
	return dst
}
