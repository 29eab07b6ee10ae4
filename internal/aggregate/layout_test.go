package aggregate

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"chronicledb/internal/value"
)

// The model test: a layout must compute, through any chunking of its input
// and any in-order merge of the parts, what a plain per-function fold of the
// column computes.

var modelKinds = []value.Kind{value.KindInt, value.KindFloat, value.KindString, value.KindBool, value.KindTime}

// randValue draws a value of kind k, or NULL one time in five. Floats are
// quarters, so every sum, and every sum of squares, is exact in any order
// and chunked folds can be compared bit for bit; NaN turns up now and then.
func randValue(r *rand.Rand, k value.Kind) value.Value {
	if r.Intn(5) == 0 {
		return value.Null()
	}
	switch k {
	case value.KindInt:
		return value.Int(r.Int63n(2001) - 1000)
	case value.KindFloat:
		if r.Intn(50) == 0 {
			return value.Float(math.NaN())
		}
		return value.Float(float64(r.Intn(801)-400) / 4)
	case value.KindString:
		return value.Str(string([]byte{'a' + byte(r.Intn(3)), 'a' + byte(r.Intn(3))})[:1+r.Intn(2)])
	case value.KindBool:
		return value.Bool(r.Intn(2) == 0)
	default:
		return value.Chronon(r.Int63n(1 << 40))
	}
}

// randSpecs draws 1–6 aggregations over a schema of the given kinds, each
// valid for its column's kind.
func randSpecs(r *rand.Rand, kinds []value.Kind) ([]Spec, []value.Kind) {
	var specs []Spec
	var in []value.Kind
	for len(specs) < 1+r.Intn(6) {
		f, col := Func(r.Intn(int(Stddev)+1)), r.Intn(len(kinds))
		k := kinds[col]
		numeric := k == value.KindInt || k == value.KindFloat
		switch {
		case f == Count && r.Intn(2) == 0:
			col, k = -1, value.KindInt
		case (f == Sum || f == Avg || f == Var || f == Stddev) && !numeric:
			continue
		}
		specs = append(specs, Spec{Func: f, Col: col, Name: "a"})
		in = append(in, k)
	}
	return specs, in
}

// reference is the plain fold of spec s over rows.
func reference(s Spec, k value.Kind, rows []value.Tuple) value.Value {
	if s.Func == Count {
		return value.Int(int64(len(rows)))
	}
	var vals []value.Value
	for _, r := range rows {
		if !r[s.Col].IsNull() {
			vals = append(vals, r[s.Col])
		}
	}
	if len(vals) == 0 {
		return value.Null()
	}
	switch s.Func {
	case Sum, Avg:
		var n int64
		var f float64
		for _, v := range vals {
			n += v.AsInt()
			f += v.AsFloat()
		}
		switch {
		case s.Func == Avg && k == value.KindFloat:
			return value.Float(f / float64(len(vals)))
		case s.Func == Avg:
			return value.Float(float64(n) / float64(len(vals)))
		case k == value.KindFloat:
			return value.Float(f)
		}
		return value.Int(n)
	case Var, Stddev:
		var sx, sxx float64
		for _, v := range vals {
			sx += v.AsFloat()
			sxx += v.AsFloat() * v.AsFloat()
		}
		n := float64(len(vals))
		variance := sxx/n - (sx/n)*(sx/n)
		if variance < 0 {
			variance = 0
		}
		if s.Func == Stddev {
			return value.Float(math.Sqrt(variance))
		}
		return value.Float(variance)
	case First:
		return vals[0]
	case Last:
		return vals[len(vals)-1]
	}
	best := vals[0]
	for _, v := range vals[1:] {
		if c := value.Compare(v, best); (s.Func == Min && c < 0) || (s.Func == Max && c > 0) {
			best = v
		}
	}
	return best
}

// sameValue is value equality that also tells a NULL, an int and a float
// apart.
func sameValue(a, b value.Value) bool { return a.Kind() == b.Kind() && value.Equal(a, b) }

func TestLayoutMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 400; trial++ {
		kinds := make([]value.Kind, 1+r.Intn(4))
		for i := range kinds {
			kinds[i] = modelKinds[r.Intn(len(modelKinds))]
		}
		specs, in := randSpecs(r, kinds)
		l, err := NewLayout(specs, in)
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]value.Tuple, r.Intn(40))
		for i := range rows {
			rows[i] = make(value.Tuple, len(kinds))
			for c, k := range kinds {
				rows[i][c] = randValue(r, k)
			}
		}

		// One group stepped row by row; random chunks, each stepped into a
		// group of its own and merged in order; two halves merged.
		whole := l.New()
		for _, row := range rows {
			l.Step(whole, row)
		}
		chunked := l.New()
		for lo := 0; lo < len(rows); {
			hi := lo + 1 + r.Intn(len(rows)-lo)
			part := l.New()
			for _, row := range rows[lo:hi] {
				l.Step(part, row)
			}
			l.Merge(chunked, part)
			lo = hi
		}
		split := r.Intn(len(rows) + 1)
		left, right := l.New(), l.New()
		for _, row := range rows[:split] {
			l.Step(left, row)
		}
		for _, row := range rows[split:] {
			l.Step(right, row)
		}
		l.Merge(left, right)
		decoded := l.New()
		if _, err := l.DecodeStates(decoded, whole.Rows(), l.AppendStates(nil, whole)); err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}

		for i, s := range specs {
			want := reference(s, in[i], rows)
			for name, g := range map[string]Group{"stepped": whole, "chunked": chunked, "halves": left, "decoded": decoded} {
				if got := l.Result(g, i); !sameValue(got, want) {
					t.Fatalf("trial %d: %s over %s, %s: %v, want %v (%d rows)", trial, s.Func, in[i], name, got, want, len(rows))
				}
			}
		}
	}
}

// fuzzLayout holds one state of every function, over every kind a state can
// keep its value in.
var fuzzLayout = func() *Layout {
	specs := []Spec{
		{Func: Count, Col: -1}, {Func: Sum, Col: 0}, {Func: Sum, Col: 1}, {Func: Avg, Col: 0}, {Func: Avg, Col: 1},
		{Func: Min, Col: 2}, {Func: Max, Col: 4}, {Func: First, Col: 3}, {Func: Last, Col: 1},
		{Func: Var, Col: 0}, {Func: Stddev, Col: 1}, {Func: Max, Col: 0},
	}
	cols := []value.Kind{value.KindInt, value.KindFloat, value.KindString, value.KindBool, value.KindTime}
	in := make([]value.Kind, len(specs))
	for i, s := range specs {
		in[i] = value.KindInt
		if s.Col >= 0 {
			in[i] = cols[s.Col]
		}
	}
	l, err := NewLayout(specs, in)
	if err != nil {
		panic(err)
	}
	return l
}()

// FuzzDecodeStates: malformed or truncated bytes are an error and never a
// panic, and what decodes re-encodes to the bytes it was decoded from.
func FuzzDecodeStates(f *testing.F) {
	r := rand.New(rand.NewSource(2))
	for n := 0; n < 4; n++ {
		g := fuzzLayout.New()
		for i := 0; i < n*3; i++ {
			row := make(value.Tuple, len(modelKinds))
			for c, k := range modelKinds {
				row[c] = randValue(r, k)
			}
			fuzzLayout.Step(g, row)
		}
		f.Add(g.Rows(), fuzzLayout.AppendStates(nil, g))
	}
	// A group at the most rows a count word holds, and the same states under
	// one row more.
	g := fuzzLayout.New()
	fuzzLayout.Step(g, value.Tuple{value.Int(1), value.Float(2), value.Str("a"), value.Bool(true), value.Chronon(3)})
	g.Words[0] |= maxRows
	f.Add(uint64(maxRows), fuzzLayout.AppendStates(nil, g))
	f.Add(uint64(maxRows)+1, fuzzLayout.AppendStates(nil, g))
	f.Fuzz(func(t *testing.T, rows uint64, b []byte) {
		g := fuzzLayout.New()
		n, err := fuzzLayout.DecodeStates(g, rows, b)
		if err != nil {
			return
		}
		if re := fuzzLayout.AppendStates(nil, g); !bytes.Equal(re, b[:n]) {
			t.Fatalf("decoded states re-encode differently:\n in  %x\n out %x", b[:n], re)
		}
		for cut := 1; cut <= n; cut++ {
			if _, err := fuzzLayout.DecodeStates(fuzzLayout.New(), rows, b[:n-cut]); err == nil {
				t.Fatalf("states cut by %d bytes decoded", cut)
			}
		}
		fuzzLayout.AppendResults(nil, g)
	})
}

// TestCountWordBound: word 0 counts up to 2⁵⁶−1 rows under its seen bits. A
// decode accepts a group of that many rows, keeping both the count and the
// bits, and refuses one row more — also for a layout without a COUNT state
// to disagree with the count.
func TestCountWordBound(t *testing.T) {
	for _, specs := range [][]Spec{
		{{Func: Count, Col: -1}, {Func: Sum, Col: 0}, {Func: Max, Col: 0}},
		{{Func: Sum, Col: 0}, {Func: Max, Col: 0}},
	} {
		l, err := NewLayout(specs, []value.Kind{value.KindInt, value.KindInt, value.KindInt}[:len(specs)])
		if err != nil {
			t.Fatal(err)
		}
		g := l.New()
		l.Step(g, value.Tuple{value.Int(7)})
		g.Words[0] |= maxRows
		enc := l.AppendStates(nil, g)
		got := l.New()
		if _, err := l.DecodeStates(got, 1<<56-1, enc); err != nil {
			t.Fatalf("%d states, a group of 2⁵⁶−1 rows: %v", len(specs), err)
		}
		want := value.Tuple{value.Int(1<<56 - 1), value.Int(7), value.Int(7)}[3-len(specs):]
		if res := l.AppendResults(nil, got); !value.TuplesEqual(res, want) || got.Rows() != 1<<56-1 {
			t.Errorf("%d states: decoded %v (%d rows), want %v", len(specs), res, got.Rows(), want)
		}
		if _, err := l.DecodeStates(l.New(), 1<<56, enc); err == nil {
			t.Errorf("%d states: a group of 2⁵⁶ rows decoded", len(specs))
		}
	}
}

// TestMergeSumsCountsUnderSeenBits: merging two groups whose count words
// both carry seen bits, one of them in common, adds the counts exactly and
// ORs the bits.
func TestMergeSumsCountsUnderSeenBits(t *testing.T) {
	l, err := NewLayout([]Spec{{Func: Count, Col: -1}, {Func: Sum, Col: 0}, {Func: Min, Col: 1}, {Func: Last, Col: 2}},
		[]value.Kind{value.KindInt, value.KindInt, value.KindInt, value.KindInt})
	if err != nil {
		t.Fatal(err)
	}
	a, b := l.New(), l.New()
	for i := range 300 { // a sees SUM and MIN
		l.Step(a, value.Tuple{value.Int(int64(i)), value.Int(9), value.Null()})
	}
	for range 212 { // b sees MIN and LAST
		l.Step(b, value.Tuple{value.Null(), value.Int(4), value.Int(8)})
	}
	abits, bbits := a.Words[0]&^maxRows, b.Words[0]&^maxRows
	if abits&bbits == 0 || abits == bbits {
		t.Fatalf("seen bits %x and %x: want two sets that share a bit and differ", abits, bbits)
	}
	l.Merge(a, b)
	if a.Rows() != 512 || a.Words[0]&^maxRows != abits|bbits {
		t.Errorf("merged %d rows with seen bits %x, want 512 and %x", a.Rows(), a.Words[0]&^maxRows, abits|bbits)
	}
	want := value.Tuple{value.Int(512), value.Int(299 * 300 / 2), value.Int(4), value.Int(8)}
	if got := l.AppendResults(nil, a); !value.TuplesEqual(got, want) {
		t.Errorf("merged results %v, want %v", got, want)
	}
}

// TestNinthSeenBitSpills: eight seen bits fit in word 0's top byte; a ninth
// state that keeps one spills to a mask word, and a group round-trips with
// only that bit set.
func TestNinthSeenBitSpills(t *testing.T) {
	specs := make([]Spec, 9)
	kinds := make([]value.Kind, 9)
	for i := range specs {
		specs[i], kinds[i] = Spec{Func: Sum, Col: i}, value.KindInt
	}
	l, err := NewLayout(specs, kinds)
	if err != nil {
		t.Fatal(err)
	}
	if l.Words() != 11 {
		t.Fatalf("nine SUMs take %d words, want 11 (count, mask, nine sums)", l.Words())
	}
	row := make(value.Tuple, 9)
	for i := range row {
		row[i] = value.Null()
	}
	row[8] = value.Int(5)
	g := l.New()
	l.Step(g, row)
	l.Step(g, row)
	if g.Words[0] != 2 || g.Words[1] != 1 {
		t.Fatalf("count word %x, mask word %x: want the count alone, and the ninth bit in the mask", g.Words[0], g.Words[1])
	}
	got := l.New()
	if _, err := l.DecodeStates(got, g.Rows(), l.AppendStates(nil, g)); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Words, g.Words) {
		t.Errorf("round trip: words %x, want %x", got.Words, g.Words)
	}
	for i := range specs {
		want := value.Null()
		if i == 8 {
			want = value.Int(10)
		}
		if res := l.Result(got, i); !sameValue(res, want) {
			t.Errorf("SUM %d: %v, want %v", i, res, want)
		}
	}
}

// TestUnionReadsEachLayoutsResults: a union layout folds one group for
// several lists of aggregations, and each list's results read through the
// indices Union returns are those of a layout of its own; a spec already
// there — the same function over the same column, or any COUNT — is not
// added again, and the seen bits of the union spill past word 0 as a layout
// of them all would.
func TestUnionReadsEachLayoutsResults(t *testing.T) {
	kinds := []value.Kind{value.KindInt, value.KindFloat, value.KindString}
	a := []Spec{{Func: Sum, Col: 0, Name: "s"}, {Func: Count, Col: -1, Name: "n"}, {Func: Min, Col: 2, Name: "lo"},
		{Func: Max, Col: 0, Name: "hi"}, {Func: First, Col: 1, Name: "f"}}
	b := []Spec{{Func: Sum, Col: 0, Name: "again"}, {Func: Count, Col: 0, Name: "c"}, {Func: Avg, Col: 1, Name: "avg"},
		{Func: Last, Col: 2, Name: "l"}, {Func: Sum, Col: 1, Name: "fs"}, {Func: Max, Col: 2, Name: "shi"},
		{Func: Min, Col: 0, Name: "ilo"}, {Func: Last, Col: 0, Name: "il"}, {Func: Sum, Col: 1, Name: "fs2"}}
	kindsOf := func(specs []Spec) []value.Kind {
		out := make([]value.Kind, len(specs))
		for i, s := range specs {
			out[i] = value.KindInt
			if s.Col >= 0 {
				out[i] = kinds[s.Col]
			}
		}
		return out
	}
	la, err := NewLayout(a, kindsOf(a))
	if err != nil {
		t.Fatal(err)
	}
	lb, err := NewLayout(b, kindsOf(b))
	if err != nil {
		t.Fatal(err)
	}
	u, at := la.Union(lb)
	// b's SUM(0) and COUNT are a's; its second SUM(1) is its first.
	if want := []int{0, 1, 5, 6, 7, 8, 9, 10, 7}; !slices.Equal(at, want) {
		t.Fatalf("b lands at %v, want %v", at, want)
	}
	if len(u.Specs()) != 11 || u.Words() <= la.Words() {
		t.Fatalf("union of %d specs in %d words", len(u.Specs()), u.Words())
	}
	r := rand.New(rand.NewSource(7))
	gu, ga, gb := u.New(), la.New(), lb.New()
	for range 200 {
		row := value.Tuple{randValue(r, kinds[0]), randValue(r, kinds[1]), randValue(r, kinds[2])}
		u.Step(gu, row)
		la.Step(ga, row)
		lb.Step(gb, row)
	}
	for i := range a {
		if got, want := u.Result(gu, i), la.Result(ga, i); !sameValue(got, want) {
			t.Errorf("a's %s: %v through the union, %v alone", a[i].Name, got, want)
		}
	}
	for i := range b {
		if got, want := u.Result(gu, at[i]), lb.Result(gb, i); !sameValue(got, want) {
			t.Errorf("b's %s: %v through the union, %v alone", b[i].Name, got, want)
		}
	}
}
