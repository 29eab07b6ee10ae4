package calendar

import (
	"math/rand"
	"testing"
	"testing/quick"

	"chronicledb/internal/aggregate"
	"chronicledb/internal/value"
)

func TestIntervalBasics(t *testing.T) {
	iv := Interval{Start: 10, End: 20}
	if !iv.Contains(10) || !iv.Contains(19) {
		t.Error("half-open containment: start inclusive")
	}
	if iv.Contains(9) || iv.Contains(20) {
		t.Error("half-open containment: end exclusive")
	}
	if !iv.Overlaps(Interval{19, 25}) || iv.Overlaps(Interval{20, 25}) {
		t.Error("Overlaps boundary")
	}
	if iv.String() != "[10,20)" {
		t.Errorf("String = %q", iv.String())
	}
}

func TestFixedCalendar(t *testing.T) {
	if _, err := NewFixed(Interval{5, 5}); err == nil {
		t.Error("degenerate interval accepted")
	}
	f, err := NewFixed(Interval{20, 30}, Interval{0, 10}, Interval{5, 25})
	if err != nil {
		t.Fatal(err)
	}
	ivs := f.Intervals()
	if ivs[0].Start != 0 || ivs[1].Start != 5 || ivs[2].Start != 20 {
		t.Errorf("Intervals not sorted: %v", ivs)
	}
	if got := f.IntervalsAt(7); len(got) != 2 {
		t.Errorf("IntervalsAt(7) = %v", got)
	}
	if got := f.IntervalsAt(22); len(got) != 2 {
		t.Errorf("IntervalsAt(22) = %v", got)
	}
	if got := f.IntervalsAt(50); got != nil {
		t.Errorf("IntervalsAt(50) = %v", got)
	}
}

func TestPeriodicNonOverlapping(t *testing.T) {
	if _, err := NewPeriodic(0, 0, 10); err == nil {
		t.Error("zero period accepted")
	}
	if _, err := NewPeriodic(0, 10, 0); err == nil {
		t.Error("zero width accepted")
	}
	p, _ := NewPeriodic(100, 10, 10) // months of width 10 starting at 100
	if got := p.IntervalsAt(99); got != nil {
		t.Errorf("before offset: %v", got)
	}
	got := p.IntervalsAt(105)
	if len(got) != 1 || got[0] != (Interval{100, 110}) {
		t.Errorf("IntervalsAt(105) = %v", got)
	}
	got = p.IntervalsAt(110)
	if len(got) != 1 || got[0] != (Interval{110, 120}) {
		t.Errorf("IntervalsAt(110) = %v", got)
	}
	if p.MaxOverlap() != 1 {
		t.Errorf("MaxOverlap = %d", p.MaxOverlap())
	}
	if k, ok := p.IntervalIndex(Interval{130, 140}); !ok || k != 3 {
		t.Errorf("IntervalIndex = %d, %v", k, ok)
	}
	if _, ok := p.IntervalIndex(Interval{131, 141}); ok {
		t.Error("foreign interval recognized")
	}
}

func TestPeriodicOverlapping(t *testing.T) {
	// Daily 30-day windows: period 1, width 30.
	p, _ := NewPeriodic(0, 1, 30)
	got := p.IntervalsAt(100)
	if len(got) != 30 {
		t.Fatalf("IntervalsAt = %d intervals, want 30", len(got))
	}
	if got[0] != (Interval{71, 101}) || got[29] != (Interval{100, 130}) {
		t.Errorf("window bounds: first %v last %v", got[0], got[29])
	}
	if p.MaxOverlap() != 30 {
		t.Errorf("MaxOverlap = %d", p.MaxOverlap())
	}
	// Early chronons see fewer windows (none start before the offset).
	if got := p.IntervalsAt(3); len(got) != 4 {
		t.Errorf("IntervalsAt(3) = %d intervals, want 4", len(got))
	}
}

func TestPeriodicIntervalsAtQuick(t *testing.T) {
	f := func(offRaw, chRaw int32, perRaw, widRaw uint8) bool {
		offset := int64(offRaw % 1000)
		period := int64(perRaw%50) + 1
		width := int64(widRaw%80) + 1
		ch := int64(chRaw % 10000)
		p, err := NewPeriodic(offset, period, width)
		if err != nil {
			return false
		}
		got := p.IntervalsAt(ch)
		// Brute force over plausible k range.
		var want []Interval
		for k := int64(0); ; k++ {
			start := offset + k*period
			if start > ch {
				break
			}
			if iv := (Interval{start, start + width}); iv.Contains(ch) {
				want = append(want, iv)
			}
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestMovingWindowMatchesNaive(t *testing.T) {
	for _, fn := range []aggregate.Func{aggregate.Sum, aggregate.Count, aggregate.Max, aggregate.Min} {
		ring, err := NewMovingWindow(fn, value.KindInt, 1, 30)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := NewNaiveWindow(fn, value.KindInt, 30)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(fn)))
		ch := int64(0)
		for i := 0; i < 2000; i++ {
			ch += int64(rng.Intn(4)) // time moves forward, sometimes skipping buckets
			key := string(rune('a' + rng.Intn(3)))
			v := value.Int(int64(rng.Intn(100)))
			ring.Add(key, ch, v)
			naive.Add(key, ch, v)
			if i%17 == 0 {
				for _, k := range []string{"a", "b", "c"} {
					got, want := ring.Value(k, ch), naive.Value(k, ch)
					if !value.Equal(got, want) {
						t.Fatalf("%s key %s at ch %d: ring %v != naive %v", fn, k, ch, got, want)
					}
				}
			}
		}
	}
}

func TestMovingWindowLargeGapClears(t *testing.T) {
	ring, _ := NewMovingWindow(aggregate.Sum, value.KindInt, 1, 5)
	ring.Add("k", 0, value.Int(10))
	if got := ring.Value("k", 0); got.AsInt() != 10 {
		t.Fatalf("Value = %v", got)
	}
	// A gap larger than the window expires everything.
	if got := ring.Value("k", 100); !got.IsNull() {
		t.Errorf("after gap: %v, want null (empty SUM)", got)
	}
	if got := ring.Value("missing", 0); !got.IsNull() {
		t.Errorf("missing key: %v", got)
	}
	if ring.Buckets() != 5 {
		t.Errorf("Buckets = %d", ring.Buckets())
	}
}

func TestMovingSumMatchesWindow(t *testing.T) {
	fast, _ := NewMovingSum(1, 30)
	ring, _ := NewMovingWindow(aggregate.Sum, value.KindFloat, 1, 30)
	rng := rand.New(rand.NewSource(9))
	ch := int64(0)
	for i := 0; i < 3000; i++ {
		ch += int64(rng.Intn(3))
		amt := float64(rng.Intn(50))
		fast.Add("k", ch, amt)
		ring.Add("k", ch, value.Float(amt))
		if i%13 == 0 {
			got := fast.Value("k", ch)
			want := ring.Value("k", ch)
			wantF := 0.0
			if !want.IsNull() {
				wantF = want.AsFloat()
			}
			if got != wantF {
				t.Fatalf("at ch %d: fast %v != ring %v", ch, got, wantF)
			}
		}
	}
	if fast.Value("missing", 0) != 0 {
		t.Error("missing key should be 0")
	}
}

func TestWindowConstructorErrors(t *testing.T) {
	if _, err := NewMovingWindow(aggregate.Sum, value.KindInt, 0, 5); err == nil {
		t.Error("zero bucket width accepted")
	}
	if _, err := NewMovingWindow(aggregate.Sum, value.KindInt, 1, 0); err == nil {
		t.Error("zero bucket count accepted")
	}
	if _, err := NewMovingSum(0, 5); err == nil {
		t.Error("zero bucket width accepted")
	}
	if _, err := NewNaiveWindow(aggregate.Sum, value.KindInt, 0); err == nil {
		t.Error("zero span accepted")
	}
}

// TestSpanAtBracketsIntervalsAt: on [lo, hi) around ch the calendar answers
// as it does at ch, and at lo-1 and hi it answers differently (the range is
// the widest) — for fixed, billing-period and overlapping calendars.
func TestSpanAtBracketsIntervalsAt(t *testing.T) {
	fixed, _ := NewFixed(Interval{10, 40}, Interval{20, 30}, Interval{30, 60}, Interval{90, 95})
	billing, _ := NewPeriodic(5, 10, 10)
	moving, _ := NewPeriodic(3, 7, 24)
	gapped, _ := NewPeriodic(0, 10, 4)
	same := func(a, b []Interval) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	for _, cal := range []Calendar{fixed, billing, moving, gapped} {
		for ch := int64(-5); ch < 130; ch++ {
			lo, hi := cal.SpanAt(ch)
			if ch < lo || ch >= hi {
				t.Fatalf("%s: SpanAt(%d) = [%d,%d) does not contain it", cal, ch, lo, hi)
			}
			at := cal.IntervalsAt(ch)
			for x := max(lo, -50); x < min(hi, 200); x++ {
				if !same(cal.IntervalsAt(x), at) {
					t.Fatalf("%s: SpanAt(%d) = [%d,%d) but IntervalsAt(%d) = %v, not %v", cal, ch, lo, hi, x, cal.IntervalsAt(x), at)
				}
			}
			if lo > -50 && same(cal.IntervalsAt(lo-1), at) {
				t.Errorf("%s: SpanAt(%d) starts at %d, yet %d answers alike", cal, ch, lo, lo-1)
			}
			if hi < 200 && same(cal.IntervalsAt(hi), at) {
				t.Errorf("%s: SpanAt(%d) ends at %d, yet %d answers alike", cal, ch, hi, hi)
			}
		}
	}
}
