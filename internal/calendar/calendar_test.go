package calendar

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
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
}

// TestPeriodicRefusesRunawayOverlap: a calendar whose windows overlap up to
// MaxWindows deep is made, one deeper is refused with ErrTooManyWindows, and
// so is one whose last chronon overflows; MaxOverlap is exact past 2⁵³.
func TestPeriodicRefusesRunawayOverlap(t *testing.T) {
	if p, err := NewPeriodic(0, 1, MaxWindows); err != nil || p.MaxOverlap() != MaxWindows {
		t.Errorf("width %d over period 1: %v, %v", MaxWindows, p, err)
	}
	if p, err := NewPeriodic(0, 3, 3*MaxWindows); err != nil || p.MaxOverlap() != MaxWindows {
		t.Errorf("width %d over period 3: %v, %v", 3*MaxWindows, p, err)
	}
	for _, c := range []struct{ offset, period, width int64 }{
		{0, 1, MaxWindows + 1},
		{0, 3, 3*MaxWindows + 1},
		{0, 1_000_000_000, 9_000_000_000_000_000_000},
	} {
		if _, err := NewPeriodic(c.offset, c.period, c.width); !errors.Is(err, ErrTooManyWindows) {
			t.Errorf("width %d over period %d: %v, want ErrTooManyWindows", c.width, c.period, err)
		}
	}
	if _, err := NewPeriodic(math.MaxInt64-5, 10, 10); err == nil {
		t.Error("offset plus width past the last chronon accepted")
	}
	// Past 2⁵³ a float ceiling rounds: 2⁶⁰+1 over 2⁶⁰ is 2 windows, not 1.
	p := &Periodic{Period: 1 << 60, Width: 1<<60 + 1}
	if n := p.MaxOverlap(); n != 2 {
		t.Errorf("MaxOverlap of width 2⁶⁰+1 over period 2⁶⁰ = %d, want 2", n)
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
		if len(got) != len(want) || p.Covers(ch) != (len(want) > 0) {
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

// TestSpanAtBracketsIntervalsAt: on [lo, hi) around ch the calendar answers
// as it does at ch, and at lo-1 and hi it answers differently (the range is
// the widest) — for fixed, billing-period and overlapping calendars; and
// Covers(ch) says whether IntervalsAt(ch) is non-empty.
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
			if cal.Covers(ch) != (len(at) > 0) {
				t.Fatalf("%s: Covers(%d) = %v, but IntervalsAt(%d) = %v", cal, ch, cal.Covers(ch), ch, at)
			}
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
