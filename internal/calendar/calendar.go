// Package calendar implements Section 5.1 of the chronicle paper: periodic
// persistent views, computed over sets of (possibly overlapping) time
// intervals on a chronicle.
//
// A calendar is a set of chronon intervals in the spirit of [SS92, CSS94].
// Given an SCA view V and a calendar D, the periodic view V<D> denotes one
// view instance per interval, each maintained only while relevant and
// dropped after its expiration time, so that an infinite calendar needs
// only finitely many live instances.
package calendar

import (
	"errors"
	"fmt"
	"math"
)

// Interval is a half-open chronon range [Start, End).
type Interval struct {
	Start, End int64
}

// Contains reports whether the chronon falls inside the interval.
func (iv Interval) Contains(ch int64) bool { return ch >= iv.Start && ch < iv.End }

// Overlaps reports whether two intervals intersect.
func (iv Interval) Overlaps(o Interval) bool { return iv.Start < o.End && o.Start < iv.End }

// String renders the interval.
func (iv Interval) String() string { return fmt.Sprintf("[%d,%d)", iv.Start, iv.End) }

// Calendar is a (possibly infinite) set of intervals. The only operation
// maintenance needs is the inverse mapping: which intervals contain a given
// chronon. The paper requires "a mapping from sequence numbers in a
// chronicle to time intervals"; the engine supplies it by stamping each
// append with a chronon.
type Calendar interface {
	// IntervalsAt returns every interval containing ch, in ascending Start
	// order. For non-overlapping calendars this is at most one interval.
	IntervalsAt(ch int64) []Interval
	// Covers reports whether some interval contains ch — whether
	// IntervalsAt(ch) is non-empty — without allocating.
	Covers(ch int64) bool
	// SpanAt returns the widest chronon range [lo, hi) around ch on which
	// IntervalsAt answers as it does at ch: the set changes only where some
	// interval starts or ends. Maintenance asks once per run of rows inside
	// the range instead of once per row.
	SpanAt(ch int64) (lo, hi int64)
	// String describes the calendar: two calendars with one String have
	// the same intervals (the engine's cohorts rely on it).
	String() string
}

// Fixed is a finite calendar given by an explicit interval list.
type Fixed struct {
	ivs []Interval
}

// NewFixed builds a fixed calendar. Intervals must be well-formed
// (Start < End); they may overlap freely.
func NewFixed(ivs ...Interval) (*Fixed, error) {
	for _, iv := range ivs {
		if iv.Start >= iv.End {
			return nil, fmt.Errorf("calendar: malformed interval %s", iv)
		}
	}
	sorted := append([]Interval(nil), ivs...)
	for i := 1; i < len(sorted); i++ { // insertion sort by Start; lists are small
		for j := i; j > 0 && sorted[j].Start < sorted[j-1].Start; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	return &Fixed{ivs: sorted}, nil
}

// IntervalsAt returns the intervals containing ch.
func (f *Fixed) IntervalsAt(ch int64) []Interval {
	var out []Interval
	for _, iv := range f.ivs {
		if iv.Start > ch {
			break
		}
		if iv.Contains(ch) {
			out = append(out, iv)
		}
	}
	return out
}

// Covers reports whether some interval contains ch.
func (f *Fixed) Covers(ch int64) bool {
	for _, iv := range f.ivs {
		if iv.Start > ch {
			break
		}
		if iv.Contains(ch) {
			return true
		}
	}
	return false
}

// SpanAt returns the nearest interval boundaries at or below and above ch.
func (f *Fixed) SpanAt(ch int64) (lo, hi int64) {
	lo, hi = math.MinInt64, math.MaxInt64
	for _, iv := range f.ivs {
		for _, b := range [2]int64{iv.Start, iv.End} {
			if b <= ch && b > lo {
				lo = b
			}
			if b > ch && b < hi {
				hi = b
			}
		}
	}
	return lo, hi
}

// Intervals returns the calendar's intervals in Start order.
func (f *Fixed) Intervals() []Interval { return append([]Interval(nil), f.ivs...) }

// String describes the calendar by its intervals.
func (f *Fixed) String() string {
	b := []byte("fixed(")
	for i, iv := range f.ivs {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, iv.String()...)
	}
	return string(append(b, ')'))
}

// Periodic is an infinite calendar of intervals [Offset+k·Period,
// Offset+k·Period+Width) for every integer k ≥ 0.
//
//   - Width == Period yields the non-overlapping billing-period case
//     ("a new billing statement is generated each month").
//   - Width > Period yields overlapping moving windows ("for every day, the
//     total … during the 30 days preceding that day": Period = day,
//     Width = 30 days).
type Periodic struct {
	Offset int64
	Period int64
	Width  int64
}

// MaxWindows is the most windows of a periodic calendar that may contain
// one chronon, ⌈Width/Period⌉. Folding a row costs one fold whatever the
// overlap, but the windows a row opens, closes and reads still scale with
// it, so NewPeriodic refuses a calendar past it.
const MaxWindows = 4096

// ErrTooManyWindows is the error NewPeriodic returns for a calendar whose
// windows overlap more than MaxWindows deep.
var ErrTooManyWindows = errors.New("calendar: too many windows contain one chronon")

// NewPeriodic validates and builds a periodic calendar.
func NewPeriodic(offset, period, width int64) (*Periodic, error) {
	if period <= 0 {
		return nil, fmt.Errorf("calendar: period must be positive, got %d", period)
	}
	if width <= 0 {
		return nil, fmt.Errorf("calendar: width must be positive, got %d", width)
	}
	if offset > math.MaxInt64-width {
		return nil, fmt.Errorf("calendar: offset %d plus width %d overflows a chronon", offset, width)
	}
	p := &Periodic{Offset: offset, Period: period, Width: width}
	if n := p.MaxOverlap(); n > MaxWindows {
		return nil, fmt.Errorf("%w: width %d over period %d puts a chronon in %d windows, more than %d", ErrTooManyWindows, width, period, n, MaxWindows)
	}
	return p, nil
}

// IntervalsAt returns every interval containing ch: all k ≥ 0 with
// Offset+k·Period ≤ ch < Offset+k·Period+Width.
func (p *Periodic) IntervalsAt(ch int64) []Interval {
	if ch < p.Offset {
		return nil
	}
	rel := ch - p.Offset
	kHigh := rel / p.Period // latest period started at or before ch
	kLow := int64(0)
	if rel >= p.Width {
		// earliest period whose window still covers ch:
		// k·Period > rel − Width  ⇒  k ≥ floor((rel−Width)/Period)+1
		kLow = (rel-p.Width)/p.Period + 1
	}
	var out []Interval
	for k := kLow; k <= kHigh; k++ {
		start := p.Offset + k*p.Period
		if iv := (Interval{Start: start, End: start + p.Width}); iv.Contains(ch) {
			out = append(out, iv)
		}
	}
	return out
}

// Covers reports whether some window contains ch. The latest window started
// at or before ch ends last of those, so it is the one to ask.
func (p *Periodic) Covers(ch int64) bool {
	return ch >= p.Offset && (ch-p.Offset)%p.Period < p.Width
}

// SpanAt brackets ch between the nearest window start (Offset+k·Period) and
// window end (a start plus Width) on either side of it.
func (p *Periodic) SpanAt(ch int64) (lo, hi int64) {
	if ch < p.Offset {
		return math.MinInt64, p.Offset
	}
	lo = p.Offset + (ch-p.Offset)/p.Period*p.Period
	hi = lo + p.Period
	firstEnd := p.Offset + p.Width
	if ch < firstEnd {
		return lo, min(hi, firstEnd)
	}
	end := firstEnd + (ch-firstEnd)/p.Period*p.Period // latest window end ≤ ch
	return max(lo, end), min(hi, end+p.Period)
}

// String describes the calendar; a width equal to the period and a zero
// offset go unsaid.
func (p *Periodic) String() string {
	s := fmt.Sprintf("periodic(period=%d", p.Period)
	if p.Width != p.Period {
		s += fmt.Sprintf(", width=%d", p.Width)
	}
	if p.Offset != 0 {
		s += fmt.Sprintf(", offset=%d", p.Offset)
	}
	return s + ")"
}

// MaxOverlap returns the largest number of intervals that can contain a
// single chronon: ⌈Width/Period⌉, exact for any positive width and period.
func (p *Periodic) MaxOverlap() int64 {
	n := p.Width / p.Period
	if p.Width%p.Period != 0 {
		n++
	}
	return n
}
