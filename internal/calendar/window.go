package calendar

import (
	"fmt"

	"chronicledb/internal/aggregate"
	"chronicledb/internal/value"
)

// Moving-window aggregation (Section 5.1). The paper's example: "a periodic
// view for every day that computes the total number of shares of a stock
// sold during the 30 days preceding that day … keep the total number of
// shares sold for each of the last 30 days separately, and derive the view
// as the sum of these 30 numbers. Moving from one periodic view to the next
// one involves shifting a cyclic buffer of these 30 numbers."
//
// MovingWindow is that cyclic buffer, generalized to any decomposable
// aggregation function and keyed by group. Appends cost O(1); deriving the
// current window value merges the W bucket partials — independent of how
// many records fell inside the window. NaiveWindow is the strawman that
// retains raw records and re-aggregates; E6 checks that both agree with
// MovingSum at every refresh.

// MovingWindow maintains per-key cyclic buffers of per-bucket aggregation
// partials.
type MovingWindow struct {
	fn          aggregate.Func
	bucketWidth int64 // chronon width of one bucket
	n           int   // number of buckets in the window
	byKey       map[string]*winRing
}

type winRing struct {
	lastBucket int64 // absolute index of the newest bucket
	states     []aggregate.State
	started    bool
}

// NewMovingWindow creates a window of n buckets of the given chronon width.
func NewMovingWindow(fn aggregate.Func, bucketWidth int64, n int) (*MovingWindow, error) {
	if bucketWidth <= 0 || n <= 0 {
		return nil, fmt.Errorf("calendar: window needs positive bucket width and count")
	}
	return &MovingWindow{fn: fn, bucketWidth: bucketWidth, n: n, byKey: make(map[string]*winRing)}, nil
}

// Buckets returns the window length in buckets.
func (w *MovingWindow) Buckets() int { return w.n }

// Add folds v into key's bucket for the given chronon. Chronons must be
// non-decreasing per key (appends arrive in sequence order).
func (w *MovingWindow) Add(key string, chronon int64, v value.Value) {
	r := w.ring(key)
	w.advance(r, chronon/w.bucketWidth)
	r.states[int(r.lastBucket%int64(w.n)+int64(w.n))%w.n].Step(v)
}

// Value derives the aggregate over the last n buckets ending at the bucket
// containing chronon — the "sum of these 30 numbers".
func (w *MovingWindow) Value(key string, chronon int64) value.Value {
	r, ok := w.byKey[key]
	if !ok {
		// An absent key aggregates like an empty group (COUNT 0, SUM null).
		return aggregate.NewState(w.fn).Result()
	}
	w.advance(r, chronon/w.bucketWidth)
	merged := aggregate.NewState(w.fn)
	for _, s := range r.states {
		merged.Merge(s)
	}
	return merged.Result()
}

func (w *MovingWindow) ring(key string) *winRing {
	r, ok := w.byKey[key]
	if !ok {
		states := make([]aggregate.State, w.n)
		for i := range states {
			states[i] = aggregate.NewState(w.fn)
		}
		r = &winRing{states: states}
		w.byKey[key] = r
	}
	return r
}

// advance rotates the ring forward to the given absolute bucket, clearing
// buckets that fall out of the window.
func (w *MovingWindow) advance(r *winRing, bucket int64) {
	if !r.started {
		r.lastBucket = bucket
		r.started = true
		return
	}
	if bucket <= r.lastBucket {
		return
	}
	steps := bucket - r.lastBucket
	if steps >= int64(w.n) {
		for i := range r.states {
			r.states[i] = aggregate.NewState(w.fn)
		}
	} else {
		for b := r.lastBucket + 1; b <= bucket; b++ {
			r.states[int(b%int64(w.n)+int64(w.n))%w.n] = aggregate.NewState(w.fn)
		}
	}
	r.lastBucket = bucket
}

// MovingSum is the O(1)-query fast path for SUM: because SUM is invertible,
// the running window total is maintained by subtracting each expiring
// bucket, so neither Add nor Value touches all W buckets.
type MovingSum struct {
	bucketWidth int64
	n           int
	byKey       map[string]*sumRing
}

type sumRing struct {
	lastBucket int64
	buckets    []float64
	total      float64
	started    bool
}

// NewMovingSum creates an O(1) moving sum of n buckets.
func NewMovingSum(bucketWidth int64, n int) (*MovingSum, error) {
	if bucketWidth <= 0 || n <= 0 {
		return nil, fmt.Errorf("calendar: window needs positive bucket width and count")
	}
	return &MovingSum{bucketWidth: bucketWidth, n: n, byKey: make(map[string]*sumRing)}, nil
}

// Add folds amount into key's current bucket.
func (w *MovingSum) Add(key string, chronon int64, amount float64) {
	r, ok := w.byKey[key]
	if !ok {
		r = &sumRing{buckets: make([]float64, w.n)}
		w.byKey[key] = r
	}
	w.advance(r, chronon/w.bucketWidth)
	r.buckets[int(r.lastBucket%int64(w.n)+int64(w.n))%w.n] += amount
	r.total += amount
}

// Value returns the window sum as of chronon.
func (w *MovingSum) Value(key string, chronon int64) float64 {
	r, ok := w.byKey[key]
	if !ok {
		return 0
	}
	w.advance(r, chronon/w.bucketWidth)
	return r.total
}

func (w *MovingSum) advance(r *sumRing, bucket int64) {
	if !r.started {
		r.lastBucket = bucket
		r.started = true
		return
	}
	for b := r.lastBucket + 1; b <= bucket; b++ {
		if b-r.lastBucket > int64(w.n) {
			// Everything expired; clear in one sweep.
			for i := range r.buckets {
				r.buckets[i] = 0
			}
			r.total = 0
			break
		}
		idx := int(b%int64(w.n)+int64(w.n)) % w.n
		r.total -= r.buckets[idx]
		r.buckets[idx] = 0
	}
	r.lastBucket = bucket
}

// NaiveWindow is the baseline: it retains every raw record and
// re-aggregates the window on each query — O(records in window), the cost
// the cyclic buffer exists to avoid.
type NaiveWindow struct {
	fn     aggregate.Func
	window int64 // chronon span covered
	byKey  map[string][]event
}

type event struct {
	chronon int64
	v       value.Value
}

// NewNaiveWindow creates the re-aggregating baseline covering a span of
// window chronons.
func NewNaiveWindow(fn aggregate.Func, window int64) (*NaiveWindow, error) {
	if window <= 0 {
		return nil, fmt.Errorf("calendar: window span must be positive")
	}
	return &NaiveWindow{fn: fn, window: window, byKey: make(map[string][]event)}, nil
}

// Add records one event.
func (w *NaiveWindow) Add(key string, chronon int64, v value.Value) {
	evs := append(w.byKey[key], event{chronon, v})
	// Trim expired prefix (events arrive in chronon order).
	cut := 0
	for cut < len(evs) && evs[cut].chronon <= chronon-w.window {
		cut++
	}
	w.byKey[key] = evs[cut:]
}

// Value re-aggregates the retained window as of chronon.
func (w *NaiveWindow) Value(key string, chronon int64) value.Value {
	s := aggregate.NewState(w.fn)
	for _, e := range w.byKey[key] {
		if e.chronon > chronon-w.window && e.chronon <= chronon {
			s.Step(e.v)
		}
	}
	return s.Result()
}
