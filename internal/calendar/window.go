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
// partials: each bucket is a group of the window's layout.
type MovingWindow struct {
	l           *aggregate.Layout
	bucketWidth int64 // chronon width of one bucket
	n           int   // number of buckets in the window
	byKey       map[string]*winRing
	merged      aggregate.Group // Value's scratch
}

// winRing is one key's buckets, laid end to end.
type winRing struct {
	lastBucket int64 // absolute index of the newest bucket
	words      []uint64
	strs       []string
	started    bool
}

// NewMovingWindow creates a window of n buckets of the given chronon width,
// aggregating fn over values of kind in.
func NewMovingWindow(fn aggregate.Func, in value.Kind, bucketWidth int64, n int) (*MovingWindow, error) {
	if bucketWidth <= 0 || n <= 0 {
		return nil, fmt.Errorf("calendar: window needs positive bucket width and count")
	}
	l, err := oneColumn(fn, in)
	if err != nil {
		return nil, err
	}
	return &MovingWindow{l: l, bucketWidth: bucketWidth, n: n, byKey: make(map[string]*winRing), merged: l.New()}, nil
}

// oneColumn compiles fn over a single column of kind in.
func oneColumn(fn aggregate.Func, in value.Kind) (*aggregate.Layout, error) {
	l, err := aggregate.NewLayout([]aggregate.Spec{{Func: fn, Col: 0}}, []value.Kind{in})
	if err != nil {
		return nil, fmt.Errorf("calendar: %w", err)
	}
	return l, nil
}

// Buckets returns the window length in buckets.
func (w *MovingWindow) Buckets() int { return w.n }

// Add folds v into key's bucket for the given chronon. Chronons must be
// non-decreasing per key (appends arrive in sequence order).
func (w *MovingWindow) Add(key string, chronon int64, v value.Value) {
	r := w.ring(key)
	w.advance(r, chronon/w.bucketWidth)
	w.l.Step(w.bucket(r, r.lastBucket), value.Tuple{v})
}

// Value derives the aggregate over the last n buckets ending at the bucket
// containing chronon — the "sum of these 30 numbers". The buckets merge
// oldest first, so FIRST and LAST see their rows in order.
func (w *MovingWindow) Value(key string, chronon int64) value.Value {
	w.merged.Reset()
	// An absent key aggregates like an empty group (COUNT 0, SUM null).
	if r, ok := w.byKey[key]; ok {
		w.advance(r, chronon/w.bucketWidth)
		for b := r.lastBucket - int64(w.n) + 1; b <= r.lastBucket; b++ {
			w.l.Merge(w.merged, w.bucket(r, b))
		}
	}
	return w.l.Result(w.merged, 0)
}

// bucket returns the group of absolute bucket b in r.
func (w *MovingWindow) bucket(r *winRing, b int64) aggregate.Group {
	i := int(b%int64(w.n)+int64(w.n)) % w.n
	nw, ns := w.l.Words(), w.l.Strs()
	return aggregate.Group{Words: r.words[i*nw : (i+1)*nw], Strs: r.strs[i*ns : (i+1)*ns]}
}

func (w *MovingWindow) ring(key string) *winRing {
	r, ok := w.byKey[key]
	if !ok {
		r = &winRing{words: make([]uint64, w.n*w.l.Words()), strs: make([]string, w.n*w.l.Strs())}
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
	if bucket-r.lastBucket >= int64(w.n) {
		clear(r.words)
		clear(r.strs)
	} else {
		for b := r.lastBucket + 1; b <= bucket; b++ {
			w.bucket(r, b).Reset()
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
	l      *aggregate.Layout
	window int64 // chronon span covered
	byKey  map[string][]event
}

type event struct {
	chronon int64
	v       value.Value
}

// NewNaiveWindow creates the re-aggregating baseline covering a span of
// window chronons, aggregating fn over values of kind in.
func NewNaiveWindow(fn aggregate.Func, in value.Kind, window int64) (*NaiveWindow, error) {
	if window <= 0 {
		return nil, fmt.Errorf("calendar: window span must be positive")
	}
	l, err := oneColumn(fn, in)
	if err != nil {
		return nil, err
	}
	return &NaiveWindow{l: l, window: window, byKey: make(map[string][]event)}, nil
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
	g := w.l.New()
	for _, e := range w.byKey[key] {
		if e.chronon > chronon-w.window && e.chronon <= chronon {
			w.l.Step(g, value.Tuple{e.v})
		}
	}
	return w.l.Result(g, 0)
}
