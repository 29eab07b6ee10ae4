// Package stats provides a compact log-bucketed latency histogram used by
// the engine to track per-append maintenance latency percentiles — the
// operational face of the paper's IM complexity classes: an SCA₁ view
// keeps the tail flat no matter how long the system has been recording.
package stats

import (
	"math/bits"
	"time"
)

// bucketCount covers 1ns to ~9.2s in power-of-two buckets (2^63 ns).
const bucketCount = 64

// Histogram is a fixed-size, allocation-free latency histogram with
// power-of-two buckets. The zero value is ready to use. It is not
// synchronized; the engine updates it under its own mutex.
type Histogram struct {
	buckets [bucketCount]uint64
	count   uint64
	sum     uint64
	min     uint64
	max     uint64
}

// Observe records one duration (negative durations count as zero).
func (h *Histogram) Observe(d time.Duration) {
	ns := uint64(0)
	if d > 0 {
		ns = uint64(d)
	}
	h.buckets[bucketOf(ns)]++
	h.count++
	h.sum += ns
	if h.count == 1 || ns < h.min {
		h.min = ns
	}
	if ns > h.max {
		h.max = ns
	}
}

// bucketOf maps a nanosecond value to its power-of-two bucket index:
// bucket i holds values in [2^(i-1)+1 … 2^i], with bucket 0 holding 0..1.
func bucketOf(ns uint64) int {
	if ns <= 1 {
		return 0
	}
	return bits.Len64(ns - 1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Mean returns the mean observation.
func (h *Histogram) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.sum / h.count)
}

// Min returns the smallest observation.
func (h *Histogram) Min() time.Duration { return time.Duration(h.min) }

// Max returns the largest observation.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max) }

// Quantile returns an upper bound for the q-quantile (0 ≤ q ≤ 1): the top
// of the bucket containing it. Power-of-two buckets bound the error by 2×.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Rank of the target observation, 1-based.
	rank := uint64(q*float64(h.count-1)) + 1
	var seen uint64
	for i, c := range h.buckets {
		seen += c
		if seen >= rank {
			if i == 0 {
				return time.Duration(1)
			}
			return time.Duration(uint64(1) << uint(i))
		}
	}
	return time.Duration(h.max)
}

// Merge folds another histogram into h.
func (h *Histogram) Merge(o *Histogram) {
	if o.count == 0 {
		return
	}
	for i := range h.buckets {
		h.buckets[i] += o.buckets[i]
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.count += o.count
	h.sum += o.sum
}

// Reset clears the histogram.
func (h *Histogram) Reset() { *h = Histogram{} }

// Snapshot is a rendered summary.
type Snapshot struct {
	Count          uint64
	Mean, Min, Max time.Duration
	P50, P95, P99  time.Duration
}

// Snapshot summarizes the histogram.
func (h *Histogram) Snapshot() Snapshot {
	return Snapshot{
		Count: h.count,
		Mean:  h.Mean(),
		Min:   h.Min(),
		Max:   h.Max(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
}
