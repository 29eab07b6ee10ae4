package stats

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestEmptyHistogram(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Error("empty histogram should report zeros")
	}
	if s := h.Snapshot(); s != (Snapshot{}) {
		t.Errorf("empty snapshot = %+v", s)
	}
}

func TestBucketOf(t *testing.T) {
	for _, tc := range []struct {
		ns   uint64
		want int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}, {1024, 10}, {1025, 11},
	} {
		if got := bucketOf(tc.ns); got != tc.want {
			t.Errorf("bucketOf(%d) = %d, want %d", tc.ns, got, tc.want)
		}
	}
}

func TestObserveBasics(t *testing.T) {
	var h Histogram
	for _, d := range []time.Duration{10, 20, 30, 40, 50} {
		h.Observe(d)
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d", h.Count())
	}
	if h.Mean() != 30 {
		t.Errorf("Mean = %v", h.Mean())
	}
	if h.Min() != 10 || h.Max() != 50 {
		t.Errorf("Min/Max = %v/%v", h.Min(), h.Max())
	}
	h.Observe(-5) // clamps to zero
	if h.Min() != 0 {
		t.Errorf("negative observation: Min = %v", h.Min())
	}
}

// TestQuantileUpperBound: the reported quantile is an upper bound within 2×
// of the exact empirical quantile.
func TestQuantileUpperBound(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var h Histogram
	var all []uint64
	for i := 0; i < 10000; i++ {
		ns := uint64(rng.Intn(1_000_000)) + 1
		all = append(all, ns)
		h.Observe(time.Duration(ns))
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for _, q := range []float64{0, 0.5, 0.9, 0.95, 0.99, 1} {
		exact := all[int(q*float64(len(all)-1))]
		got := uint64(h.Quantile(q))
		if got < exact {
			t.Errorf("q=%v: bound %d below exact %d", q, got, exact)
		}
		if got > 2*exact {
			t.Errorf("q=%v: bound %d more than 2x exact %d", q, got, exact)
		}
	}
	// Out-of-range q clamps.
	if h.Quantile(-1) != h.Quantile(0) || h.Quantile(2) != h.Quantile(1) {
		t.Error("quantile clamping")
	}
}

func TestMergeEqualsCombined(t *testing.T) {
	f := func(a, b []uint16) bool {
		var ha, hb, combined Histogram
		for _, v := range a {
			ha.Observe(time.Duration(v))
			combined.Observe(time.Duration(v))
		}
		for _, v := range b {
			hb.Observe(time.Duration(v))
			combined.Observe(time.Duration(v))
		}
		ha.Merge(&hb)
		if ha.Count() != combined.Count() || ha.Mean() != combined.Mean() ||
			ha.Min() != combined.Min() || ha.Max() != combined.Max() {
			return false
		}
		for _, q := range []float64{0.5, 0.95} {
			if ha.Quantile(q) != combined.Quantile(q) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReset(t *testing.T) {
	var h Histogram
	h.Observe(time.Millisecond)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 {
		t.Error("Reset incomplete")
	}
}

func TestSnapshot(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	s := h.Snapshot()
	if s.Count != 100 || s.P50 == 0 || s.P99 < s.P50 {
		t.Errorf("snapshot = %+v", s)
	}
}
