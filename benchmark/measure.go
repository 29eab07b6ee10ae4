package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// numSlices is how many equal-count slices a closed-loop phase is cut into; a
// throughput is the median of the slices' rates, never total over elapsed,
// so one stall moves one slice and not the result.
const numSlices = 40

// quantile returns the q-quantile of xs by nearest rank. xs is sorted in
// place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q * float64(len(xs)))
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// samples holds the latencies of one phase, in order of completion, and when
// each operation was done with.
type samples struct {
	lat   []time.Duration
	done  []time.Time
	start time.Time // of the phase: the first add sets it from the operation's latency
	units int       // rows (or queries) each sample carries
}

func (s *samples) add(d time.Duration) {
	now := time.Now()
	if len(s.lat) == 0 {
		s.start = now.Add(-d)
	}
	s.lat, s.done = append(s.lat, d), append(s.done, now)
}

func (s *samples) ms(q float64) float64 {
	xs := make([]float64, len(s.lat))
	for i, d := range s.lat {
		xs[i] = float64(d) / float64(time.Millisecond)
	}
	return quantile(xs, q)
}

// rate is units per wall second in a closed loop: the median over equal-count
// slices of (units in the slice) / (time from the end of the slice before to
// the end of this one), so what the generator and the database's garbage
// collector do between two calls counts, and one stall moves one slice.
func (s *samples) rate() float64 {
	n := max(len(s.lat)/numSlices, 1)
	var rates []float64
	prev := s.start
	for hi := n; hi <= len(s.lat); hi += n {
		rates = append(rates, float64(n*s.units)/s.done[hi-1].Sub(prev).Seconds())
		prev = s.done[hi-1]
	}
	return median(rates)
}

// cpuSeconds is the CPU time a process has used: the time on a CPU of each
// of its threads from /proc/<pid>/task/*/schedstat, which counts in
// nanoseconds (utime+stime in /proc/<pid>/stat count in 10 ms ticks, too
// coarse for a block of a few hundred reads).
func cpuSeconds(pid int) (float64, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("no /proc/%d/task/*/schedstat (%v)", pid, err)
	}
	var ns float64
	for _, t := range tasks {
		data, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		fields := strings.Fields(string(data))
		if len(fields) == 0 {
			return 0, fmt.Errorf("empty %s", t)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", t, err)
		}
		ns += v
	}
	return ns / 1e9, nil
}

// peakRSSMB reads VmHWM, the peak resident set, from /proc/<pid>/status.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			if os.IsNotExist(err) {
				return nil // a segment the compactor removed mid-walk
			}
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}
