package bench

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	chronicledb "chronicledb"
)

// RunE17 — lock-free snapshot reads under concurrent maintenance. Each
// cell runs a fixed wall-clock window with the given number of appenders
// (driving append→delta→maintain→publish) and readers (point lookups
// against the summary view), and reports aggregate read throughput and
// sampled p99 read latency. Reads traverse the atomically-published
// immutable B-tree clone and never touch the engine lock, so appenders
// cannot block readers and vice versa — the claim is that read latency stays
// flat as appenders are added. The comparison rows — every read through the
// engine mutex, the read path before snapshot publication — came from an
// ablation switch that PR 20 deleted; the numbers it produced are frozen in
// EXPERIMENTS.md E17.
func RunE17(cfg Config) (*Table, error) {
	window := 300 * time.Millisecond
	appenders := []int{0, 1, 4, 16}
	readers := []int{1, 4, 16}
	if cfg.Quick {
		window = 60 * time.Millisecond
		appenders = []int{0, 4}
		readers = []int{1, 4}
	}
	t := &Table{
		ID:     "E17",
		Title:  "read path: snapshot traversal under concurrent maintenance",
		Claim:  "summary queries are cheap lookups against the materialized view (Section 5); lookups against an immutable published snapshot must not serialize behind maintenance, so read p99 stays flat as appenders are added",
		Header: []string{"mode", "appenders", "readers", "reads/sec", "read p99", "appends/sec"},
	}
	for _, ap := range appenders {
		for _, rd := range readers {
			row, err := e17Cell(ap, rd, window)
			if err != nil {
				return nil, err
			}
			t.AddRow(row...)
		}
	}
	t.Notes = append(t.Notes,
		"each cell: in-memory DB, one indexed SUM/COUNT view over 512 groups; readers loop point lookups over rotating keys, appenders loop single-row appends; p99 from per-reader latency samples (every 8th op)",
		"the engine-locked comparison rows are recorded in EXPERIMENTS.md E17 (frozen at PR 19: locked p99 8–16.6µs against 2–3µs here once any appender runs); the switch that produced them is gone",
		fmt.Sprintf("window %s per cell; single-host numbers — on few-core machines readers and appenders time-share, so throughput splits rather than scales", window))
	return t, nil
}

// e17Cell measures one (appenders, readers) combination.
func e17Cell(appenders, readers int, window time.Duration) ([]string, error) {
	db, err := chronicledb.Open(chronicledb.Options{})
	if err != nil {
		return nil, err
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE CHRONICLE calls (acct STRING, minutes INT);
		CREATE VIEW usage AS SELECT acct, SUM(minutes) AS total, COUNT(*) AS n
		FROM calls GROUP BY acct WITH STORE BTREE`); err != nil {
		return nil, err
	}
	const groups = 512
	seed := make([]chronicledb.Tuple, groups)
	for i := range seed {
		seed[i] = chronicledb.Tuple{chronicledb.Str(Acct(i)), chronicledb.Int(int64(i % 90))}
	}
	if _, _, err := db.AppendRows("calls", seed); err != nil {
		return nil, err
	}

	var stop atomic.Bool
	var readOps, appendOps atomic.Int64
	errs := make([]error, appenders+readers)
	var wg sync.WaitGroup
	samples := make([][]int64, readers)

	for w := 0; w < appenders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := w
			for !stop.Load() {
				if _, err := db.Append("calls", chronicledb.Tuple{
					chronicledb.Str(Acct(i % groups)), chronicledb.Int(int64(i % 90)),
				}); err != nil {
					errs[w] = err
					return
				}
				i++
				appendOps.Add(1)
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			lat := make([]int64, 0, 1<<15)
			i := r
			for !stop.Load() {
				sample := i%8 == 0 && len(lat) < cap(lat)
				var t0 time.Time
				if sample {
					t0 = time.Now()
				}
				_, ok, err := db.Lookup("usage", chronicledb.Str(Acct(i%groups)))
				if err != nil || !ok {
					errs[appenders+r] = fmt.Errorf("lookup %d: ok=%v err=%v", i, ok, err)
					return
				}
				if sample {
					lat = append(lat, time.Since(t0).Nanoseconds())
				}
				i++
				readOps.Add(1)
			}
			samples[r] = lat
		}(r)
	}

	time.Sleep(window)
	stop.Store(true)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	var all []int64
	for _, s := range samples {
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	p99 := "-"
	if len(all) > 0 {
		idx := len(all) * 99 / 100
		if idx >= len(all) {
			idx = len(all) - 1
		}
		p99 = fmtNs(float64(all[idx]))
	}
	sec := window.Seconds()
	return []string{
		"snapshot", fmtCount(appenders), fmtCount(readers),
		fmt.Sprintf("%.0f", float64(readOps.Load())/sec),
		p99,
		fmt.Sprintf("%.0f", float64(appendOps.Load())/sec),
	}, nil
}
