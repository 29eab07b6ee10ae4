package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// scheduled is one operation of the open-loop schedule.
type scheduled struct {
	due  time.Duration // from the start of the phase
	kind int           // index into the schedule's rates
}

const (
	opAppend = iota
	opLookup
)

// lookupOffset puts a lookup just after an append's due time. On one
// connection an operation that falls due while another is being served waits
// for it; with even spacing from a common origin a lookup and an append would
// be due at the same instant every time, and which of the two waited would be
// decided by the sort.
const lookupOffset = 800 * time.Microsecond

// schedule lays rate × seconds operations of each kind at even spacing and
// returns them in due order.
func schedule(seconds float64, rates [2]int) []scheduled {
	var out []scheduled
	for kind, rate := range rates {
		gap := time.Second / time.Duration(rate)
		for i := 0; i < int(seconds*float64(rate)); i++ {
			out = append(out, scheduled{due: time.Duration(kind)*lookupOffset + gap*time.Duration(i), kind: kind})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].due < out[j].due })
	return out
}

// driftWindow is the stretch at each end of the open-loop phase over which
// the generator's lateness is compared, and maxDriftMs what the later one may
// exceed the earlier by: more means a backlog was growing, and the latencies
// are those of an overloaded server. At the frozen rates the daemon is busy a
// fifth of the time, so when that happens it is the host that stalled (one
// measurement in seven, on this one: for seconds at a time every request
// takes 5 to 10 ms); the measurement is discarded and made again on a fresh
// database, and the run fails only if openAttempts in a row end that way.
const (
	driftWindow  = 5 * time.Second
	maxDriftMs   = 1.0
	openAttempts = 4
)

// watcher follows the usage view's changefeed on its own connection. It
// folds the snapshot and every delta row into its own copy of the view and
// stamps the arrival of each request's last row.
type watcher struct {
	cancel context.CancelFunc
	done   chan error
	ready  chan struct{}

	mu    sync.Mutex
	state map[string][]float64 // the view as the stream describes it
	bad   error

	base    int64 // SN of the first row of request 0
	batch   int64
	sent    []atomic.Int64 // per request: when it was sent (or due), UnixNano
	arrived []atomic.Int64 // per request: when its last delta row arrived
	seen    atomic.Int64   // highest SN delivered
}

func (r *run) startWatcher(requests int) (*watcher, error) {
	ctx, cancel := context.WithCancel(context.Background())
	w := &watcher{
		cancel: cancel, done: make(chan error, 1), ready: make(chan struct{}),
		base: r.tiles.next, batch: int64(r.sp.batch),
		sent: make([]atomic.Int64, requests), arrived: make([]atomic.Int64, requests),
	}
	go func() {
		w.done <- r.d.watch(ctx, "usage", w.deliver)
	}()
	select {
	case <-w.ready:
		return w, nil
	case err := <-w.done:
		cancel()
		return nil, fmt.Errorf("watch ended before its snapshot: %v", err)
	case <-time.After(30 * time.Second):
		cancel()
		<-w.done
		return nil, fmt.Errorf("watch delivered no snapshot in 30s")
	}
}

func (w *watcher) deliver(ev watchEvent) bool {
	now := time.Now().UnixNano()
	w.mu.Lock()
	defer w.mu.Unlock()
	if ev.snapshot {
		if w.state != nil {
			// The stream was shed and came back beyond the server's resume
			// window; its deltas no longer line up with the requests sent.
			w.bad = fmt.Errorf("watch stream sent a second snapshot")
			return false
		}
		state, err := normalize(ev.rows, 1)
		w.state, w.bad = state, err
		close(w.ready)
		return err == nil
	}
	// A delta row is the view's expression output for one appended tuple:
	// (acct, minutes, cost). Folding it is the view's own summarization.
	for i, row := range ev.rows {
		acct, ok0 := row[0].(string)
		minutes, ok1 := row[1].(float64)
		cost, ok2 := row[2].(float64)
		if len(row) != 3 || !ok0 || !ok1 || !ok2 {
			w.bad = fmt.Errorf("unexpected delta row %v", row)
			return false
		}
		g := w.state[acct]
		if g == nil {
			g = make([]float64, 3)
			w.state[acct] = g
		}
		g[0] += minutes
		g[1] += cost
		g[2]++
		sn := ev.sns[i]
		if rel := sn - w.base; rel >= 0 && rel%w.batch == w.batch-1 && int(rel/w.batch) < len(w.arrived) {
			w.arrived[rel/w.batch].Store(now)
		}
		w.seen.Store(sn)
	}
	return true
}

// finish waits for the stream to deliver everything up to lastSN, stops it,
// and checks that snapshot plus deltas equal the view.
func (w *watcher) finish(lastSN int64, want map[string][]float64) (*samples, error) {
	deadline := time.Now().Add(30 * time.Second)
	for w.seen.Load() < lastSN && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	w.cancel()
	<-w.done
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.bad != nil {
		return nil, w.bad
	}
	if got := w.seen.Load(); got < lastSN {
		return nil, fmt.Errorf("watch stream stopped at SN %d, the last ack was %d", got, lastSN)
	}
	s := &samples{units: 1}
	for i := range w.arrived {
		at, from := w.arrived[i].Load(), w.sent[i].Load()
		if at == 0 || from == 0 {
			return nil, fmt.Errorf("request %d's rows never arrived on the watch stream", i)
		}
		s.add(time.Duration(at - from))
	}
	return s, sameGroups("usage (snapshot + deltas)", w.state, want)
}

// openPhase is the mixed-open workload's one timed phase: a due-time-ordered
// schedule of appends and lookups sent on one connection whatever the replies
// take, beside one WATCH stream on a second. Every latency is taken from the
// time the operation was due, so a stall is charged to all the operations it
// delays, and how late the generator itself ran is reported. It returns how
// much later the generator ran at the end of the phase than at its start.
func (r *run) openPhase() (driftMs float64) {
	o := r.sp.open
	plan := schedule(o.seconds*r.scale, [2]int{o.appendsPerS, o.lookupsPerS})
	var n [2]int
	for _, ev := range plan {
		n[ev.kind]++
	}
	w, err := r.startWatcher(n[opAppend])
	if r.check(err); err != nil {
		return 0
	}
	lat := [2]*samples{{units: r.sp.batch}, {units: 1}}
	late := &samples{}
	rows0 := r.g.rows
	c0 := r.counters()
	var buf []callRow
	start := time.Now()
	sent := 0
	for _, ev := range plan {
		due := start.Add(ev.due)
		// Prepare before waiting, so only the call itself follows the due
		// time.
		op := r.oneLookup
		if ev.kind == opAppend {
			buf = r.g.batch(buf, r.sp.batch)
			call := r.h.appendOp(buf, r.g.names, r.nextID())
			w.sent[sent].Store(due.UnixNano())
			sent++
			op = func() time.Time {
				first, last, err := call()
				replied := time.Now()
				if err == nil {
					err = r.tiles.ack(first, last, r.sp.batch)
				}
				r.check(err)
				return replied
			}
		}
		sleepUntil(due)
		late.add(time.Since(due))
		lat[ev.kind].add(op().Sub(due))
	}
	c1 := r.counters()
	ws, err := w.finish(r.tiles.next-1, r.views[0].expect(r.g))
	if r.check(err); err != nil {
		return 0
	}

	r.m["append_p50_ms"] = lat[opAppend].ms(0.5)
	r.m["lookup_p50_ms"] = lat[opLookup].ms(0.5)
	r.m["watch_p50_ms"] = ws.ms(0.5)

	r.diag["client.append_p99_ms"] = lat[opAppend].ms(0.99)
	r.diag["client.lookup_p99_ms"] = lat[opLookup].ms(0.99)
	r.diag["client.watch_p99_ms"] = ws.ms(0.99)
	r.diag["gen.late_p99_ms"] = late.ms(0.99)
	// A backlog that grows shows as the generator running later at the end
	// of the phase than at its start.
	var head, tail samples
	end := plan[len(plan)-1].due
	windows := make([]samples, end/driftWindow+1)
	for i, ev := range plan {
		if ev.due < driftWindow {
			head.add(late.lat[i])
		}
		if ev.due >= end-driftWindow {
			tail.add(late.lat[i])
		}
		windows[ev.due/driftWindow].add(late.lat[i])
	}
	note := fmt.Sprintf("generator lateness, median and p90 in ms over each %v:", driftWindow)
	for i := range windows {
		note += fmt.Sprintf(" %.3f/%.3f", windows[i].ms(0.5), windows[i].ms(0.9))
	}
	r.info = append(r.info, note)
	drift := tail.ms(0.5) - head.ms(0.5)
	r.diag["gen.late_drift_ms"] = drift
	d := delta(c0, c1)
	r.counterDiag(d, c1, float64(r.g.rows-rows0), float64(n[opAppend]))
	r.readDiag(d, c1)
	return drift
}

// openPhases runs the open-loop phase until one measurement ends without a
// backlog, each on a fresh database.
func (r *run) openPhases() error {
	for attempt := 1; ; attempt++ {
		drift := r.openPhase()
		r.diag["gen.discarded_attempts"] = float64(attempt - 1)
		if drift <= maxDriftMs || r.firstErr != nil {
			return nil
		}
		note := fmt.Sprintf("attempt %d discarded: the generator ran %.3f ms later over the last %v than over the first", attempt, drift, driftWindow)
		if attempt == openAttempts {
			r.fail(fmt.Errorf("overloaded: %s", note))
			return nil
		}
		r.info = append(r.info, note)
		r.tearDown()
		if _, err := r.setUp(); err != nil {
			return fmt.Errorf("set-up for attempt %d: %w", attempt+1, err)
		}
	}
}

// sleepUntil waits for due without the millisecond rounding of time.Sleep
// (the runtime's timers wake through epoll, which counts in milliseconds):
// it blocks in nanosleep until shortly before, then spins the remainder.
func sleepUntil(due time.Time) {
	const spin = 300 * time.Microsecond
	if wait := time.Until(due) - spin; wait > 0 {
		ts := syscall.NsecToTimespec(int64(wait))
		syscall.Nanosleep(&ts, nil)
	}
	for time.Now().Before(due) {
	}
}

func checkpoints(c map[string]float64) float64 {
	return c["checkpoint_full_total"] + c["checkpoint_incremental_total"]
}

// counters reads the database's own counters; a failure to read them fails
// the run.
func (r *run) counters() map[string]float64 {
	c, err := r.h.counters()
	if err != nil {
		r.fail(fmt.Errorf("reading counters: %w", err))
		return map[string]float64{}
	}
	return c
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// delta is what every counter grew by between two readings.
func delta(c0, c1 map[string]float64) map[string]float64 {
	d := make(map[string]float64, len(c1))
	for k, v := range c1 {
		d[k] = v - c0[k]
	}
	return d
}

// counterDiag turns what the counters grew by over the append phase (d), and
// their last reading, into the per-layer figures the traced run prints.
func (r *run) counterDiag(d, last map[string]float64, rows, requests float64) {
	r.diag["engine.maint_ns_per_row"] = ratio(d["maintenance_ns"], rows)
	r.diag["engine.maint_p99_us"] = last["maintenance_p99_ns"] / 1e3
	r.diag["algebra.shared_hits_per_batch"] = ratio(d["maint_shared_hits"], requests)
	r.diag["wal.fsyncs_per_req"] = ratio(d["wal_fsyncs"], requests)
	r.diag["wal.records_per_fsync"] = ratio(d["wal_records"], d["wal_fsyncs"])
	r.diag["wal.bytes_per_row"] = ratio(d["wal_live_bytes"]+d["wal_reclaimed_bytes"], rows)
	r.diag["dedup.hits"] = d["dedup_hits"]
	r.diag["feed.shed_total"] = last["feed_dropped_slow"]
	r.diag["storage.checkpoints"] = checkpoints(d)
	r.diag["storage.ckpt_dirty_blocks"] = last["ckpt_dirty_blocks"]
}

// readDiag does the same over the lookup phase.
func (r *run) readDiag(d, last map[string]float64) {
	r.diag["view.cache_hit_ratio"] = ratio(d["view_cache_hits"], d["view_cache_hits"]+d["view_cache_misses"])
	r.diag["view.cache_evictions"] = d["view_cache_evictions"]
	r.diag["read.engine_lookup_p50_us"] = last["read_p50_ns"] / 1e3
}
