package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"chronicledb"
)

// refSeconds is the run length the operation counts below were calibrated
// for on the reference host (2 cores): at --seconds 20 a whole run, set-up
// and verification included, takes 20 s of wall time there when the host is
// at its usual speed (mixed-open: 31 s), and the driver's 92 runs fit in its
// 3420 s with the host up to 1.8 times slower than that, which it is for
// minutes at a time. Another --seconds scales every count by
// seconds/refSeconds, so the work of a run is fixed by its arguments and never
// by how fast the host happens to be.
const refSeconds = 20

// openLoop describes the fixed-rate schedule of the mixed-open workload.
type openLoop struct {
	seconds                  float64 // at refSeconds
	appendsPerS, lookupsPerS int
}

// spec is one workload: which process holds the database, with which flags
// and catalog, which timed phases it runs with how many operations, and
// which of the twelve end-to-end metrics those phases give.
type spec struct {
	name     string
	why      string
	served   bool     // a chronicled child over HTTP; otherwise chronicledb.Open in this process
	flags    []string // chronicled flags beyond -addr and -dir
	views    func() []viewSpec
	accounts int // keys are Zipf(1.1) over this many accounts; usage holds one group for each
	batch    int // rows per append call
	setups   int // set-ups per run; setup_s is their median
	emits    []string

	// Operations per timed phase at refSeconds (closed loop, one connection);
	// a phase with a zero count is not run.
	appends, lookups, latests int
	open                      *openLoop

	background bool // a second connection appends bgRows rows bgPerS times a second beside the read phases
	pagedCache bool // -view-cache-bytes is half the checkpointed view size, so reads page blocks
	reopen     bool // SIGKILL the daemon after the timed phases, restart it, verify

	// The traced run's ladder: how many of the append rungs apply to this
	// workload, and how many traced requests each takes at refSeconds (the
	// read ladder takes a fifth as many lookups).
	rungs, ladder int
}

const (
	bgPerS  = 100
	bgRows  = 4
	latestN = 20
)

var specs = []spec{
	{
		name:  "maintain-fanout",
		why:   "in-process, memory only, 64 views under 8 shared prefixes: dispatch, shared delta, per-view fold, keyenc and btree do the work; server, JSON, dedup, WAL and fsync do none",
		views: fanoutCatalog, accounts: 20000, batch: 64, setups: 1,
		emits:   []string{"setup_s", "append_rows_per_s", "append_p50_ms", "cpu_us_per_row", "rss_mb"},
		appends: 1200,
		// Above shard.hop the rungs add a directory, a WAL, dedup, a feed
		// and a server, none of which this workload has; a 64-row call into 64
		// views costs four hundred times a 16-row one into two.
		rungs: 3, ladder: 100,
	},
	{
		name: "ingest-http", served: true,
		why:   "16-row idempotent appends on one connection to a durable daemon with two cheap views: HTTP, JSON, admission, dedup, WAL write and group-commit wait dominate, maintenance is small",
		flags: []string{"-sync", "-checkpoint-every", "0"},
		views: servedCatalog, accounts: 20000, batch: 16, setups: 5,
		emits:   []string{"setup_s", "append_rows_per_s", "append_p50_ms", "reopen_s", "disk_bytes_per_row", "cpu_us_per_row", "rss_mb"},
		appends: 20000, reopen: true,
		rungs: 9, ladder: 1500,
	},
	{
		name: "read-http", served: true,
		why:   "point summary queries and latest-N on one connection against a view twice the size of the block cache, beside a 100 req/s appender: parse, plan, view scan, block cache and JSON encode do the work",
		flags: []string{"-sync"},
		views: servedCatalog, accounts: 1000, batch: 16, setups: 15,
		emits:   []string{"setup_s", "lookup_per_s", "lookup_p50_ms", "latest_p50_ms", "cpu_us_per_read", "rss_mb"},
		lookups: 5000, latests: 3000,
		background: true, pagedCache: true,
		rungs: 9, ladder: 1500,
	},
	{
		name: "mixed-open", served: true,
		why:   "open loop at fixed rates, appends and lookups on one connection and a WATCH stream on a second, with timed checkpoints: a write-path gain that taxes readers, or the reverse, shows here",
		flags: []string{"-sync", "-feed", "-checkpoint-every", "5s"},
		views: servedCatalog, accounts: 1000, batch: 8, setups: 15,
		emits: []string{"setup_s", "append_p50_ms", "lookup_p50_ms", "watch_p50_ms", "rss_mb"},
		open:  &openLoop{seconds: 30, appendsPerS: 200, lookupsPerS: 100},
		rungs: 9, ladder: 1500,
	},
}

// flushPolicy is the same wherever a workload is durable, and is printed.
const flushPolicy = "group commit: one fsync acknowledges each append call (-sync)"

func findSpec(name string) (*spec, error) {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i], nil
		}
	}
	var names []string
	for _, s := range specs {
		names = append(names, s.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// env is where a run finds its binary and puts its data.
type env struct {
	chronicled string // path of the built daemon
	dataRoot   string // directory for database dirs, on tmpfs when there is one
	logDir     string
	active     *atomic.Pointer[run] // the run a signal has to tear down
}

// run is one execution of one workload.
type run struct {
	sp       *spec
	env      env
	seed     int64
	scale    float64
	smoke    bool // the tier-1 test: a fortieth of the accounts, one set-up
	accounts int
	views    []viewSpec

	h     host
	d     *httpHost // h again when the workload is served, for what only a daemon does
	g     *generator
	dir   string
	tiles tiler
	reqs  atomic.Int64

	attempted, failed atomic.Int64
	errMu             sync.Mutex
	firstErr          error // guarded by errMu while the background appender runs

	m    map[string]float64 // end-to-end metrics
	diag map[string]float64 // what the traced run reports beside the layer ladder
	info []string           // lines for the header
}

func newRun(sp *spec, e env, seed int64, scale float64, smoke bool) *run {
	r := &run{sp: sp, env: e, seed: seed, scale: scale, smoke: smoke, accounts: sp.accounts,
		m: make(map[string]float64), diag: make(map[string]float64)}
	if smoke {
		r.accounts = sp.accounts / 40
	}
	r.views = sp.views()
	return r
}

// inprocOptions is how the in-process workload opens its database: memory
// only. The clock ticks once per appended row, starting a full window in, so
// every row lies in exactly windowWidth/windowEvery instances of each moving
// window and the windows are the same from run to run.
func inprocOptions() chronicledb.Options {
	tick := int64(windowWidth)
	return chronicledb.Options{Clock: func() int64 { tick++; return tick }}
}

func (r *run) count(n int) int {
	c := int(float64(n) * r.scale)
	if c < numSlices {
		c = numSlices
	}
	return c
}

// fail records a failed operation; the first cause is what the run reports.
func (r *run) fail(err error) {
	r.failed.Add(1)
	r.errMu.Lock()
	if r.firstErr == nil {
		r.firstErr = err
	}
	r.errMu.Unlock()
}

// check counts one attempted operation and its failure, if any.
func (r *run) check(err error) {
	r.attempted.Add(1)
	if err != nil {
		r.fail(err)
	}
}

func (r *run) nextID() string {
	return fmt.Sprintf("q%d", r.reqs.Add(1))
}

// sendAppend makes one append call, timed around the call alone, and checks
// its acknowledgement tiles with the previous one.
func (r *run) sendAppend(h host, g *generator, rows []callRow) time.Duration {
	op := h.appendOp(rows, g.names, r.nextID())
	t0 := time.Now()
	first, last, err := op()
	d := time.Since(t0)
	if err == nil {
		err = r.tiles.ack(first, last, len(rows))
	}
	r.check(err)
	return d
}

// ---- set-up ----

// load creates the catalog, fills customers, and appends one row for every
// account in key order, so usage holds exactly one group per account and the
// highest keys are known.
func (r *run) load(h host, g *generator) error {
	stmts := []string{callsDDL, customersDDL}
	for _, v := range r.views {
		stmts = append(stmts, v.ddl)
	}
	for _, s := range stmts {
		if err := h.exec(s); err != nil {
			return fmt.Errorf("%s: %w", s, err)
		}
	}
	const chunk = 1000
	var rows []callRow
	for lo := 0; lo < g.accounts; lo += chunk {
		var sb strings.Builder
		sb.WriteString("UPSERT INTO customers VALUES ")
		rows = rows[:0]
		for a := lo; a < min(lo+chunk, g.accounts); a++ {
			if a > lo {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "('%s', '%s', '%s')", g.names[a], stateOf(a), planOf(a))
			rows = append(rows, g.rowFor(a))
		}
		if err := h.exec(sb.String()); err != nil {
			return fmt.Errorf("loading customers: %w", err)
		}
		if r.sendAppend(h, g, rows); r.firstErr != nil {
			return fmt.Errorf("preloading calls: %w", r.firstErr)
		}
	}
	return nil
}

// setUp brings one database to the state the first timed operation needs:
// directory, catalog, preload, daemon start, warm-up. It is run sp.setups
// times and the last instance is kept; setup_s is the median.
func (r *run) setUp() (time.Duration, error) {
	t0 := time.Now()
	r.tiles, r.g = tiler{}, newGenerator(r.seed, r.accounts)
	if !r.sp.served {
		h, err := openInproc(inprocOptions())
		if err != nil {
			return 0, err
		}
		r.h = h
		if err := r.load(h, r.g); err != nil {
			return 0, err
		}
	} else {
		dir, err := os.MkdirTemp(r.env.dataRoot, r.sp.name+"-")
		if err != nil {
			return 0, err
		}
		r.dir = dir
		// Bulk-load in this process and checkpoint, then let the daemon
		// recover from that: the view's blocks are then clean on disk, which
		// is what lets a bounded cache page them.
		pre, err := openInproc(chronicledb.Options{Dir: dir, SyncWAL: true, Shards: runtime.GOMAXPROCS(0)})
		if err != nil {
			return 0, err
		}
		if err := r.load(pre, r.g); err != nil {
			pre.close()
			return 0, err
		}
		if err := pre.db.Checkpoint(); err != nil {
			pre.close()
			return 0, err
		}
		viewBytes := pre.db.WALStats().ViewCacheBytes
		if err := pre.db.Close(); err != nil {
			return 0, err
		}
		flags := r.sp.flags
		if r.sp.pagedCache {
			flags = append(flags[:len(flags):len(flags)], "-view-cache-bytes", fmt.Sprint(viewBytes/2))
			r.info = append(r.info[:0], fmt.Sprintf("view state %d bytes checkpointed, block cache %d bytes", viewBytes, viewBytes/2))
		}
		d, err := startChronicled(r.env.chronicled, dir, filepath.Join(r.env.logDir, filepath.Base(dir)+".log"), flags)
		if err != nil {
			return 0, err
		}
		r.h, r.d = d, d
	}
	// Touch the paths the timed phases use; each timed phase then runs its
	// own tenth as warm-up before its clock starts. The read workload makes
	// no foreground append: one would dirty, and so pin, the view's blocks.
	if r.sp.appends > 0 || r.sp.open != nil {
		r.appendCalls(nil, numSlices)
	}
	if r.sp.lookups > 0 || r.sp.open != nil {
		r.readCalls(nil, numSlices, r.oneLookup)
	}
	if r.firstErr != nil {
		return 0, fmt.Errorf("warm-up: %w", r.firstErr)
	}
	return time.Since(t0), nil
}

// tearDown stops the database's process and removes its directory.
func (r *run) tearDown() {
	if r.h != nil {
		r.h.close()
		r.h, r.d = nil, nil
	}
	if r.dir != "" {
		os.RemoveAll(r.dir)
		r.dir = ""
	}
}

// ---- closed-loop phases ----

// timed runs body between two readings of the database process's CPU time
// and returns the CPU seconds it used.
func (r *run) timed(body func()) float64 {
	runtime.GC()
	c0, err0 := cpuSeconds(r.h.pid())
	body()
	c1, err1 := cpuSeconds(r.h.pid())
	if err := errors.Join(err0, err1); err != nil {
		r.fail(err)
	}
	return c1 - c0
}

// appendCalls makes n append calls in a closed loop; with s nil they are
// warm-up.
func (r *run) appendCalls(s *samples, n int) {
	var buf []callRow
	for i := 0; i < n; i++ {
		buf = r.g.batch(buf, r.sp.batch)
		if d := r.sendAppend(r.h, r.g, buf); s != nil {
			s.add(d)
		}
	}
}

// appendPhase is the one timed phase of the two append workloads: a fixed
// count of append calls on one connection (one goroutine in process), after
// a tenth as many as warm-up.
func (r *run) appendPhase() {
	n := r.count(r.sp.appends)
	r.appendCalls(nil, n/10)
	var disk0, disk1 int64
	var err0, err1 error
	if r.dir != "" {
		disk0, err0 = dirBytes(r.dir)
	}
	c0 := r.counters()
	s := &samples{units: r.sp.batch}
	cpu := r.timed(func() { r.appendCalls(s, n) })
	c1 := r.counters()
	rows := float64(n * r.sp.batch)
	r.m["append_rows_per_s"] = s.rate()
	r.m["append_p50_ms"] = s.ms(0.5)
	r.m["cpu_us_per_row"] = cpu * 1e6 / rows
	if r.dir != "" {
		// No checkpoint runs (-checkpoint-every 0), so what the directory
		// grew by is the log of exactly these rows.
		disk1, err1 = dirBytes(r.dir)
		if err := errors.Join(err0, err1); err != nil {
			r.fail(err)
		}
		r.m["disk_bytes_per_row"] = float64(disk1-disk0) / rows
	}
	r.diag["client.append_p99_ms"] = s.ms(0.99)
	r.counterDiag(delta(c0, c1), c1, rows, float64(n))
}

// oneLookup asks for one account's usage row, notes when the reply arrived,
// and then checks it against the fold.
func (r *run) oneLookup() (replied time.Time) {
	a := r.g.pickAccount()
	cells, found, err := r.d.lookup(r.g.names[a])
	replied = time.Now()
	if err == nil && !found {
		err = fmt.Errorf("lookup of %s found no row", r.g.names[a])
	}
	if err == nil {
		err = checkUsageCells(cells, r.g.names[a], r.g.byAcct[0][a])
	}
	r.check(err)
	return replied
}

// oneLatest asks for the view's highest keys, notes when the reply arrived,
// and then checks keys and values.
func (r *run) oneLatest() (replied time.Time) {
	rows, err := r.d.latest("usage", latestN)
	replied = time.Now()
	if err == nil && len(rows) != latestN {
		err = fmt.Errorf("latest returned %d rows, want %d", len(rows), latestN)
	}
	for i := 0; err == nil && i < latestN; i++ {
		a := r.g.accounts - 1 - i
		err = checkUsageCells(rows[i], r.g.names[a], r.g.byAcct[0][a])
	}
	r.check(err)
	return replied
}

// readCalls runs op n times in a closed loop, timing each up to its reply;
// with s nil they are warm-up.
func (r *run) readCalls(s *samples, n int, op func() time.Time) {
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if replied := op(); s != nil {
			s.add(replied.Sub(t0))
		}
	}
}

// startBackground appends bgRows rows bgPerS times a second over the
// background accounts until the returned stop is called, so the view's
// copy-on-write snapshots keep turning over under the readers. It owns the
// acknowledgement tiling while it runs: the foreground only reads.
func (r *run) startBackground(g *generator) (stop func()) {
	if !r.sp.background {
		return func() {}
	}
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		var buf []callRow
		next := time.Now()
		for {
			next = next.Add(time.Second / bgPerS)
			select {
			case <-quit:
				return
			case <-time.After(time.Until(next)):
			}
			buf = g.bgBatch(buf, bgRows)
			r.sendAppend(r.h, g, buf)
		}
	}()
	return func() { close(quit); <-done }
}

// readPhases are the two timed phases of the read workload, one after the
// other on one connection: point summary queries, then latest-N, each after a
// tenth as many as warm-up, both beside the background appender.
func (r *run) readPhases() {
	lookups, latests := r.count(r.sp.lookups), r.count(r.sp.latests)
	bg := newGenerator(r.seed+1, r.accounts)
	stop := r.startBackground(bg)
	r.readCalls(nil, lookups/10, r.oneLookup)
	c0 := r.counters()
	ls := &samples{units: 1}
	cpu := r.timed(func() { r.readCalls(ls, lookups, r.oneLookup) })
	c1 := r.counters()
	r.readCalls(nil, latests/10, r.oneLatest)
	ts := &samples{units: 1}
	r.readCalls(ts, latests, r.oneLatest)
	stop()
	r.g.absorb(bg)

	r.m["lookup_per_s"] = ls.rate()
	r.m["lookup_p50_ms"] = ls.ms(0.5)
	r.m["cpu_us_per_read"] = cpu * 1e6 / float64(lookups)
	r.m["latest_p50_ms"] = ts.ms(0.5)
	r.diag["client.lookup_p99_ms"] = ls.ms(0.99)
	r.diag["client.latest_p99_ms"] = ts.ms(0.99)
	d := delta(c0, c1)
	r.readDiag(d, c1)
	if r.sp.pagedCache {
		// What makes this the larger-than-cache workload; say so if it stops.
		note := fmt.Sprintf("the view cache evicted %.0f blocks over the %d timed lookups", d["view_cache_evictions"], lookups)
		if d["view_cache_evictions"] == 0 {
			note += ": WARNING, the reads are not paging"
		}
		r.info = append(r.info, note)
	}
}

// ---- the run ----

func (r *run) execute() error {
	began := time.Now()
	var setups []float64
	for i := 0; i < r.sp.setups && (i == 0 || !r.smoke); i++ {
		r.tearDown()
		d, err := r.setUp()
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	r.m["setup_s"] = median(setups)
	setUp := time.Since(began)
	if rss, err := peakRSSMB(r.h.pid()); err == nil {
		r.info = append(r.info, fmt.Sprintf("peak resident set after set-up %.1f MB", rss))
	}

	if r.sp.appends > 0 {
		r.appendPhase()
	}
	if r.sp.lookups > 0 {
		r.readPhases()
	}
	if r.sp.open != nil {
		if err := r.openPhases(); err != nil {
			return err
		}
	}
	if r.firstErr != nil {
		return r.firstErr
	}
	phases := time.Since(began) - setUp
	defer func() {
		r.info = append(r.info, fmt.Sprintf("wall time: set-up %.1f s, timed phases with their warm-up %.1f s, reopen and verification %.1f s",
			setUp.Seconds(), phases.Seconds(), (time.Since(began)-setUp-phases).Seconds()))
	}()
	// The peak of the process that served the timed phases: a reopened
	// daemon is another process.
	rss, err := peakRSSMB(r.h.pid())
	if err != nil {
		return err
	}
	r.m["rss_mb"] = rss
	if err := r.notOverloaded(); err != nil {
		r.fail(err)
		return err
	}

	if r.sp.reopen {
		t0 := time.Now()
		err := r.d.reopen()
		if err == nil {
			err = verifyView(r.h, r.views[0], r.g)
		}
		r.m["reopen_s"] = time.Since(t0).Seconds()
		if r.check(err); err != nil {
			return fmt.Errorf("reopen: %w", err)
		}
	}
	err = verifyViews(r.h, r.views, r.g)
	r.check(err)
	return err
}

// notOverloaded is the validity check of the HTTP workloads: a reply the
// server shed or the client had to retry means the run measured an overloaded
// server, not a slower one, and is refused.
func (r *run) notOverloaded() error {
	if r.d == nil {
		return nil
	}
	shed := r.counters()["shed_total"]
	r.diag["server.shed_total"] = shed
	r.diag["client.retries"] = float64(r.d.retries())
	if shed != 0 || r.d.retries() != 0 {
		return fmt.Errorf("overloaded: the server shed %v requests and the client retried %d", shed, r.d.retries())
	}
	return nil
}
