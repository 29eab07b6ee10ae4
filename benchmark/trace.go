package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"chronicledb"
	"chronicledb/internal/btree"
	"chronicledb/internal/chronicle"
	"chronicledb/internal/dedup"
	"chronicledb/internal/feed"
	"chronicledb/internal/keyenc"
	"chronicledb/internal/server"
	"chronicledb/internal/sqlparse"
	"chronicledb/internal/value"
	"chronicledb/internal/wal"
)

// The traced run attributes time to layers from outside the program. It
// never looks inside a call: it pushes the workload's own request sequence
// through successively taller stacks, each entered through a public
// function, and a layer's self time is its rung's median minus the rung
// below. Three sources feed the per-layer metrics:
//
//	L  the ladder below
//	D  direct timed calls to one layer's public functions on generated rows
//	C  counters the database already exports, as deltas over a timed phase
//	   of the workload itself, which the traced run first runs in full,
//	   untraced
//
// Every timed call is one span (name, parent rung, request, start, end),
// kept in memory and written out at the end.

// perLayer is BENCHMARK.json's per_layer list: the ten demoted end-to-end
// metrics (measured by the workload itself, in full and untraced, before the
// ladder starts), then the layers. A metric the workload does not have is
// printed nowhere and reads 0 in the result line, which must carry them all.
func perLayer() []metricDef { return append(demoted(), layers...) }

var layers = []metricDef{
	// L: the append ladder, bottom to top.
	{"engine.base_us_per_row", "us/row"},
	{"maint.self_us_per_row", "us/row"},
	{"shard.hop_us_per_row", "us/row"},
	{"wal.write_us_per_row", "us/row"},
	{"wal.fsync_wait_us_per_req", "us"},
	{"dedup.self_us_per_row", "us/row"},
	{"feed.publish_us_per_row", "us/row"},
	{"server.append_self_us_per_req", "us"},
	{"client.append_self_us_per_req", "us"},
	// L: the read ladder.
	{"view.lookup_us", "us"},
	{"view.latest_us", "us"},
	{"exec.select_self_us", "us"},
	{"server.read_self_us", "us"},
	{"client.read_self_us", "us"},
	// L: the workload's own host against the tallest rung built like it.
	{"host.append_gap_us_per_req", "us"},
	{"host.read_gap_us", "us"},
	// D: one layer at a time.
	{"keyenc.encode_ns_per_key", "ns"},
	{"btree.insert_ns", "ns"},
	{"btree.clone_ns", "ns"},
	{"value.encode_ns_per_tuple", "ns"},
	{"wal.encode_ns_per_record", "ns"},
	{"dedup.lookup_ns", "ns"},
	{"feed.publish_ns_per_frame", "ns"},
	{"sqlparse.parse_us", "us"},
	// C: the database's own counters over the workload's timed phases.
	{"engine.maint_ns_per_row", "ns/row"},
	{"engine.maint_p99_us", "us"},
	{"algebra.shared_hits_per_batch", "count"},
	{"wal.fsyncs_per_req", "count"},
	{"wal.records_per_fsync", "count"},
	{"wal.bytes_per_row", "B/row"},
	{"dedup.hits", "count"},
	{"feed.shed_total", "count"},
	{"read.engine_lookup_p50_us", "us"},
	{"view.cache_hit_ratio", "ratio"},
	{"view.cache_evictions", "count"},
	{"storage.checkpoints", "count"},
	{"storage.ckpt_dirty_blocks", "count"},
	// Validity: non-zero means the run was overloaded, not slower.
	{"server.shed_total", "count"},
	{"client.retries", "count"},
	{"gen.late_p99_ms", "ms"},
	{"gen.late_drift_ms", "ms"},
	{"gen.discarded_attempts", "count"},
	// Tails, ungated.
	{"client.append_p99_ms", "ms"},
	{"client.lookup_p99_ms", "ms"},
	{"client.latest_p99_ms", "ms"},
	{"client.watch_p99_ms", "ms"},
	// The host rung's median over the untraced p50 of the same operation in
	// the same invocation: what timing from outside costs.
	{"trace.overhead_ratio", "ratio"},
}

// span is one timed call.
type span struct {
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	Request int    `json:"request"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

type tracer struct {
	origin time.Time
	spans  []span
	first  error
}

// call times fn as one span.
func (t *tracer) call(name, parent string, request int, fn func() error) {
	start := time.Since(t.origin)
	err := fn()
	end := time.Since(t.origin)
	t.spans = append(t.spans, span{Name: name, Parent: parent, Request: request, StartNs: int64(start), EndNs: int64(end)})
	if err != nil && t.first == nil {
		t.first = fmt.Errorf("%s request %d: %w", name, request, err)
	}
}

// warmOrCall runs request i of a rung: the first warm requests untraced (an
// error there ends the rung), the rest as spans numbered from 0.
func (t *tracer) warmOrCall(name, parent string, i, warm int, fn func() error) error {
	if i >= warm {
		t.call(name, parent, i-warm, fn)
		return nil
	}
	if err := fn(); err != nil {
		return fmt.Errorf("%s warm-up: %w", name, err)
	}
	return nil
}

// medianUs is the median duration of the spans called name, in µs.
func (t *tracer) medianUs(name string) float64 {
	var xs []float64
	for _, s := range t.spans {
		if s.Name == name {
			xs = append(xs, float64(s.EndNs-s.StartNs)/1e3)
		}
	}
	return median(xs)
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// memWriter is an http.ResponseWriter that keeps the reply in memory, so a
// call to ServeHTTP runs the whole handler and no socket.
type memWriter struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (w *memWriter) Header() http.Header         { return w.header }
func (w *memWriter) WriteHeader(status int)      { w.status = status }
func (w *memWriter) Write(p []byte) (int, error) { return w.body.Write(p) }

func serveInMemory(srv *server.Server, method, target string, body []byte) error {
	req, err := http.NewRequest(method, target, bytes.NewReader(body))
	if err != nil {
		return err
	}
	w := &memWriter{header: make(http.Header), status: http.StatusOK}
	srv.ServeHTTP(w, req)
	if w.status != http.StatusOK {
		return fmt.Errorf("HTTP %d: %s", w.status, bytes.TrimSpace(w.body.Bytes()))
	}
	return nil
}

// stack is one rung's database with what was put in front of it.
type stack struct {
	db   *chronicledb.DB
	srv  *server.Server
	cl   *server.Client
	stop []func()
	dir  string
}

func (s *stack) close() {
	for i := len(s.stop) - 1; i >= 0; i-- {
		s.stop[i]()
	}
	s.db.Close()
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// rung describes one stack of the append ladder. Each adds one thing to the
// rung before it.
type rung struct {
	name  string
	views bool
	opts  chronicledb.Options
	dir   bool
	idem  bool
	watch bool
	via   string // "", "server" or "client"
}

func appendLadder() []rung {
	r := []rung{{name: "engine.base"}}
	add := func(name string, change func(*rung)) {
		next := r[len(r)-1]
		next.name = name
		change(&next)
		r = append(r, next)
	}
	add("maint", func(x *rung) { x.views = true })
	add("shard.hop", func(x *rung) { x.opts.Shards = 1 })
	add("wal.write", func(x *rung) { x.dir = true })
	add("wal.fsync", func(x *rung) { x.opts.SyncWAL = true })
	add("dedup", func(x *rung) { x.idem = true })
	add("feed", func(x *rung) { x.opts.Feed = true; x.watch = true })
	add("server", func(x *rung) { x.via = "server" })
	add("client", func(x *rung) { x.via = "client" })
	return r
}

// build opens the rung's database, loads the workload's catalog and preload
// into it, and puts the server and client in front when the rung has them.
func (r *run) build(x rung, g *generator) (*stack, error) {
	s := &stack{}
	opts := x.opts
	if !r.sp.served {
		opts.Clock = inprocOptions().Clock // the moving windows count rows, not nanoseconds
	}
	if x.dir {
		dir, err := os.MkdirTemp(r.env.dataRoot, "ladder-")
		if err != nil {
			return nil, err
		}
		s.dir, opts.Dir = dir, dir
	}
	db, err := chronicledb.Open(opts)
	if err != nil {
		return nil, err
	}
	s.db = db
	loader := &run{sp: r.sp} // its own tiling; the bottom rung has no views
	if x.views {
		loader.views = r.views
	}
	if err := loader.load(&inprocHost{db: db}, g); err != nil {
		s.close()
		return nil, err
	}
	if x.watch {
		ctx, cancel := context.WithCancel(context.Background())
		ready, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			db.Watch(ctx, "usage", 0, false, func(ev chronicledb.WatchEvent) bool {
				if ev.Kind == chronicledb.WatchSnapshot {
					close(ready)
				}
				return true
			})
		}()
		s.stop = append(s.stop, func() { cancel(); <-done })
		select {
		case <-ready:
		case <-done:
			s.close()
			return nil, fmt.Errorf("rung %s: watch ended before its snapshot", x.name)
		}
	}
	if x.via != "" {
		s.srv = server.New(db)
	}
	if x.via == "client" {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			s.close()
			return nil, err
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() { defer close(done); server.Serve(ctx, ln, s.srv, 0, time.Second) }()
		s.stop = append(s.stop, func() { cancel(); <-done })
		s.cl = server.NewClientWith("http://"+ln.Addr().String(), server.ClientConfig{ClientID: "ladder"})
	}
	return s, nil
}

// climb pushes n requests of the workload's own append sequence through
// every rung and records one span per call.
func (r *run) climb(t *tracer, n int) (*stack, error) {
	var top *stack
	parent := ""
	for _, x := range appendLadder()[:r.sp.rungs] {
		if top != nil {
			top.close()
			top = nil
		}
		g := newGenerator(r.seed, r.accounts) // every rung gets the same requests
		s, err := r.build(x, g)
		if err != nil {
			return nil, fmt.Errorf("rung %s: %w", x.name, err)
		}
		top = s
		runtime.GC() // the rung before, and the workload's own pass, left their heaps behind
		var buf []callRow
		for i := 0; i < n+n/10; i++ {
			buf = g.batch(buf, r.sp.batch)
			id := fmt.Sprintf("l%d", i)
			var fn func() error
			switch x.via {
			case "":
				tuples := tuplesOf(buf, g.names)
				fn = func() error { _, _, err := s.db.AppendRows("calls", tuples); return err }
				if x.idem {
					fn = func() error { _, _, _, err := s.db.AppendRowsIdem("calls", tuples, "ladder", id); return err }
				}
			default:
				rows := jsonRows(buf, g.names)
				if x.via == "client" {
					fn = func() error { _, err := s.cl.AppendRowsIdem("calls", rows, id); return err }
					break
				}
				body, err := json.Marshal(server.AppendRequest{Chronicle: "calls", Rows: rows, ClientID: "ladder", RequestID: id})
				if err != nil {
					return top, err
				}
				fn = func() error { return serveInMemory(s.srv, http.MethodPost, "/append", body) }
			}
			if err := t.warmOrCall(x.name, parent, i, n/10, fn); err != nil {
				return top, err
			}
		}
		parent = x.name
	}
	return top, t.first
}

// own times n/5 traced lookups and n traced appends against the workload's
// own host, set up exactly as the untraced run sets it up. It is the top of
// both ladders: what the rungs below do not explain is the cost of that
// host being what it is (for a daemon: another process, default flags). The
// lookups come first: the read workload's host has seen no foreground append
// when its timed reads run, and appends would pin the blocks they dirty.
func (r *run) own(t *tracer, n int, appendParent, readParent string) error {
	o := newRun(r.sp, r.env, r.seed, r.scale, r.smoke)
	defer o.tearDown()
	if _, err := o.setUp(); err != nil {
		return fmt.Errorf("rung host: %w", err)
	}
	if r.sp.served { // the read ladder belongs to the HTTP workloads
		g := newGenerator(r.seed+2, r.accounts) // the read ladder's keys
		for i := 0; i < n/5; i++ {
			k := g.names[g.pickAccount()]
			t.call("host.read", readParent, i, func() error { _, _, err := o.d.lookup(k); return err })
		}
	}
	var buf []callRow
	for i := 0; i < n+n/10; i++ {
		buf = o.g.batch(buf, o.sp.batch)
		op := o.h.appendOp(buf, o.g.names, o.nextID())
		if err := t.warmOrCall("host", appendParent, i, n/10, func() error { _, _, err := op(); return err }); err != nil {
			return err
		}
	}
	return t.first
}

// descend times n summary queries through the read stacks of the top rung's
// database: the view, the statement executor, the handler, the client.
func (r *run) descend(t *tracer, s *stack, n int) error {
	g := newGenerator(r.seed+2, r.accounts)
	keys := make([]string, n)
	bodies := make(map[string][]byte) // the handler rung's requests, encoded outside its spans
	for i := range keys {
		keys[i] = g.names[g.pickAccount()]
		body, err := json.Marshal(server.Request{Stmt: lookupStmt(keys[i])})
		if err != nil {
			return err
		}
		bodies[keys[i]] = body
	}
	rungs := []struct {
		name string
		fn   func(key string) error
	}{
		{"view.lookup", func(k string) error { _, _, err := s.db.Lookup("usage", chronicledb.Str(k)); return err }},
		{"exec.select", func(k string) error { _, err := s.db.Exec(lookupStmt(k)); return err }},
		{"server.read", func(k string) error { return serveInMemory(s.srv, http.MethodPost, "/exec", bodies[k]) }},
		{"client.read", func(k string) error { _, err := s.cl.Exec(lookupStmt(k)); return err }},
	}
	parent := ""
	for _, x := range rungs {
		for i, k := range keys {
			t.call(x.name, parent, i, func() error { return x.fn(k) })
		}
		parent = x.name
	}
	for i := 0; i < n; i++ {
		t.call("view.latest", "", i, func() error { _, err := s.db.LatestViewRows("usage", latestN); return err })
	}
	return t.first
}

// drive times one layer's public function directly: chunks of calls, one
// span per chunk, and the median chunk's time per call in ns.
func (t *tracer) drive(name string, chunks, per int, fn func(i int)) float64 {
	xs := make([]float64, 0, chunks)
	for c := 0; c < chunks; c++ {
		t.call(name, "", c, func() error {
			for i := 0; i < per; i++ {
				fn(c*per + i)
			}
			return nil
		})
		last := t.spans[len(t.spans)-1]
		xs = append(xs, float64(last.EndNs-last.StartNs)/float64(per))
	}
	return median(xs)
}

var sink int // keeps the direct drives' results alive

// direct runs the D measurements on rows drawn from the workload generator.
func (r *run) direct(t *tracer, out map[string]float64) {
	g := newGenerator(r.seed+3, r.accounts)
	rows := g.batch(nil, 4096)
	tuples := make([]value.Tuple, len(rows))
	for i, row := range rows {
		tuples[i] = value.Tuple{value.Str(g.names[row.acct]), value.Int(row.minutes), value.Float(row.cost)}
	}
	const chunks, per = 40, 2000
	pick := func(i int) value.Tuple { return tuples[i%len(tuples)] }

	var buf []byte
	out["keyenc.encode_ns_per_key"] = t.drive("keyenc.encode", chunks, per, func(i int) {
		buf = keyenc.AppendCols(buf[:0], pick(i), []int{0})
		sink += len(buf)
	})
	out["value.encode_ns_per_tuple"] = t.drive("value.encode", chunks, per, func(i int) {
		buf = value.AppendTuple(buf[:0], pick(i))
		sink += len(buf)
	})

	// A tree the size of the usage view, keyed as a view store keys it.
	keys := make([][]byte, g.accounts)
	tree := btree.New[[]byte, int](func(a, b []byte) bool { return bytes.Compare(a, b) < 0 })
	for a := range keys {
		keys[a] = keyenc.AppendValue(nil, value.Str(g.names[a]))
		tree.Set(keys[a], a)
	}
	out["btree.insert_ns"] = t.drive("btree.insert", chunks, per, func(i int) {
		tree.Set(keys[rows[i%len(rows)].acct], i)
	})
	// What a copy-on-write snapshot per committed append costs the writer:
	// the clone itself is O(1), the next write copies its root-to-leaf path.
	out["btree.clone_ns"] = t.drive("btree.clone", chunks, per, func(i int) {
		snap := tree.Clone()
		tree.Set(keys[rows[i%len(rows)].acct], i)
		sink += snap.Len()
	})

	rec := wal.Record{Kind: wal.RecAppendEach, LSN: 1, SN: 1, Chronon: 1, ClientID: "bench", RequestID: "q1",
		Parts: []wal.Part{{Chronicle: "calls", Tuples: tuples[:r.sp.batch]}}}
	out["wal.encode_ns_per_record"] = t.drive("wal.encode", chunks, per/10, func(i int) {
		rec.LSN = uint64(i + 1)
		buf = wal.EncodeRecord(buf[:0], rec)
		sink += len(buf)
	})

	table := dedup.NewTable(0)
	ids := make([]string, 4096)
	for i := range ids {
		ids[i] = fmt.Sprintf("q%d", i)
		table.Put("bench", ids[i], dedup.Ack{Chronicle: "calls", FirstSN: int64(i), LastSN: int64(i), Rows: 1})
	}
	out["dedup.lookup_ns"] = t.drive("dedup.lookup", chunks, per, func(i int) {
		if _, ok := table.Lookup("bench", ids[i%len(ids)]); ok {
			sink++
		}
	})

	hub, door := feed.NewHub(feed.Config{}), feed.NewDoor()
	sub, _ := hub.Subscribe("usage", 0, false)
	var frames []*feed.Frame
	out["feed.publish_ns_per_frame"] = t.drive("feed.publish", chunks, per/10, func(i int) {
		b := hub.Begin(door)
		b.Capture("usage", uint64(i+1), []chronicle.Row{{SN: int64(i), Chronon: 1, LSN: uint64(i + 1), Vals: pick(i)}})
		b.Publish()
		frames = sub.Drain(frames[:0])
		for _, f := range frames {
			f.Release()
		}
	})
	sub.Close()

	out["sqlparse.parse_us"] = t.drive("sqlparse.parse", chunks, per/10, func(i int) {
		stmts, err := sqlparse.Parse(lookupStmt(g.names[rows[i%len(rows)].acct]))
		if err == nil {
			sink += len(stmts)
		}
	}) / 1e3
}

// runTraced is --trace 1: the workload itself in full, untraced, for the
// demoted end-to-end metrics, the counters and the tails; then the ladders and
// the direct drives.
func runTraced(sp *spec, e env, seed int64, scale float64, smoke bool, spansPath string) (output, error) {
	out, r, err := runWorkload(sp, e, seed, scale, smoke)
	out.Metrics = make(map[string]metricJSON)
	if err != nil {
		return out, err
	}

	t := &tracer{origin: time.Now()}
	m := r.diag
	for k, v := range r.m {
		m[k] = v
	}
	n := max(int(float64(sp.ladder)*scale), numSlices)
	// The rung built most like the workload's own host: over HTTP the top
	// one; in process the host is the maint rung itself.
	like, likeRead := "client", "client.read"
	if !sp.served {
		like, likeRead = "maint", ""
	}
	top, err := r.climb(t, n)
	if err == nil && sp.served {
		err = r.descend(t, top, max(n/5, numSlices))
	}
	if top != nil {
		top.close()
	}
	if err == nil {
		err = r.own(t, n, like, likeRead)
	}
	if err != nil {
		out.Correct, out.Failed = false, out.Attempted
		return out, err
	}
	r.direct(t, m)

	batch := float64(sp.batch)
	us := t.medianUs
	// self records a rung's median minus the rung below (none: the median
	// itself), per row or per request, for the rungs this workload climbs.
	self := func(metric, name, below string, per float64) {
		if us(name) > 0 {
			m[metric] = (us(name) - us(below)) / per
		}
	}
	self("engine.base_us_per_row", "engine.base", "", batch)
	self("maint.self_us_per_row", "maint", "engine.base", batch)
	self("shard.hop_us_per_row", "shard.hop", "maint", batch)
	self("wal.write_us_per_row", "wal.write", "shard.hop", batch)
	self("wal.fsync_wait_us_per_req", "wal.fsync", "wal.write", 1)
	self("dedup.self_us_per_row", "dedup", "wal.fsync", batch)
	self("feed.publish_us_per_row", "feed", "dedup", batch)
	self("server.append_self_us_per_req", "server", "feed", 1)
	self("client.append_self_us_per_req", "client", "server", 1)
	self("view.lookup_us", "view.lookup", "", 1)
	self("view.latest_us", "view.latest", "", 1)
	self("exec.select_self_us", "exec.select", "view.lookup", 1)
	self("server.read_self_us", "server.read", "exec.select", 1)
	self("client.read_self_us", "client.read", "server.read", 1)
	self("host.append_gap_us_per_req", "host", like, 1)
	self("host.read_gap_us", "host.read", likeRead, 1)
	// The top rung against the same operation untraced, where the workload
	// has it in a closed loop: appends, else lookups.
	traced, untraced, what := us("host"), r.m["append_p50_ms"]*1e3, "append_p50_ms"
	if sp.appends == 0 && sp.lookups > 0 {
		traced, untraced, what = us("host.read"), r.m["lookup_p50_ms"]*1e3, "lookup_p50_ms"
	}
	m["trace.overhead_ratio"] = ratio(traced, untraced)

	if err := t.write(spansPath); err != nil {
		return out, err
	}
	if !smoke {
		fmt.Printf("# %d spans written to %s\n", len(t.spans), spansPath)
		fmt.Printf("# append ladder, median µs per call of %d rows:", sp.batch)
		for _, x := range appendLadder()[:sp.rungs] {
			fmt.Printf(" %s %.1f", x.name, us(x.name))
		}
		fmt.Printf(" host %.1f\n", us("host"))
		if sp.served {
			fmt.Printf("# read ladder, median µs per lookup: view.lookup %.1f exec.select %.1f server.read %.1f client.read %.1f host.read %.1f\n",
				us("view.lookup"), us("exec.select"), us("server.read"), us("client.read"), us("host.read"))
		}
		fmt.Printf("# tracing overhead: top rung p50 %.1f µs against the untraced %s %.1f µs\n", traced, what, untraced)
	}
	for _, d := range perLayer() {
		v, ok := m[d.name]
		out.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
		if ok && !smoke && !slices.Contains(sp.emits, d.name) {
			fmt.Printf("%-30s %14.4f %s\n", d.name, v, d.unit)
		}
	}
	return out, nil
}
