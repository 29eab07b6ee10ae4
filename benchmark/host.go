package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"chronicledb"
	"chronicledb/internal/server"
)

// host is the process that holds the database under test: this one for the
// in-process workload, a chronicled child for the HTTP ones. Every call goes
// through a public function of the root package or of server.Client, so
// loading, appending and verifying are written once against either. What only
// the HTTP workloads do (lookups, latest-N, WATCH, kill and restart) is on
// httpHost alone.
type host interface {
	exec(stmt string) error
	// appendOp converts rows outside the timed call and returns the call.
	appendOp(rows []callRow, names []string, requestID string) func() (first, last int64, err error)
	scan(v viewSpec) ([][]any, error)
	counters() (map[string]float64, error)
	pid() int
	close()
}

// watchEvent is one changefeed delivery in host-neutral form: either the
// view's rows as of the subscription, or the expression delta rows of one
// committed append with their sequence numbers.
type watchEvent struct {
	snapshot bool
	rows     [][]any
	sns      []int64
}

// ---- in-process ----

type inprocHost struct{ db *chronicledb.DB }

func openInproc(opts chronicledb.Options) (*inprocHost, error) {
	db, err := chronicledb.Open(opts)
	if err != nil {
		return nil, err
	}
	return &inprocHost{db: db}, nil
}

func (h *inprocHost) exec(stmt string) error {
	_, err := h.db.Exec(stmt)
	return err
}

func (h *inprocHost) appendOp(rows []callRow, names []string, _ string) func() (int64, int64, error) {
	tuples := tuplesOf(rows, names)
	return func() (int64, int64, error) { return h.db.AppendRows("calls", tuples) }
}

func (h *inprocHost) scan(v viewSpec) ([][]any, error) {
	if v.periodic == 0 {
		res, err := h.db.Exec("SELECT * FROM " + v.name)
		if err != nil {
			return nil, err
		}
		return rowsOf(res.Rows), nil
	}
	// A moving-window family has no SELECT; its instances are read through
	// the kernel and returned one after another (the verifier adds them up).
	pv, ok := h.db.Engine().PeriodicView(v.name)
	if !ok {
		return nil, fmt.Errorf("periodic view %s is missing", v.name)
	}
	var out [][]any
	for _, inst := range pv.Instances() {
		out = append(out, rowsOf(inst.View.Rows())...)
	}
	return out, nil
}

// counters renders the database's own counters under the names GET /stats
// uses, so both hosts are read the same way.
func (h *inprocHost) counters() (map[string]float64, error) {
	st, lat, ws, rs, fs := h.db.Stats(), h.db.MaintenanceLatency(), h.db.WALStats(), h.db.ReadStats(), h.db.FeedStats()
	_, dedupHits, _ := h.db.DedupStats()
	return map[string]float64{
		"tuples_appended":              float64(st.TuplesAppended),
		"maintenance_ns":               float64(st.MaintenanceNs),
		"maintenance_p99_ns":           float64(lat.P99),
		"maint_shared_hits":            float64(st.SharedHits),
		"read_p50_ns":                  float64(rs.Latency.P50),
		"wal_records":                  float64(ws.Records),
		"wal_fsyncs":                   float64(ws.Fsyncs),
		"commit_batch_mean":            float64(ws.Batches.Mean),
		"wal_live_bytes":               float64(ws.LiveBytes),
		"wal_reclaimed_bytes":          float64(ws.ReclaimedBytes),
		"checkpoint_full_total":        float64(ws.CheckpointsFull),
		"checkpoint_incremental_total": float64(ws.CheckpointsIncremental),
		"ckpt_dirty_blocks":            float64(ws.CkptDirtyBlocks),
		"view_cache_hits":              float64(ws.ViewCacheHits),
		"view_cache_misses":            float64(ws.ViewCacheMisses),
		"view_cache_evictions":         float64(ws.ViewCacheEvictions),
		"view_cache_bytes":             float64(ws.ViewCacheBytes),
		"dedup_hits":                   float64(dedupHits),
		"feed_dropped_slow":            float64(fs.DroppedSlow),
		"shed_total":                   0,
	}, nil
}

func (h *inprocHost) pid() int { return os.Getpid() }

func (h *inprocHost) close() { h.db.Close() }

// ---- chronicled child over HTTP ----

// countingTransport counts exchanges, so retries made inside server.Client
// show as exchanges beyond the calls the workload made.
type countingTransport struct {
	http.RoundTripper
	trips atomic.Int64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t.trips.Add(1)
	return t.RoundTripper.RoundTrip(r)
}

type httpHost struct {
	bin   string
	args  []string
	base  string
	cmd   *exec.Cmd
	log   *os.File
	cl    *server.Client
	raw   *http.Client
	trips *countingTransport
	calls atomic.Int64 // logical calls made through cl and raw
}

// startChronicled launches the daemon on dir with the workload's flags and
// waits until it answers its health check.
func startChronicled(bin, dir, logPath string, flags []string) (*httpHost, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	tr := &countingTransport{RoundTripper: &http.Transport{MaxIdleConnsPerHost: 4, IdleConnTimeout: time.Minute}}
	h := &httpHost{
		bin:   bin,
		args:  append([]string{"-addr", addr, "-dir", dir}, flags...),
		base:  "http://" + addr,
		log:   logf,
		trips: tr,
		raw:   &http.Client{Transport: tr, Timeout: 30 * time.Second},
	}
	h.cl = server.NewClientWith(h.base, server.ClientConfig{Transport: tr, ClientID: "bench"})
	if err := h.start(); err != nil {
		logf.Close()
		return nil, err
	}
	return h, nil
}

func (h *httpHost) start() error {
	h.cmd = exec.Command(h.bin, h.args...)
	h.cmd.Stdout, h.cmd.Stderr = h.log, h.log
	// However this process ends, the daemon ends with it.
	h.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := h.cmd.Start(); err != nil {
		return err
	}
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		h.calls.Add(1)
		resp, err := h.raw.Get(h.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	h.kill()
	return fmt.Errorf("chronicled did not become healthy; see %s", h.log.Name())
}

func (h *httpHost) kill() {
	if h.cmd != nil && h.cmd.Process != nil {
		h.cmd.Process.Signal(syscall.SIGKILL)
		h.cmd.Wait()
		h.cmd = nil
	}
}

func (h *httpHost) exec(stmt string) error {
	h.calls.Add(1)
	_, err := h.cl.Exec(stmt)
	return err
}

func (h *httpHost) appendOp(rows []callRow, names []string, requestID string) func() (int64, int64, error) {
	body := jsonRows(rows, names)
	return func() (int64, int64, error) {
		h.calls.Add(1)
		ack, err := h.cl.AppendRowsIdem("calls", body, requestID)
		if err != nil {
			return 0, 0, err
		}
		return ack.FirstSN, ack.LastSN, nil
	}
}

func (h *httpHost) lookup(acct string) ([]any, bool, error) {
	h.calls.Add(1)
	res, err := h.cl.Exec(lookupStmt(acct))
	if err != nil || len(res.Rows) == 0 {
		return nil, false, err
	}
	return res.Rows[0], true, nil
}

func (h *httpHost) latest(view string, n int) ([][]any, error) {
	h.calls.Add(1)
	resp, err := h.raw.Get(h.base + "/latest?view=" + view + "&n=" + strconv.Itoa(n))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /latest: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(buf.String()))
	}
	var out server.Response
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		return nil, err
	}
	return out.Rows, nil
}

func (h *httpHost) scan(v viewSpec) ([][]any, error) {
	h.calls.Add(1)
	res, err := h.cl.Exec("SELECT * FROM " + v.name)
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

func (h *httpHost) watch(ctx context.Context, view string, fn func(watchEvent) bool) error {
	h.calls.Add(1)
	return h.cl.Watch(ctx, view, 0, false, func(ev server.WatchEvent) bool {
		switch ev.Kind {
		case server.WatchSnapshot:
			return fn(watchEvent{snapshot: true, rows: ev.Rows})
		case server.WatchDelta:
			out := watchEvent{rows: make([][]any, len(ev.Deltas)), sns: make([]int64, len(ev.Deltas))}
			for i, d := range ev.Deltas {
				out.rows[i], out.sns[i] = d.Vals, d.SN
			}
			return fn(out)
		}
		return true
	})
}

func (h *httpHost) counters() (map[string]float64, error) {
	h.calls.Add(1)
	raw, err := h.cl.Stats()
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(raw))
	for k, v := range raw {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out, nil
}

// retries is how many exchanges server.Client made beyond one per call.
func (h *httpHost) retries() int64 { return h.trips.trips.Load() - h.calls.Load() }

func (h *httpHost) pid() int { return h.cmd.Process.Pid }

// reopen abandons the database the hard way and brings it back on the same
// directory: SIGKILL, then a new daemon that answers its health check.
func (h *httpHost) reopen() error {
	h.kill()
	return h.start()
}

func (h *httpHost) close() {
	h.kill()
	h.log.Close()
}

// ---- shared helpers ----

// tuplesOf and jsonRows put generated rows in the form the typed API and
// the HTTP API take them.
func tuplesOf(rows []callRow, names []string) []chronicledb.Tuple {
	out := make([]chronicledb.Tuple, len(rows))
	for i, r := range rows {
		out[i] = chronicledb.Tuple{chronicledb.Str(names[r.acct]), chronicledb.Int(r.minutes), chronicledb.Float(r.cost)}
	}
	return out
}

func jsonRows(rows []callRow, names []string) [][]any {
	out := make([][]any, len(rows))
	for i, r := range rows {
		out[i] = []any{names[r.acct], r.minutes, r.cost}
	}
	return out
}

func lookupStmt(acct string) string { return "SELECT * FROM usage WHERE acct = '" + acct + "'" }

// cellsOf renders a typed row the way the server's JSON does: strings stay
// strings, every number becomes float64.
func cellsOf(t chronicledb.Row) []any {
	out := make([]any, len(t))
	for i, v := range t {
		switch {
		case v.IsNumeric():
			out[i] = v.AsFloat()
		case v.IsNull():
			out[i] = nil
		default:
			out[i] = v.AsString()
		}
	}
	return out
}

func rowsOf(rows []chronicledb.Row) [][]any {
	out := make([][]any, len(rows))
	for i, r := range rows {
		out[i] = cellsOf(r)
	}
	return out
}
