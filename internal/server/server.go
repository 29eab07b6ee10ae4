// Package server exposes a chronicle database over HTTP/JSON — the
// transaction-recording service shape the paper's applications (billing,
// banking, cellular) take in practice. One endpoint executes statements;
// appends return only after every affected persistent view is maintained,
// so a subsequent summary query is guaranteed current (the ATM-balance
// requirement from the paper's introduction).
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	chronicledb "chronicledb"
	"chronicledb/internal/value"
)

// Request is the body of POST /exec.
type Request struct {
	Stmt string `json:"stmt"`
}

// AppendRequest is the body of POST /append: a bulk, JSON-native append
// path that skips SQL parsing — the shape a high-rate transaction recorder
// actually feeds the server. Each row's cells must match the chronicle
// schema (JSON numbers land as int or float per the column kind).
//
// A request carrying a (client_id, request_id) pair is idempotent: the
// server remembers its ack in the WAL-logged, checkpointed dedup table, so
// retrying the same pair — across timeouts, duplicated deliveries, even a
// server crash-and-reopen — returns the original sequence-number range
// instead of re-applying the rows.
type AppendRequest struct {
	Chronicle string  `json:"chronicle"`
	Rows      [][]any `json:"rows"`
	ClientID  string  `json:"client_id,omitempty"`
	RequestID string  `json:"request_id,omitempty"`
}

// AppendResponse acknowledges a bulk append. Deduped reports that this
// request was already applied and the ack is the remembered original.
type AppendResponse struct {
	FirstSN int64 `json:"first_sn"`
	LastSN  int64 `json:"last_sn"`
	Rows    int   `json:"rows"`
	Deduped bool  `json:"deduped,omitempty"`
}

// Response is the body of every successful /exec reply.
type Response struct {
	Columns []string `json:"columns,omitempty"`
	Rows    [][]any  `json:"rows,omitempty"`
	Message string   `json:"message,omitempty"`
}

// errorBody is the JSON error envelope. Code distinguishes 503 flavors so
// clients can pick the right recovery: "read-only" is permanent until
// operator action, "not-primary" and "stale-replica" mean this endpoint is
// the wrong (or lagging) member of a replicated deployment — retry against
// another endpoint.
type errorBody struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// 503 error codes.
const (
	codeReadOnly     = "read-only"
	codeNotPrimary   = "not-primary"
	codeStaleReplica = "stale-replica"
)

// Config tunes the HTTP surface.
type Config struct {
	// MaxBodyBytes bounds every request body; 0 means the 8 MiB default.
	MaxBodyBytes int64
	// RequestTimeout bounds one request's handling (write path included);
	// 0 means the 30 s default. Applied by Serve, not by the bare handler.
	RequestTimeout time.Duration
	// MaxInFlight bounds concurrently executing write requests (/exec and
	// /append); 0 means the default (64). Reads are never gated.
	MaxInFlight int
	// MaxQueue bounds write requests waiting for an in-flight slot; beyond
	// it the server sheds load with 429 + Retry-After instead of letting
	// queues (and client timeouts) grow without bound. 0 means the default
	// (128); negative means no queue at all (shed the moment every
	// in-flight slot is taken).
	MaxQueue int
	// RetryAfter is the backoff hint sent with 429 responses; 0 means 1s.
	RetryAfter time.Duration
	// MaxSubscribers bounds concurrently connected /watch subscribers; 0
	// means the default (4096). This is a separate gate from MaxInFlight:
	// a watcher flood sheds watchers with 429, it never consumes the write
	// path's in-flight slots — and a write burst never sheds watchers.
	MaxSubscribers int
	// Heartbeat is the keep-alive cadence on idle /watch streams; 0 means
	// the 10 s default. Each heartbeat carries the subscriber's cursor so a
	// reconnect after silence still resumes at the right LSN.
	Heartbeat time.Duration
	// ReplHeartbeat is the cadence of /repl/stream heartbeats carrying the
	// primary's durable cursor — the clock followers measure staleness
	// against; 0 means the 500 ms default.
	ReplHeartbeat time.Duration
}

const (
	defaultMaxBody        = 8 << 20
	defaultRequestTimeout = 30 * time.Second
	defaultMaxInFlight    = 64
	defaultMaxQueue       = 128
	defaultRetryAfter     = time.Second
	defaultMaxSubs        = 4096
	defaultHeartbeat      = 10 * time.Second
	defaultReplHeartbeat  = 500 * time.Millisecond
)

// Server serves a DB over HTTP.
type Server struct {
	db      *chronicledb.DB
	mux     *http.ServeMux
	maxBody int64

	// Admission control for the write endpoints: inflight is a semaphore
	// of executing requests, queued counts requests waiting for a slot,
	// and shed counts requests turned away with 429. Distinct from the
	// read-only 503 path: 429 is transient pressure (retry after backoff),
	// 503 is a durability failure (retrying is pointless until an operator
	// intervenes).
	inflight   chan struct{}
	maxQueue   int64
	queued     atomic.Int64
	shed       atomic.Int64
	retryAfter time.Duration

	// Subscriber admission for /watch: its own semaphore, deliberately not
	// the write path's inflight channel, so watchers and appenders cannot
	// starve each other. watchShed counts subscriptions turned away.
	watchers  chan struct{}
	watchShed atomic.Int64
	heartbeat time.Duration
	// writeWindow bounds each individual write on a /watch stream — the
	// stream as a whole is unbounded (it is exempt from the request
	// timeout), so a stalled client is detected per event, not per request.
	writeWindow time.Duration
	// drainCh closes when Serve begins a graceful shutdown: every live
	// /watch stream ends with a terminal bye{reason:drain} event carrying
	// its cursor instead of hanging until a timeout kills the connection.
	drainCh   chan struct{}
	drainOnce sync.Once
	// replHeartbeat is the /repl/stream cursor-advertisement cadence.
	replHeartbeat time.Duration
}

// New wraps db in an HTTP handler with default limits.
func New(db *chronicledb.DB) *Server { return NewWith(db, Config{}) }

// NewWith wraps db in an HTTP handler.
func NewWith(db *chronicledb.DB, cfg Config) *Server {
	s := &Server{db: db, mux: http.NewServeMux(), maxBody: cfg.MaxBodyBytes}
	if s.maxBody <= 0 {
		s.maxBody = defaultMaxBody
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = defaultMaxInFlight
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = defaultMaxQueue
	} else if cfg.MaxQueue < 0 {
		cfg.MaxQueue = 0
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = defaultRetryAfter
	}
	if cfg.MaxSubscribers <= 0 {
		cfg.MaxSubscribers = defaultMaxSubs
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = defaultHeartbeat
	}
	if cfg.ReplHeartbeat <= 0 {
		cfg.ReplHeartbeat = defaultReplHeartbeat
	}
	s.replHeartbeat = cfg.ReplHeartbeat
	s.inflight = make(chan struct{}, cfg.MaxInFlight)
	s.maxQueue = int64(cfg.MaxQueue)
	s.retryAfter = cfg.RetryAfter
	s.watchers = make(chan struct{}, cfg.MaxSubscribers)
	s.heartbeat = cfg.Heartbeat
	s.writeWindow = cfg.RequestTimeout
	if s.writeWindow <= 0 {
		s.writeWindow = defaultRequestTimeout
	}
	s.drainCh = make(chan struct{})
	s.mux.HandleFunc("POST /exec", s.admit(s.handleExec))
	s.mux.HandleFunc("POST /append", s.admit(s.handleAppend))
	s.mux.HandleFunc("GET /watch", s.handleWatch)
	s.mux.HandleFunc("GET /latest", s.handleLatest)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	// Replication: the stream/snapshot/ack surface exists whenever this
	// database can serve as a log-shipping source (durable segmented
	// layout) — a follower registers it too, so a promoted follower serves
	// its surviving peers without a restart. /promote always exists; on a
	// primary it is an idempotent no-op.
	if db.ReplSource() != nil {
		s.mux.HandleFunc("GET /repl/stream", s.handleReplStream)
		s.mux.HandleFunc("GET /repl/snapshot", s.handleReplSnapshot)
		s.mux.HandleFunc("POST /repl/ack", s.handleReplAck)
	}
	s.mux.HandleFunc("POST /promote", s.handlePromote)
	// Live profiling of the serving process: allocation and CPU profiles of
	// the append hot path without stopping the server.
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return s
}

// admit wraps a write handler with admission control. Up to MaxInFlight
// requests execute at once; up to MaxQueue more wait for a slot; beyond
// that the server sheds the request immediately with 429 and a Retry-After
// hint, so overload produces fast, honest backpressure instead of a queue
// whose wait time exceeds every client's deadline. Read endpoints
// (/stats, /healthz, /latest) stay open — an overloaded server must remain
// observable.
func (s *Server) admit(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.inflight <- struct{}{}:
		default:
			if s.queued.Add(1) > s.maxQueue {
				s.queued.Add(-1)
				s.shed.Add(1)
				s.writeOverloaded(w)
				return
			}
			select {
			case s.inflight <- struct{}{}:
				s.queued.Add(-1)
			case <-r.Context().Done():
				// The client gave up (or the request timed out) while
				// queued; count it as shed — the work was never admitted.
				s.queued.Add(-1)
				s.shed.Add(1)
				s.writeOverloaded(w)
				return
			}
		}
		defer func() { <-s.inflight }()
		h(w, r)
	}
}

// writeOverloaded emits the 429 shed response with its Retry-After hint.
func (s *Server) writeOverloaded(w http.ResponseWriter) {
	secs := int(s.retryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeError(w, http.StatusTooManyRequests, fmt.Errorf("server overloaded; retry after %ds", secs))
}

// Overloaded reports whether a write request arriving now would be shed:
// every in-flight slot is taken and the wait queue is full.
func (s *Server) Overloaded() bool {
	return len(s.inflight) == cap(s.inflight) && s.queued.Load() >= s.maxQueue
}

// beginDrain tells every live /watch stream to end with a terminal bye
// event. Idempotent; called by Serve before shutting the listener down.
func (s *Server) beginDrain() { s.drainOnce.Do(func() { close(s.drainCh) }) }

// ServeHTTP implements http.Handler: request bodies are bounded and a
// handler panic becomes a 500 instead of killing the connection.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if rec := recover(); rec != nil {
			log.Printf("server: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, rec, debug.Stack())
			writeError(w, http.StatusInternalServerError, fmt.Errorf("internal error"))
		}
	}()
	if r.Body != nil {
		r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	}
	s.mux.ServeHTTP(w, r)
}

// Serve runs s on ln with per-request timeouts until ctx is canceled,
// then shuts down gracefully: stop accepting, drain in-flight requests
// (bounded by drainTimeout), and flush+sync the database's WAL so
// everything acked is durable on SIGTERM, not just on crash-free exit.
func Serve(ctx context.Context, ln net.Listener, s *Server, requestTimeout, drainTimeout time.Duration) error {
	if requestTimeout <= 0 {
		requestTimeout = defaultRequestTimeout
	}
	// /watch streams for as long as the subscriber stays connected, so it
	// must bypass the per-request timeout wrapper and the server-wide
	// read/write timeouts (either would sever every stream at the deadline).
	// Request-shaped endpoints keep their bound via http.TimeoutHandler plus
	// explicit per-request connection deadlines; the watch handler guards
	// itself with a per-event write deadline instead.
	timed := http.TimeoutHandler(s, requestTimeout, `{"error":"request timed out"}`)
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// /repl/stream is a long-lived frame stream and /repl/snapshot can
		// exceed any per-request bound on a big database; both guard
		// themselves (per-write deadlines; snapshot sends Content-Length)
		// instead of using the timeout wrapper.
		if r.URL.Path == "/watch" || r.URL.Path == "/repl/stream" || r.URL.Path == "/repl/snapshot" {
			s.ServeHTTP(w, r)
			return
		}
		rc := http.NewResponseController(w)
		rc.SetReadDeadline(time.Now().Add(requestTimeout))
		rc.SetWriteDeadline(time.Now().Add(requestTimeout + 5*time.Second))
		timed.ServeHTTP(w, r)
	})
	srv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Tell live streams to say goodbye before Shutdown starts waiting on
	// them: each emits bye{reason:drain,lsn:cursor} and returns, so the
	// graceful drain completes instead of timing out under open streams.
	s.beginDrain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	shutdownErr := srv.Shutdown(shutdownCtx)
	if err := s.db.Flush(); err != nil && shutdownErr == nil {
		shutdownErr = fmt.Errorf("server: flushing WAL on shutdown: %w", err)
	}
	return shutdownErr
}

func (s *Server) handleExec(w http.ResponseWriter, r *http.Request) {
	var req Request
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, decodeStatus(err), fmt.Errorf("bad request body: %w", err))
		return
	}
	if req.Stmt == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing stmt"))
		return
	}
	if !s.staleGate(w) {
		return // follower past its staleness bound: no reads either
	}
	res, err := s.db.Exec(req.Stmt)
	if err != nil {
		writeError(w, execStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, toResponse(res))
}

// decodeStatus maps a body-decode failure to its status: an oversized
// body (http.MaxBytesReader tripped) is 413, anything else 400.
func decodeStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// execStatus maps an execution failure to its status: a degraded
// (read-only) database and a replica rejecting writes both serve 503 so
// clients and load balancers redirect; everything else is the statement's
// fault, 422. The 503 flavors stay distinguishable via errorBody.Code.
func execStatus(err error) int {
	if errors.Is(err, chronicledb.ErrReadOnly) || errors.Is(err, chronicledb.ErrNotPrimary) {
		return http.StatusServiceUnavailable
	}
	return http.StatusUnprocessableEntity
}

// staleGate fails a follower read with 503 "stale-replica" when the
// replica has exceeded its configured staleness bound — clients retry
// another endpoint instead of reading arbitrarily old state. Returns true
// when the read may proceed.
func (s *Server) staleGate(w http.ResponseWriter) bool {
	if !s.db.Stale() {
		return true
	}
	lagLSN, lagAge := s.db.ReplLag()
	writeErrorCode(w, http.StatusServiceUnavailable, codeStaleReplica,
		fmt.Errorf("replica lag (%d lsn, %s) exceeds the staleness bound", lagLSN, lagAge.Round(time.Millisecond)))
	return false
}

func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	var req AppendRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, decodeStatus(err), fmt.Errorf("bad request body: %w", err))
		return
	}
	if req.Chronicle == "" || len(req.Rows) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("chronicle and rows required"))
		return
	}
	c, ok := s.db.Chronicle(req.Chronicle)
	if !ok {
		writeError(w, http.StatusUnprocessableEntity, fmt.Errorf("unknown chronicle %q", req.Chronicle))
		return
	}
	schema := c.Schema()
	tuples := make([]value.Tuple, len(req.Rows))
	for i, raw := range req.Rows {
		tuple, err := tupleFromJSON(schema, raw)
		if err != nil {
			writeError(w, http.StatusUnprocessableEntity, fmt.Errorf("row %d: %w", i, err))
			return
		}
		tuples[i] = tuple
	}
	// One bulk call: each row is still its own transaction with its own SN,
	// but the whole run crosses the shard queue once and is one maintenance
	// round and one publication. With an idempotency pair the run is atomic
	// and remembered, so retries return the original ack.
	if req.ClientID != "" || req.RequestID != "" {
		if req.ClientID == "" || req.RequestID == "" {
			writeError(w, http.StatusBadRequest, fmt.Errorf("client_id and request_id must be set together"))
			return
		}
		firstSN, lastSN, deduped, err := s.db.AppendRowsIdem(req.Chronicle, tuples, req.ClientID, req.RequestID)
		if err != nil {
			writeError(w, execStatus(err), err)
			return
		}
		// Row count derives from the ack, so a deduped reply reports what
		// was originally applied.
		writeJSON(w, http.StatusOK, AppendResponse{FirstSN: firstSN, LastSN: lastSN, Rows: int(lastSN-firstSN) + 1, Deduped: deduped})
		return
	}
	firstSN, lastSN, err := s.db.AppendRows(req.Chronicle, tuples)
	if err != nil {
		writeError(w, execStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, AppendResponse{FirstSN: firstSN, LastSN: lastSN, Rows: len(req.Rows)})
}

// tupleFromJSON converts one JSON row to a typed tuple per the schema.
func tupleFromJSON(schema *value.Schema, raw []any) (value.Tuple, error) {
	if len(raw) != schema.Len() {
		return nil, fmt.Errorf("arity %d, schema needs %d", len(raw), schema.Len())
	}
	out := make(value.Tuple, len(raw))
	for i, cell := range raw {
		col := schema.Col(i)
		switch cell := cell.(type) {
		case nil:
			out[i] = value.Null()
		case bool:
			out[i] = value.Bool(cell)
		case string:
			out[i] = value.Str(cell)
		case float64: // every JSON number
			switch col.Kind {
			case value.KindInt:
				n := int64(cell)
				if float64(n) != cell {
					return nil, fmt.Errorf("column %q expects int, got %v", col.Name, cell)
				}
				out[i] = value.Int(n)
			case value.KindTime:
				out[i] = value.Chronon(int64(cell))
			default:
				out[i] = value.Float(cell)
			}
		default:
			return nil, fmt.Errorf("column %q: unsupported JSON value %T", col.Name, cell)
		}
	}
	return out, nil
}

// handleLatest answers GET /latest?view=NAME&n=N: the view's last n rows
// by group key, highest first — a descending lock-free walk of the view's
// key order that stops after n rows. Dashboards poll it for
// "most recent groups" without paying for a full materialization.
func (s *Server) handleLatest(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("view")
	if name == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing view parameter"))
		return
	}
	n := 10
	if raw := r.URL.Query().Get("n"); raw != "" {
		parsed, err := strconv.Atoi(raw)
		if err != nil || parsed <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("n must be a positive integer"))
			return
		}
		n = parsed
	}
	if !s.staleGate(w) {
		return
	}
	v, ok := s.db.View(name)
	if !ok {
		writeError(w, http.StatusUnprocessableEntity, fmt.Errorf("unknown view %q", name))
		return
	}
	rows, err := s.db.LatestViewRows(name, n)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusOK, toResponse(&chronicledb.Result{Columns: v.Schema().Names(), Rows: rows}))
}

// Metrics is the database's stats list followed by the server's own five
// entries: admission control and /watch subscriber admission.
func (s *Server) Metrics() []chronicledb.Metric {
	return append(s.db.Metrics(),
		chronicledb.Metric{Name: "in_flight", Unit: "requests", Help: "write requests executing now", Value: int64(len(s.inflight))},
		chronicledb.Metric{Name: "queue_depth", Unit: "requests", Help: "write requests waiting for an in-flight slot", Value: s.queued.Load()},
		chronicledb.Metric{Name: "shed_total", Unit: "requests", Help: "write requests turned away with 429", Health: true, Value: s.shed.Load()},
		chronicledb.Metric{Name: "watch_active", Unit: "subscribers", Help: "/watch streams connected now", Value: int64(len(s.watchers))},
		chronicledb.Metric{Name: "watch_shed_total", Unit: "subscribers", Help: "/watch subscriptions turned away with 429", Health: true, Value: s.watchShed.Load()},
	)
}

// handleStats answers GET /stats: every metric, by name.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	ms := s.Metrics()
	body := make(map[string]any, len(ms))
	for _, m := range ms {
		body[m.Name] = m.Value
	}
	writeJSON(w, http.StatusOK, body)
}

// handleHealth answers 200 while the database accepts writes, 429 while
// admission control is shedding (transient — retry after backoff), and 503
// once it has degraded to read-only (permanent until operator action) or,
// on a follower, gone past its staleness bound (load balancers route reads
// to a healthier member) — the shape load balancers and operators poll. The
// body is the status, the error when there is one, and every health metric;
// all values are strings so pollers can decode into a flat map, and the
// keys are the same in every state.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	code, body := http.StatusOK, map[string]string{"status": "ok"}
	ro, cause := s.db.ReadOnly()
	switch {
	case s.db.Stale():
		code, body["status"], body["error"] = http.StatusServiceUnavailable, "stale", "replica lag exceeds the staleness bound"
	case ro:
		code, body["status"] = http.StatusServiceUnavailable, "degraded"
		if cause != nil {
			body["error"] = cause.Error()
		}
	case s.Overloaded():
		code, body["status"], body["error"] = http.StatusTooManyRequests, "overloaded", "admission queue full"
	}
	for _, m := range s.Metrics() {
		if m.Health {
			body[m.Name] = fmt.Sprint(m.Value)
		}
	}
	writeJSON(w, code, body)
}

func toResponse(res *chronicledb.Result) Response {
	out := Response{Columns: res.Columns, Message: res.Message}
	for _, row := range res.Rows {
		out.Rows = append(out.Rows, jsonValues(row))
	}
	return out
}

// jsonValues copies a tuple into its wire shape.
func jsonValues(t value.Tuple) []any {
	vals := make([]any, len(t))
	for i, v := range t {
		vals[i] = jsonValue(v)
	}
	return vals
}

// jsonValue maps a typed value onto its natural JSON shape.
func jsonValue(v value.Value) any {
	switch v.Kind() {
	case value.KindNull:
		return nil
	case value.KindInt:
		return v.AsInt()
	case value.KindFloat:
		return v.AsFloat()
	case value.KindString:
		return v.AsString()
	case value.KindBool:
		return v.AsBool()
	case value.KindTime:
		return v.AsTime().UTC().Format(time.RFC3339Nano)
	default:
		return v.String()
	}
}

// writeJSON encodes into a buffer first: an encode failure is logged and
// becomes a 500 before any byte of the response has been committed,
// instead of being silently dropped after a 200 status line.
func writeJSON(w http.ResponseWriter, code int, body any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		log.Printf("server: encoding response: %v", err)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprintln(w, `{"error":"internal error encoding response"}`)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if _, err := w.Write(buf.Bytes()); err != nil {
		// Headers are gone; all we can do is record the broken connection.
		log.Printf("server: writing response: %v", err)
	}
}

func writeError(w http.ResponseWriter, code int, err error) {
	eb := errorBody{Error: err.Error()}
	if code == http.StatusServiceUnavailable {
		switch {
		case errors.Is(err, chronicledb.ErrNotPrimary):
			eb.Code = codeNotPrimary
		case errors.Is(err, chronicledb.ErrReadOnly):
			eb.Code = codeReadOnly
		}
	}
	writeJSON(w, code, eb)
}

// writeErrorCode emits an error envelope with an explicit code.
func writeErrorCode(w http.ResponseWriter, status int, code string, err error) {
	writeJSON(w, status, errorBody{Error: err.Error(), Code: code})
}
