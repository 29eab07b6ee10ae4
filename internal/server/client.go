package server

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Typed client errors callers can branch on with errors.Is instead of
// string-matching the server's message.
var (
	// ErrOverloaded wraps every 429: admission control shed the request.
	// Transient — the client retries it (honoring Retry-After) until the
	// attempt or time budget runs out.
	ErrOverloaded = errors.New("server overloaded")
	// ErrReadOnly wraps a 503 whose code is "read-only" (or carries no
	// code): the database degraded to read-only after a WAL failure.
	// Permanent until an operator intervenes, so the client never retries
	// it — not even against another endpoint, since the degradation is a
	// durability failure, not a routing mistake.
	ErrReadOnly = errors.New("server is read-only or unavailable")
	// ErrNotPrimary wraps a 503 whose code is "not-primary": the endpoint
	// is a replica rejecting a write. The request is fine — it reached the
	// wrong member — so the client rotates to the next endpoint and
	// retries.
	ErrNotPrimary = errors.New("endpoint is a replica, not the primary")
	// ErrStaleReplica wraps a 503 whose code is "stale-replica": a
	// follower past its staleness bound declining reads. Retried against
	// the next endpoint.
	ErrStaleReplica = errors.New("replica is stale beyond its staleness bound")
	// ErrCircuitOpen means the client's circuit breaker is open after too
	// many consecutive failures; calls fail fast without touching the
	// network until the cooldown elapses.
	ErrCircuitOpen = errors.New("circuit breaker open")
)

// ClientConfig tunes the resilient client. The zero value gives sane
// defaults throughout.
type ClientConfig struct {
	// Timeout bounds each individual attempt (dial + request + response).
	// Default 10s. The old client used http.DefaultClient, which has no
	// timeout at all — a hung server hung the caller forever.
	Timeout time.Duration
	// MaxAttempts bounds attempts per call (first try + retries).
	// Default 4; 1 disables retries.
	MaxAttempts int
	// RetryBudget bounds the total time one call may spend across all
	// attempts and backoff sleeps. Default 30s.
	RetryBudget time.Duration
	// BaseBackoff is the first retry delay; attempt k waits
	// min(MaxBackoff, BaseBackoff<<k) with jitter. Default 25ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential delay. Default 2s.
	MaxBackoff time.Duration
	// BreakerThreshold is how many consecutive failures open the circuit.
	// Default 5; negative disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long the circuit stays open before one probe
	// is allowed through (half-open). Default 2s.
	BreakerCooldown time.Duration
	// ClientID identifies this client in idempotent appends; empty means a
	// random id per Client (fresh process = fresh id, which is correct: a
	// new process cannot be retrying the old one's requests).
	ClientID string
	// Endpoints lists additional base URLs behind the same logical
	// database (the other members of a replicated deployment). The client
	// sticks to its current endpoint until a dial-shaped error, a
	// mid-flight transport failure on an idempotent request, or a 503
	// whose code says "wrong member" (not-primary, stale-replica) rotates
	// it to the next — the failover path after a primary dies and a
	// follower is promoted. Idempotency ids make the cross-endpoint retry
	// exactly-once: the promoted follower inherited the dedup table.
	Endpoints []string
	// Transport overrides the HTTP transport (fault injection, pooling).
	Transport http.RoundTripper

	// Test seams; nil means the real clock, sleep, and PRNG.
	now   func() time.Time
	sleep func(time.Duration)
	rnd   func() float64
}

func (cfg *ClientConfig) fill() {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 4
	}
	if cfg.RetryBudget <= 0 {
		cfg.RetryBudget = 30 * time.Second
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 25 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 2 * time.Second
	}
	if cfg.BreakerThreshold == 0 {
		cfg.BreakerThreshold = 5
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 2 * time.Second
	}
	if cfg.ClientID == "" {
		var b [8]byte
		rand.Read(b[:])
		cfg.ClientID = hex.EncodeToString(b[:])
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	if cfg.sleep == nil {
		cfg.sleep = time.Sleep
	}
	if cfg.rnd == nil {
		// Cheap deterministic-free jitter: spread on the clock's low bits
		// is unnecessary — crypto/rand one byte per call is fine off the
		// hot path.
		cfg.rnd = func() float64 {
			var b [1]byte
			rand.Read(b[:])
			return float64(b[0]) / 256
		}
	}
}

// breakerState is the circuit-breaker state machine.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// breaker trips open after N consecutive failures; while open, calls fail
// fast. After the cooldown one probe is let through (half-open): success
// closes the circuit, failure re-opens it for another cooldown.
type breaker struct {
	mu        sync.Mutex
	state     breakerState
	fails     int
	openedAt  time.Time
	threshold int
	cooldown  time.Duration
	now       func() time.Time
}

// allow reports whether a call may proceed, transitioning open→half-open
// when the cooldown has elapsed.
func (b *breaker) allow() error {
	if b.threshold < 0 {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return ErrCircuitOpen
		}
		b.state = breakerHalfOpen // this caller is the probe
		return nil
	case breakerHalfOpen:
		return ErrCircuitOpen // probe already in flight
	}
	return nil
}

func (b *breaker) onSuccess() {
	if b.threshold < 0 {
		return
	}
	b.mu.Lock()
	b.state = breakerClosed
	b.fails = 0
	b.mu.Unlock()
}

func (b *breaker) onFailure() {
	if b.threshold < 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerHalfOpen {
		b.state = breakerOpen
		b.openedAt = b.now()
		return
	}
	b.fails++
	if b.fails >= b.threshold {
		b.state = breakerOpen
		b.openedAt = b.now()
	}
}

// Client speaks the server's HTTP protocol with per-attempt deadlines,
// exponential backoff with jitter, a retry time budget, Retry-After
// honoring, and a circuit breaker. Appends are idempotent by default:
// every AppendRows call carries a (client_id, request_id) pair, so a retry
// that crosses a timeout, a duplicated delivery, or a server restart can
// never double-apply.
type Client struct {
	// endpoints are the candidate base URLs; cur indexes the one in use.
	// Rotation advances cur so every request (including reconnecting
	// watches) follows the client to the member that answers.
	endpoints []string
	cur       atomic.Int64
	http      *http.Client
	// stream shares http's transport but carries no overall timeout: a
	// /watch subscription is supposed to stay open indefinitely, and the
	// request-shaped client's Timeout would sever it at the deadline.
	stream  *http.Client
	cfg     ClientConfig
	brk     breaker
	nextReq atomic.Uint64
}

// NewClient returns a client for the server at base (e.g.
// "http://localhost:7457") with default resilience settings.
func NewClient(base string) *Client { return NewClientWith(base, ClientConfig{}) }

// NewClientWith returns a client with explicit resilience settings.
func NewClientWith(base string, cfg ClientConfig) *Client {
	cfg.fill()
	transport := cfg.Transport
	if transport == nil {
		// A dedicated transport with its own connect/TLS/header deadlines:
		// even with retries disabled, no call can hang past its budget on
		// a dead TCP peer or a stalled handshake.
		transport = &http.Transport{
			DialContext:           (&net.Dialer{Timeout: 5 * time.Second, KeepAlive: 30 * time.Second}).DialContext,
			TLSHandshakeTimeout:   5 * time.Second,
			ResponseHeaderTimeout: cfg.Timeout,
			MaxIdleConnsPerHost:   16,
			IdleConnTimeout:       60 * time.Second,
		}
	}
	endpoints := make([]string, 0, 1+len(cfg.Endpoints))
	if base != "" {
		endpoints = append(endpoints, base)
	}
	endpoints = append(endpoints, cfg.Endpoints...)
	if len(endpoints) == 0 {
		endpoints = []string{""}
	}
	c := &Client{
		endpoints: endpoints,
		http:      &http.Client{Transport: transport, Timeout: cfg.Timeout},
		stream:    &http.Client{Transport: transport},
		cfg:       cfg,
	}
	c.brk = breaker{
		threshold: cfg.BreakerThreshold,
		cooldown:  cfg.BreakerCooldown,
		now:       cfg.now,
	}
	return c
}

// ClientID returns the idempotency client id requests are tagged with.
func (c *Client) ClientID() string { return c.cfg.ClientID }

// baseURL returns the endpoint currently in use.
func (c *Client) baseURL() string {
	return c.endpoints[int(c.cur.Load())%len(c.endpoints)]
}

// rotate advances to the next endpoint; a no-op with a single endpoint.
func (c *Client) rotate() {
	if len(c.endpoints) > 1 {
		c.cur.Add(1)
	}
}

// statusError converts a non-200 response to an error, wrapping the typed
// sentinel for the statuses callers branch on. errCode is the response
// body's code field, which splits the 503 space: a replica rejecting
// writes (not-primary) and a follower past its staleness bound
// (stale-replica) are routing outcomes worth retrying elsewhere; read-only
// (or an old server sending no code) is a durability failure and final.
func statusError(code int, errCode, msg string) error {
	if msg == "" {
		msg = fmt.Sprintf("HTTP %d", code)
	}
	switch code {
	case http.StatusTooManyRequests:
		return fmt.Errorf("server: %w: %s", ErrOverloaded, msg)
	case http.StatusServiceUnavailable:
		switch errCode {
		case codeNotPrimary:
			return fmt.Errorf("server: %w: %s", ErrNotPrimary, msg)
		case codeStaleReplica:
			return fmt.Errorf("server: %w: %s", ErrStaleReplica, msg)
		default:
			return fmt.Errorf("server: %w: %s", ErrReadOnly, msg)
		}
	default:
		return fmt.Errorf("server: %s", msg)
	}
}

// retryableElsewhere reports whether a 503 names a wrong-member condition
// that a different endpoint may not share.
func retryableElsewhere(errCode string) bool {
	return errCode == codeNotPrimary || errCode == codeStaleReplica
}

// attemptResult carries one attempt's outcome through the retry loop.
type attemptResult struct {
	status     int           // HTTP status (0 on transport error)
	code       string        // error body's code field (503 flavors)
	body       []byte        // response body (200s only)
	err        error         // final-form error, nil on success
	retryAfter time.Duration // server's Retry-After hint (429)
	transport  bool          // transport-level failure
	dialErr    bool          // failed before the request was sent
}

// attempt performs one HTTP exchange.
func (c *Client) attempt(method, path string, body []byte) attemptResult {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.Timeout)
	defer cancel()
	var rdr *bytes.Reader
	if body != nil {
		rdr = bytes.NewReader(body)
	} else {
		rdr = bytes.NewReader(nil)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.baseURL()+path, rdr)
	if err != nil {
		return attemptResult{err: fmt.Errorf("server: %w", err), transport: true, dialErr: true}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return attemptResult{
			err:       fmt.Errorf("server: %w", err),
			transport: true,
			dialErr:   isDialError(err),
		}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var eb errorBody
		json.NewDecoder(resp.Body).Decode(&eb)
		res := attemptResult{status: resp.StatusCode, code: eb.Code, err: statusError(resp.StatusCode, eb.Code, eb.Error)}
		if resp.StatusCode == http.StatusTooManyRequests {
			res.retryAfter = parseRetryAfter(resp.Header.Get("Retry-After"), c.cfg.now())
		}
		return res
	}
	data, err := readAll(resp.Body)
	if err != nil {
		// The status line arrived but the body was cut — a mid-response
		// connection loss; the server has already applied the request.
		return attemptResult{err: fmt.Errorf("server: reading response: %w", err), transport: true}
	}
	return attemptResult{status: http.StatusOK, body: data}
}

func readAll(r interface{ Read([]byte) (int, error) }) ([]byte, error) {
	var buf bytes.Buffer
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// isDialError reports whether a transport error happened before the
// request left the client (connect/refused/DNS): the server cannot have
// seen the request, so even non-idempotent calls may retry it.
func isDialError(err error) bool {
	var oe *net.OpError
	return errors.As(err, &oe) && oe.Op == "dial"
}

// parseRetryAfter decodes a Retry-After header: delta-seconds or HTTP-date.
func parseRetryAfter(h string, now time.Time) time.Duration {
	if h == "" {
		return 0
	}
	if secs, err := strconv.Atoi(h); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	if at, err := http.ParseTime(h); err == nil {
		if d := at.Sub(now); d > 0 {
			return d
		}
	}
	return 0
}

// backoffDelay computes the jittered exponential delay before retry k
// (0-based), floored at half the nominal delay so it never degenerates to
// a tight loop.
func (c *Client) backoffDelay(k int, retryAfter time.Duration) time.Duration {
	d := c.cfg.BaseBackoff << k
	if d > c.cfg.MaxBackoff || d <= 0 {
		d = c.cfg.MaxBackoff
	}
	if retryAfter > d {
		d = retryAfter
	}
	return d/2 + time.Duration(c.cfg.rnd()*float64(d/2))
}

// do runs the retry loop for one logical call. idempotent marks calls that
// are safe to resend after a mid-flight transport failure (reads, and
// appends carrying a request id); non-idempotent calls are retried only
// when the failure provably happened before the request was sent.
func (c *Client) do(method, path string, body []byte, idempotent bool, out any) error {
	start := c.cfg.now()
	var last attemptResult
	for k := 0; k < c.cfg.MaxAttempts; k++ {
		if k > 0 {
			d := c.backoffDelay(k-1, last.retryAfter)
			if c.cfg.now().Sub(start)+d > c.cfg.RetryBudget {
				break // budget exhausted: report the last real failure
			}
			c.cfg.sleep(d)
		}
		if err := c.brk.allow(); err != nil {
			if last.err != nil {
				return fmt.Errorf("%w (last failure: %v)", err, last.err)
			}
			return err
		}
		last = c.attempt(method, path, body)
		switch {
		case last.err == nil:
			c.brk.onSuccess()
			if out == nil {
				return nil
			}
			if err := json.Unmarshal(last.body, out); err != nil {
				return fmt.Errorf("server: decoding response: %w", err)
			}
			return nil
		case last.status == http.StatusTooManyRequests:
			c.brk.onFailure()
			continue // transient shed: back off (honoring Retry-After) and retry
		case last.status == http.StatusServiceUnavailable:
			// 503 is never retryable against the answering endpoint. Two of
			// its codes are wrong-member conditions — a replica rejecting a
			// write, a follower too stale to read — that another endpoint
			// may not share: rotate and retry there. Read-only (or no code)
			// is a durability failure every retry would just re-observe.
			if retryableElsewhere(last.code) && len(c.endpoints) > 1 {
				c.brk.onFailure()
				c.rotate()
				continue
			}
			c.brk.onFailure()
			return last.err
		case last.status != 0:
			// Any other HTTP status is the request's own fault (4xx) or a
			// server bug (5xx); retrying the same bytes cannot help. The
			// server answered, so the breaker counts it as contact.
			c.brk.onSuccess()
			return last.err
		case last.transport && (last.dialErr || idempotent):
			// The endpoint is unreachable (or died mid-flight on an
			// idempotent call): rotate so the retry — and every later call —
			// tries the next member. This is the failover path after a
			// primary power cut: the retry lands on the promoted follower,
			// whose replicated dedup table turns it into the original ack.
			c.brk.onFailure()
			c.rotate()
			continue
		default:
			// Mid-flight transport failure on a non-idempotent call: the
			// server may have applied it; resending could double-apply.
			c.brk.onFailure()
			return last.err
		}
	}
	if last.err == nil {
		return fmt.Errorf("server: retry budget exhausted before first attempt")
	}
	return last.err
}

// Exec executes one or more statements remotely. Statements are not
// idempotent (an INSERT resent after a mid-flight failure would
// double-apply), so Exec retries only failures that provably happened
// before the request was sent, plus 429 sheds.
func (c *Client) Exec(stmt string) (*Response, error) {
	body, err := json.Marshal(Request{Stmt: stmt})
	if err != nil {
		return nil, err
	}
	var out Response
	if err := c.do(http.MethodPost, "/exec", body, false, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Stats fetches GET /stats: every entry of Server.Metrics by name — the
// database's list (chronicledb.DB.Metrics) and the server's admission
// counters. Numbers arrive as float64 (JSON numbers), flags as bool, and
// text entries (role, maint_top_<i>, read_only_cause when read-only) as
// string.
func (c *Client) Stats() (map[string]any, error) {
	var out map[string]any
	if err := c.do(http.MethodGet, "/stats", nil, true, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Healthy reports whether the server answers its health check. One
// attempt, no retries, no breaker: health polls must report the server as
// it is right now.
func (c *Client) Healthy() bool {
	res := c.attempt(http.MethodGet, "/healthz", nil)
	return res.err == nil
}

// AppendRows bulk-appends rows to a chronicle through POST /append. Every
// call carries the client's id and a fresh request id, making it safe to
// retry across timeouts, duplicated deliveries, and server restarts: the
// server's persisted dedup table returns the original ack instead of
// re-applying.
func (c *Client) AppendRows(chronicle string, rows [][]any) (*AppendResponse, error) {
	return c.AppendRowsIdem(chronicle, rows, c.newRequestID())
}

// AppendRowsIdem is AppendRows with a caller-chosen request id, for
// callers that manage their own retry loops (reusing the id across calls
// keeps the request exactly-once even when the caller retries above this
// client, e.g. across failovers).
func (c *Client) AppendRowsIdem(chronicle string, rows [][]any, requestID string) (*AppendResponse, error) {
	body, err := json.Marshal(AppendRequest{
		Chronicle: chronicle, Rows: rows,
		ClientID: c.cfg.ClientID, RequestID: requestID,
	})
	if err != nil {
		return nil, err
	}
	var out AppendResponse
	if err := c.do(http.MethodPost, "/append", body, true, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// newRequestID mints a per-client unique request id.
func (c *Client) newRequestID() string {
	return "r" + strconv.FormatUint(c.nextReq.Add(1), 10)
}
