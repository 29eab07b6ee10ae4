package server

import (
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	chronicledb "chronicledb"
)

// fakeClock is an injectable clock for backoff/breaker tests: no test in
// this file sleeps on the wall clock.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func TestBackoffDelayBounds(t *testing.T) {
	cfg := ClientConfig{BaseBackoff: 25 * time.Millisecond, MaxBackoff: 2 * time.Second}
	low := cfg
	low.rnd = func() float64 { return 0 }
	high := cfg
	high.rnd = func() float64 { return 0.999999 }
	cl := NewClientWith("http://x", low)
	ch := NewClientWith("http://x", high)

	for k := 0; k < 12; k++ {
		nominal := cfg.BaseBackoff << k
		if nominal > cfg.MaxBackoff || nominal <= 0 {
			nominal = cfg.MaxBackoff
		}
		lo := cl.backoffDelay(k, 0)
		hi := ch.backoffDelay(k, 0)
		if lo != nominal/2 {
			t.Errorf("k=%d: low jitter = %v, want %v", k, lo, nominal/2)
		}
		if hi < nominal/2 || hi >= nominal {
			t.Errorf("k=%d: high jitter = %v, want in [%v, %v)", k, hi, nominal/2, nominal)
		}
	}
	// Overflow-proof: a huge retry count still caps at MaxBackoff.
	if d := ch.backoffDelay(62, 0); d >= cfg.MaxBackoff {
		t.Errorf("overflowed shift delay = %v", d)
	}
	// Retry-After larger than the exponential delay wins.
	if d := cl.backoffDelay(0, 800*time.Millisecond); d != 400*time.Millisecond {
		t.Errorf("retry-after delay = %v, want 400ms", d)
	}
	// Retry-After smaller than the exponential delay is ignored.
	if d := cl.backoffDelay(8, time.Millisecond); d != cfg.MaxBackoff/2 {
		t.Errorf("small retry-after delay = %v, want %v", d, cfg.MaxBackoff/2)
	}
}

func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	if d := parseRetryAfter("3", now); d != 3*time.Second {
		t.Errorf("seconds form = %v", d)
	}
	if d := parseRetryAfter(now.Add(10*time.Second).Format(http.TimeFormat), now); d != 10*time.Second {
		t.Errorf("http-date form = %v", d)
	}
	for _, bad := range []string{"", "soon", "-5", now.Add(-time.Minute).Format(http.TimeFormat)} {
		if d := parseRetryAfter(bad, now); d != 0 {
			t.Errorf("parseRetryAfter(%q) = %v, want 0", bad, d)
		}
	}
}

func TestBreakerTransitions(t *testing.T) {
	clk := newFakeClock()
	b := breaker{threshold: 3, cooldown: 2 * time.Second, now: clk.now}

	// Failures below the threshold keep the circuit closed.
	b.onFailure()
	b.onFailure()
	if err := b.allow(); err != nil {
		t.Fatalf("closed breaker denied: %v", err)
	}
	// The threshold-th consecutive failure opens it; calls fail fast.
	b.onFailure()
	if err := b.allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open breaker allowed: %v", err)
	}
	// After the cooldown exactly one probe is admitted.
	clk.advance(2 * time.Second)
	if err := b.allow(); err != nil {
		t.Fatalf("half-open probe denied: %v", err)
	}
	if err := b.allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("second concurrent probe allowed: %v", err)
	}
	// A failing probe re-opens for a fresh cooldown.
	b.onFailure()
	if err := b.allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatal("re-opened breaker allowed")
	}
	clk.advance(2 * time.Second)
	if err := b.allow(); err != nil {
		t.Fatalf("second probe denied: %v", err)
	}
	// A succeeding probe closes the circuit and resets the failure count.
	b.onSuccess()
	if err := b.allow(); err != nil {
		t.Fatalf("closed-after-probe denied: %v", err)
	}
	b.onFailure()
	b.onFailure()
	if err := b.allow(); err != nil {
		t.Fatalf("failure count not reset: %v", err)
	}
}

func TestClientRetries429ThenSucceeds(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"overloaded"}`))
			return
		}
		w.Write([]byte(`{"columns":null,"rows":null}`))
	}))
	defer ts.Close()

	var slept []time.Duration
	c := NewClientWith(ts.URL, ClientConfig{
		MaxAttempts: 4,
		sleep:       func(d time.Duration) { slept = append(slept, d) },
		rnd:         func() float64 { return 0 },
	})
	if _, err := c.Exec("SHOW VIEWS"); err != nil {
		t.Fatalf("Exec after sheds: %v", err)
	}
	if hits.Load() != 3 {
		t.Errorf("attempts = %d, want 3", hits.Load())
	}
	// Both backoffs honor the server's 1s Retry-After (jitter floor = d/2).
	if len(slept) != 2 || slept[0] != 500*time.Millisecond || slept[1] != 500*time.Millisecond {
		t.Errorf("sleeps = %v", slept)
	}
}

func TestClientDoesNotRetryReadOnly(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"error":"database is read-only: wal append failed"}`))
	}))
	defer ts.Close()

	c := NewClientWith(ts.URL, ClientConfig{sleep: func(time.Duration) {}})
	_, err := c.Exec("APPEND INTO calls VALUES (1)")
	if !errors.Is(err, ErrReadOnly) {
		t.Fatalf("err = %v, want ErrReadOnly", err)
	}
	if hits.Load() != 1 {
		t.Errorf("attempts = %d, want 1 (503 must not be retried)", hits.Load())
	}
}

func TestClientDoesNotRetryPermanent4xx(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(`{"error":"parse error"}`))
	}))
	defer ts.Close()

	c := NewClientWith(ts.URL, ClientConfig{sleep: func(time.Duration) {}})
	_, err := c.Exec("BOGUS")
	if err == nil || errors.Is(err, ErrOverloaded) || errors.Is(err, ErrReadOnly) {
		t.Fatalf("err = %v", err)
	}
	if hits.Load() != 1 {
		t.Errorf("attempts = %d, want 1", hits.Load())
	}
}

func TestClient429ExhaustionIsTyped(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":"overloaded"}`))
	}))
	defer ts.Close()

	c := NewClientWith(ts.URL, ClientConfig{
		MaxAttempts: 3, sleep: func(time.Duration) {}, BreakerThreshold: -1,
	})
	_, err := c.Exec("SHOW VIEWS")
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
}

// countingDialErrTransport fails every round trip with a dial-shaped error
// and counts how many attempts actually reached the transport.
type countingDialErrTransport struct{ calls atomic.Int64 }

func (tr *countingDialErrTransport) RoundTrip(*http.Request) (*http.Response, error) {
	tr.calls.Add(1)
	return nil, &net.OpError{Op: "dial", Net: "tcp", Err: errors.New("connection refused")}
}

func TestClientCircuitBreakerFailsFast(t *testing.T) {
	tr := &countingDialErrTransport{}
	clk := newFakeClock()
	c := NewClientWith("http://127.0.0.1:1", ClientConfig{
		MaxAttempts:      1, // isolate the breaker from the retry loop
		BreakerThreshold: 2,
		BreakerCooldown:  time.Second,
		Transport:        tr,
		now:              clk.now,
		sleep:            func(time.Duration) {},
	})
	if _, err := c.Stats(); err == nil {
		t.Fatal("first call succeeded")
	}
	if _, err := c.Stats(); err == nil {
		t.Fatal("second call succeeded")
	}
	// Two consecutive failures opened the circuit: no network attempt now.
	before := tr.calls.Load()
	_, err := c.Stats()
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", err)
	}
	if tr.calls.Load() != before {
		t.Error("open circuit still hit the transport")
	}
	// After the cooldown the probe goes through (and fails, re-opening).
	clk.advance(time.Second)
	_, err = c.Stats()
	if errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("half-open probe denied: %v", err)
	}
	if tr.calls.Load() != before+1 {
		t.Errorf("transport calls = %d, want %d", tr.calls.Load(), before+1)
	}
}

// midFlightErrTransport fails with a non-dial transport error: the request
// may have reached the server.
type midFlightErrTransport struct{ calls atomic.Int64 }

func (tr *midFlightErrTransport) RoundTrip(*http.Request) (*http.Response, error) {
	tr.calls.Add(1)
	return nil, io.ErrUnexpectedEOF
}

func TestMidFlightRetryOnlyWhenIdempotent(t *testing.T) {
	// Exec is not idempotent: a mid-flight failure must not be resent.
	tr := &midFlightErrTransport{}
	c := NewClientWith("http://x", ClientConfig{
		Transport: tr, sleep: func(time.Duration) {}, BreakerThreshold: -1,
	})
	if _, err := c.Exec("APPEND INTO calls VALUES (1)"); err == nil {
		t.Fatal("Exec succeeded")
	}
	if tr.calls.Load() != 1 {
		t.Errorf("Exec attempts = %d, want 1", tr.calls.Load())
	}
	// AppendRows carries a request id, so the same failure is retried.
	tr2 := &midFlightErrTransport{}
	c2 := NewClientWith("http://x", ClientConfig{
		MaxAttempts: 3, Transport: tr2, sleep: func(time.Duration) {}, BreakerThreshold: -1,
	})
	if _, err := c2.AppendRows("calls", [][]any{{1}}); err == nil {
		t.Fatal("AppendRows succeeded")
	}
	if tr2.calls.Load() != 3 {
		t.Errorf("AppendRows attempts = %d, want 3", tr2.calls.Load())
	}
}

func TestRetryBudgetStopsRetries(t *testing.T) {
	tr := &midFlightErrTransport{}
	clk := newFakeClock()
	c := NewClientWith("http://x", ClientConfig{
		MaxAttempts: 10,
		RetryBudget: 100 * time.Millisecond,
		BaseBackoff: 80 * time.Millisecond,
		Transport:   tr,
		now:         clk.now,
		// Sleeping advances the fake clock, so the budget check sees time pass.
		sleep:            func(d time.Duration) { clk.advance(d) },
		rnd:              func() float64 { return 1 },
		BreakerThreshold: -1,
	})
	if _, err := c.Stats(); err == nil {
		t.Fatal("Stats succeeded")
	}
	// Attempt 1 fails, one backoff (~80ms) fits the 100ms budget, attempt 2
	// fails, the next backoff (~160ms) would blow it: exactly 2 attempts.
	if tr.calls.Load() != 2 {
		t.Errorf("attempts = %d, want 2", tr.calls.Load())
	}
}

func TestAdmissionControlSheds(t *testing.T) {
	db, err := chronicledb.Open(chronicledb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`CREATE CHRONICLE calls (acct STRING, minutes INT)`); err != nil {
		t.Fatal(err)
	}
	srv := NewWith(db, Config{MaxInFlight: 1, MaxQueue: -1, RetryAfter: 2 * time.Second})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Occupy the only write slot so the next write is shed immediately.
	srv.inflight <- struct{}{}
	defer func() { <-srv.inflight }()

	resp, err := http.Post(ts.URL+"/append", "application/json",
		strings.NewReader(`{"chronicle":"calls","rows":[["alice",1]]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", ra)
	}
	if n := srv.shed.Load(); n != 1 {
		t.Errorf("shed_total = %d", n)
	}

	// Health reflects the overload distinctly from read-only degradation.
	if code, _ := getHealth(t, srv, ts.URL, true); code != http.StatusTooManyRequests {
		t.Errorf("healthz status = %d, want 429", code)
	}

	// Reads stay open while writes shed.
	sr, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	sr.Body.Close()
	if sr.StatusCode != http.StatusOK {
		t.Errorf("stats status = %d, want 200", sr.StatusCode)
	}
}

func TestServerAppendIdempotent(t *testing.T) {
	_, c := newTestServer(t)
	if _, err := c.Exec(`CREATE CHRONICLE calls (acct STRING, minutes INT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(`CREATE VIEW spent AS SELECT acct, SUM(minutes) AS total FROM calls GROUP BY acct`); err != nil {
		t.Fatal(err)
	}
	first, err := c.AppendRowsIdem("calls", [][]any{{"alice", 10}, {"bob", 5}}, "req-1")
	if err != nil {
		t.Fatal(err)
	}
	if first.Deduped {
		t.Error("first delivery marked deduped")
	}
	// Same request id: the original ack comes back, nothing re-applies.
	again, err := c.AppendRowsIdem("calls", [][]any{{"alice", 10}, {"bob", 5}}, "req-1")
	if err != nil {
		t.Fatal(err)
	}
	if !again.Deduped || again.FirstSN != first.FirstSN || again.LastSN != first.LastSN || again.Rows != 2 {
		t.Errorf("replay ack = %+v, first = %+v", again, first)
	}
	res, err := c.Exec(`SELECT * FROM spent WHERE acct = 'alice'`)
	if err != nil {
		t.Fatal(err)
	}
	// A double-applied replay would read 20 here.
	if res.Rows[0][1].(float64) != 10 {
		t.Errorf("alice total = %v, want 10", res.Rows[0][1])
	}
	// A fresh request id applies normally.
	next, err := c.AppendRowsIdem("calls", [][]any{{"carol", 1}}, "req-2")
	if err != nil {
		t.Fatal(err)
	}
	if next.Deduped || next.FirstSN <= first.LastSN {
		t.Errorf("next ack = %+v", next)
	}
}
