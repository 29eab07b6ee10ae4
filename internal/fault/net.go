package fault

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Network-fault seam. The disk seam (FS/Disk) let the crash-torture
// harness prove the storage side of durability; this file is the same idea
// for the wire: a probabilistic fault model (NetChaos) driving an
// http.RoundTripper wrapper (ChaosTransport) and a TCP proxy (Proxy) that
// inject the failures real networks produce — latency, requests that never
// arrive, responses that are lost after the server applied the write,
// duplicated deliveries, and connections reset mid-response-body. The
// network-torture harness (E18) runs retrying clients through both layers
// and asserts exactly-once ingestion totals.

// NetChaos is a seeded probabilistic network-fault model. Probabilities
// are per attempt; the zero value injects nothing. One NetChaos may drive
// any number of transports and proxies concurrently.
type NetChaos struct {
	mu  sync.Mutex
	rnd *rand.Rand

	// DropRequest is the probability an attempt fails before the request
	// reaches the server (a dial/connect failure: the server never saw it).
	DropRequest float64
	// DropResponse is the probability the response is lost after the server
	// fully processed the request — the dangerous failure for ingestion,
	// because the client cannot tell it from DropRequest.
	DropResponse float64
	// Duplicate is the probability the request is delivered twice (the
	// network-level duplicate a dedup table must absorb).
	Duplicate float64
	// Latency is added to every attempt before any bytes move.
	Latency time.Duration

	// Proxy connection-level faults.
	// DropConn is the probability an accepted proxy connection is closed
	// before forwarding anything.
	DropConn float64
	// ResetProb is the probability the proxy resets the server→client
	// stream after ResetAfter bytes — a response torn mid-body.
	ResetProb  float64
	ResetAfter int

	droppedRequests  atomic.Int64
	droppedResponses atomic.Int64
	duplicates       atomic.Int64
	droppedConns     atomic.Int64
	resets           atomic.Int64
}

// NewNetChaos creates a fault model with a deterministic seed. Fields are
// configured directly before the model is shared with transports/proxies.
func NewNetChaos(seed int64) *NetChaos {
	return &NetChaos{rnd: rand.New(rand.NewSource(seed))}
}

// roll returns true with probability p.
func (c *NetChaos) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	c.mu.Lock()
	v := c.rnd.Float64()
	c.mu.Unlock()
	return v < p
}

// NetChaosCounts is a snapshot of the injected-fault counters.
type NetChaosCounts struct {
	DroppedRequests  int64 // attempts failed before reaching the server
	DroppedResponses int64 // responses lost after the server applied
	Duplicates       int64 // requests delivered twice
	DroppedConns     int64 // proxy connections closed on accept
	Resets           int64 // proxy streams reset mid-response
}

// Counts reports how many of each fault were injected so far.
func (c *NetChaos) Counts() NetChaosCounts {
	return NetChaosCounts{
		DroppedRequests:  c.droppedRequests.Load(),
		DroppedResponses: c.droppedResponses.Load(),
		Duplicates:       c.duplicates.Load(),
		DroppedConns:     c.droppedConns.Load(),
		Resets:           c.resets.Load(),
	}
}

// dialDropError marks a fault injected before the request left the client:
// the server cannot have seen the request, so any retry policy may safely
// resend it. It unwraps to a *net.OpError with Op "dial" — the same shape
// a real connect failure has — so callers that classify transport errors
// need no fault-package special case.
type dialDropError struct{ op *net.OpError }

func (e *dialDropError) Error() string { return e.op.Error() }
func (e *dialDropError) Unwrap() error { return e.op }

func injectedNetErr(op string) error {
	oe := &net.OpError{Op: op, Net: "tcp", Err: ErrInjected}
	if op == "dial" {
		return &dialDropError{op: oe}
	}
	return oe
}

// ChaosTransport wraps an http.RoundTripper with the NetChaos fault model.
// Request drops surface as dial errors (server untouched); response drops
// let the base transport complete the round trip — the server applies the
// request — then close the response unread and surface a read error, which is
// exactly the ambiguity a resilient client must resolve with idempotent
// retries. Duplicates deliver the request twice and return the second
// response.
type ChaosTransport struct {
	Chaos *NetChaos
	Base  http.RoundTripper
}

func (t *ChaosTransport) base() http.RoundTripper {
	if t.Base != nil {
		return t.Base
	}
	return http.DefaultTransport
}

// RoundTrip implements http.RoundTripper.
func (t *ChaosTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	c := t.Chaos
	if c.Latency > 0 {
		select {
		case <-time.After(c.Latency):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	if c.roll(c.DropRequest) {
		c.droppedRequests.Add(1)
		return nil, injectedNetErr("dial")
	}
	if c.roll(c.Duplicate) && req.GetBody != nil {
		// First delivery: the server applies it, the "network" eats the
		// response. The second delivery below produces the response the
		// client actually sees.
		if dup, err := cloneRequest(req); err == nil {
			if resp, err := t.base().RoundTrip(dup); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				c.duplicates.Add(1)
			}
		}
	}
	resp, err := t.base().RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if c.roll(c.DropResponse) {
		// The headers are back, so the server has applied the request.
		// The body is closed unread: draining it would never return on a
		// response that streams for as long as the client stays (SSE).
		resp.Body.Close()
		c.droppedResponses.Add(1)
		return nil, injectedNetErr("read")
	}
	return resp, nil
}

// cloneRequest copies a request including a replayable body.
func cloneRequest(req *http.Request) (*http.Request, error) {
	dup := req.Clone(req.Context())
	if req.GetBody != nil {
		body, err := req.GetBody()
		if err != nil {
			return nil, err
		}
		dup.Body = body
	}
	return dup, nil
}

// Proxy is a chaos TCP proxy: it forwards accepted connections to a
// retargetable backend, injecting NetChaos connection faults — latency,
// connections dropped on accept, and server→client streams reset
// mid-response-body. SetTarget repoints it at a new backend address, which
// is how the torture harness fails clients over to a reopened server
// without changing the address they dial.
type Proxy struct {
	chaos  *NetChaos
	lis    net.Listener
	target atomic.Value // string
	closed atomic.Bool
	wg     sync.WaitGroup
}

// NewProxy starts a proxy on a loopback ephemeral port forwarding to
// target. Close must be called to release it.
func NewProxy(target string, chaos *NetChaos) (*Proxy, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("fault: proxy listen: %w", err)
	}
	p := &Proxy{chaos: chaos, lis: lis}
	p.target.Store(target)
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the address clients should dial.
func (p *Proxy) Addr() string { return p.lis.Addr().String() }

// SetTarget repoints the proxy at a new backend; existing connections are
// unaffected, new connections dial the new target.
func (p *Proxy) SetTarget(addr string) { p.target.Store(addr) }

// Close stops accepting and waits for the accept loop; in-flight
// connection goroutines drain on their own.
func (p *Proxy) Close() {
	if p.closed.CompareAndSwap(false, true) {
		p.lis.Close()
		p.wg.Wait()
	}
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.lis.Accept()
		if err != nil {
			return // listener closed
		}
		go p.serve(conn)
	}
}

func (p *Proxy) serve(client net.Conn) {
	c := p.chaos
	if c.roll(c.DropConn) {
		c.droppedConns.Add(1)
		client.Close()
		return
	}
	if c.Latency > 0 {
		time.Sleep(c.Latency)
	}
	server, err := net.Dial("tcp", p.target.Load().(string))
	if err != nil {
		client.Close()
		return
	}
	done := make(chan struct{}, 2)
	// client → server: forward verbatim.
	go func() {
		io.Copy(server, client)
		if tc, ok := server.(*net.TCPConn); ok {
			tc.CloseWrite()
		}
		done <- struct{}{}
	}()
	// server → client: possibly reset mid-response-body.
	go func() {
		if c.roll(c.ResetProb) {
			limit := int64(c.ResetAfter)
			if limit <= 0 {
				limit = 64
			}
			io.CopyN(client, server, limit)
			if tc, ok := client.(*net.TCPConn); ok {
				// SO_LINGER 0 turns the close into an RST: the client sees
				// a reset mid-body rather than a clean EOF.
				tc.SetLinger(0)
			}
			c.resets.Add(1)
			client.Close()
			server.Close()
			done <- struct{}{}
			return
		}
		io.Copy(client, server)
		if tc, ok := client.(*net.TCPConn); ok {
			tc.CloseWrite()
		}
		done <- struct{}{}
	}()
	<-done
	<-done
	client.Close()
	server.Close()
}
