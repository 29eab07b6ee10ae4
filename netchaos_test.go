package chronicledb_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	chronicledb "chronicledb"
	"chronicledb/internal/fault"
	"chronicledb/internal/server"
)

// TestNetworkChaos is the network-torture harness (E18): concurrent
// retrying clients push appends through a chaos TCP proxy and a
// fault-injecting transport — dropped requests, responses lost after the
// server applied them, duplicated deliveries, connections reset
// mid-response-body — while the server suffers a mid-run power cut and is
// reopened behind the same proxy address. The exactly-once contract: after
// every client's every request is acked, the chronicle holds exactly
// K·M·R rows and the acked SN ranges tile [0, K·M·R) with no overlap. The
// ablation subtest strips the idempotency pair on the way in and shows the
// same retry discipline over-applies.
func TestNetworkChaos(t *testing.T) {
	t.Run("exactly-once", testChaosExactlyOnce)
	t.Run("at-least-once-ablation", testChaosAblation)
}

const (
	chaosClients  = 4 // K concurrent clients
	chaosRequests = 25

	// M requests per client
	chaosRows = 2 // R rows per request
)

type ackRange struct{ first, last int64 }

func testChaosExactlyOnce(t *testing.T) {
	disk := fault.NewDisk()
	open := func() *chronicledb.DB {
		db, err := chronicledb.Open(chronicledb.Options{
			Dir: "/data", SyncWAL: true, FS: disk, Shards: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	db := open()
	if _, err := db.Exec(`CREATE CHRONICLE calls (acct STRING, minutes INT) RETAIN ALL`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`CREATE VIEW usage AS SELECT acct, SUM(minutes) AS total FROM calls GROUP BY acct`); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.NewWith(db, server.Config{}))

	chaos := fault.NewNetChaos(42)
	chaos.DropRequest = 0.05
	chaos.DropResponse = 0.10 // the ambiguous failure: applied, ack lost
	chaos.Duplicate = 0.05
	chaos.DropConn = 0.08
	chaos.ResetProb = 0.08
	chaos.ResetAfter = 32

	proxy, err := fault.NewProxy(strings.TrimPrefix(ts.URL, "http://"), chaos)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	// Mid-run power cut and failover: once a third of the requests are
	// acked, cut power to the disk, tear down the server, heal, reopen,
	// and repoint the proxy. Clients never change the address they dial.
	var acked atomic.Int64
	var db2 *chronicledb.DB
	var ts2 *httptest.Server
	failoverDone := make(chan struct{})
	go func() {
		defer close(failoverDone)
		for acked.Load() < chaosClients*chaosRequests/3 {
			time.Sleep(time.Millisecond)
		}
		disk.PowerCut()
		ts.CloseClientConnections()
		ts.Close()
		db.Close()
		disk.Heal()
		db2 = open()
		ts2 = httptest.NewServer(server.NewWith(db2, server.Config{}))
		proxy.SetTarget(strings.TrimPrefix(ts2.URL, "http://"))
	}()

	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		acks    []ackRange
		deduped int64
		failed  []string
	)
	for k := 0; k < chaosClients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c := server.NewClientWith("http://"+proxy.Addr(), server.ClientConfig{
				ClientID:         fmt.Sprintf("chaos-%d", k),
				Timeout:          2 * time.Second,
				MaxAttempts:      5,
				BaseBackoff:      2 * time.Millisecond,
				MaxBackoff:       20 * time.Millisecond,
				RetryBudget:      5 * time.Second,
				BreakerThreshold: 20,
				BreakerCooldown:  20 * time.Millisecond,
				// Keep-alives off: every request opens a fresh TCP
				// connection through the proxy, so the connection-level
				// faults (drops on accept, resets mid-body) get a roll
				// per request rather than one per pooled connection.
				Transport: &fault.ChaosTransport{
					Chaos: chaos,
					Base:  &http.Transport{DisableKeepAlives: true},
				},
			})
			rows := make([][]any, chaosRows)
			for i := range rows {
				rows[i] = []any{fmt.Sprintf("chaos-%d", k), 1}
			}
			for m := 0; m < chaosRequests; m++ {
				rid := fmt.Sprintf("m%d", m)
				deadline := time.Now().Add(60 * time.Second)
				for {
					// The harness-level retry reuses the request id, so
					// however many times this request is delivered —
					// client retries, network duplicates, post-failover
					// resends — it applies at most once.
					resp, err := c.AppendRowsIdem("calls", rows, rid)
					if err == nil {
						mu.Lock()
						acks = append(acks, ackRange{resp.FirstSN, resp.LastSN})
						if resp.Deduped {
							deduped++
						}
						mu.Unlock()
						acked.Add(1)
						break
					}
					if time.Now().After(deadline) {
						mu.Lock()
						failed = append(failed, fmt.Sprintf("client %d req %s: %v", k, rid, err))
						mu.Unlock()
						return
					}
					// ErrReadOnly during the failover window, breaker
					// cooldowns, shed 429s, torn connections: wait and retry.
					time.Sleep(2 * time.Millisecond)
				}
			}
		}(k)
	}
	wg.Wait()
	<-failoverDone
	defer db2.Close()
	defer ts2.Close()

	if len(failed) > 0 {
		t.Fatalf("requests never acked: %v", failed)
	}

	// The chaos actually fired; otherwise this run proved nothing.
	counts := chaos.Counts()
	t.Logf("chaos: %+v, harness acks deduped=%d", counts, deduped)
	if counts.DroppedResponses == 0 && counts.Duplicates == 0 {
		t.Fatal("chaos injected no ambiguous faults; raise probabilities")
	}

	// Exactly-once, client view: the K·M acked SN ranges are disjoint and
	// tile [0, K·M·R) — every row acked exactly once, none lost, none
	// double-applied, across a power cut and a server failover.
	const want = chaosClients * chaosRequests * chaosRows
	if len(acks) != chaosClients*chaosRequests {
		t.Fatalf("acks = %d, want %d", len(acks), chaosClients*chaosRequests)
	}
	sort.Slice(acks, func(i, j int) bool { return acks[i].first < acks[j].first })
	var next int64
	for _, a := range acks {
		if a.first != next || a.last != a.first+chaosRows-1 {
			t.Fatalf("SN ranges do not tile: got [%d,%d] at offset %d", a.first, a.last, next)
		}
		next = a.last + 1
	}
	if next != want {
		t.Fatalf("SN coverage = %d, want %d", next, want)
	}

	// Exactly-once, durable view: the reopened database agrees.
	res, err := db2.Exec(`SELECT * FROM calls`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != want {
		t.Fatalf("durable rows = %d, want %d", len(res.Rows), want)
	}
	for k := 0; k < chaosClients; k++ {
		row, ok, err := db2.Lookup("usage", chronicledb.Str(fmt.Sprintf("chaos-%d", k)))
		if err != nil || !ok || row[1].AsInt() != chaosRequests*chaosRows {
			t.Errorf("usage(chaos-%d) = %v %v %v, want %d", k, row, ok, err, chaosRequests*chaosRows)
		}
	}
}

// testChaosAblation runs the same retry discipline without deduplication:
// a test-local middleware strips client_id/request_id from every /append
// body before the handler sees it, so the server takes the at-least-once
// AppendRows path. Every delivery that reaches it applies once, so the run
// over-applies by exactly the ambiguous-delivery count — each response lost
// after apply and each duplicated delivery becomes a phantom row — which is
// the measurable difference between exactly-once and at-least-once.
func testChaosAblation(t *testing.T) {
	db, err := chronicledb.Open(chronicledb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE CHRONICLE calls (acct STRING, minutes INT) RETAIN ALL`); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(stripIdempotency(server.New(db)))
	defer ts.Close()

	chaos := fault.NewNetChaos(7)
	chaos.DropResponse = 0.25
	chaos.Duplicate = 0.15

	c := server.NewClientWith(ts.URL, server.ClientConfig{
		ClientID:         "ablation",
		MaxAttempts:      6,
		BaseBackoff:      time.Millisecond,
		MaxBackoff:       5 * time.Millisecond,
		BreakerThreshold: -1,
		Transport:        &fault.ChaosTransport{Chaos: chaos},
	})
	const requests = 50
	for m := 0; m < requests; m++ {
		rid := fmt.Sprintf("m%d", m)
		for {
			if _, err := c.AppendRowsIdem("calls", [][]any{{"a", 1}}, rid); err == nil {
				break
			} else if errors.Is(err, server.ErrReadOnly) {
				t.Fatal(err)
			}
		}
	}
	counts := chaos.Counts()
	if counts.DroppedResponses == 0 && counts.Duplicates == 0 {
		t.Fatal("chaos injected nothing; raise probabilities")
	}
	res, err := db.Exec(`SELECT * FROM calls`)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("ablation: %d logical requests applied as %d rows (%+v)", requests, len(res.Rows), counts)
	if want := requests + counts.DroppedResponses + counts.Duplicates; int64(len(res.Rows)) != want {
		t.Errorf("at-least-once run applied %d rows for %d requests, want %d (one per ambiguous delivery over)", len(res.Rows), requests, want)
	}
}

// stripIdempotency removes the idempotency pair from /append bodies before
// next sees them.
func stripIdempotency(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/append" {
			var req server.AppendRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			req.ClientID, req.RequestID = "", ""
			body, _ := json.Marshal(req) // re-encoding what just decoded cannot fail
			r.Body = io.NopCloser(bytes.NewReader(body))
			r.ContentLength = int64(len(body))
		}
		next.ServeHTTP(w, r)
	})
}
