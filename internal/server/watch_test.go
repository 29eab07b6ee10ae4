// End-to-end tests for the /watch changefeed surface: SSE streaming with
// snapshot catch-up, cursor resume across reconnects, the MaxSubscribers
// admission gate, and graceful drain.
package server

import (
	"bufio"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	chronicledb "chronicledb"
)

// newFeedServer starts an httptest server over a feed-enabled database.
func newFeedServer(t *testing.T, cfg Config) (*httptest.Server, *Client) {
	t.Helper()
	db, err := chronicledb.Open(chronicledb.Options{Feed: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	ts := httptest.NewServer(NewWith(db, cfg))
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL)
	if _, err := c.Exec(`CREATE CHRONICLE calls (acct STRING, minutes INT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(`CREATE VIEW usage AS SELECT acct, COUNT(*) AS n FROM calls GROUP BY acct`); err != nil {
		t.Fatal(err)
	}
	return ts, c
}

// TestWatchSSE streams snapshot catch-up plus live deltas over HTTP: the
// snapshot count plus the delta rows received (one source row per append)
// must conserve the append total.
func TestWatchSSE(t *testing.T) {
	_, c := newFeedServer(t, Config{})
	for i := 0; i < 5; i++ {
		if _, err := c.Exec(`APPEND INTO calls VALUES ('a', 1)`); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()

	var (
		snapshotN int64
		sum       int64
		lastLSN   uint64
		resume    string
	)
	done := make(chan error, 1)
	started := make(chan struct{})
	go func() {
		done <- c.Watch(ctx, "usage", 0, false, func(ev WatchEvent) bool {
			switch ev.Kind {
			case WatchInfo:
				resume = ev.Resume
			case WatchSnapshot:
				lastLSN = ev.LSN
				for _, r := range ev.Rows {
					snapshotN = int64(r[1].(float64))
				}
				// The live appends start only now: the snapshot is cut after
				// the info event, and one cut after the first of them would
				// hold six rows, not five.
				close(started)
			case WatchDelta:
				if ev.LSN <= lastLSN {
					t.Errorf("delta LSN %d after %d", ev.LSN, lastLSN)
					return false
				}
				lastLSN = ev.LSN
				sum += int64(len(ev.Deltas))
			}
			return snapshotN+sum < 10
		})
	}()
	<-started
	if resume != "snapshot" {
		t.Errorf("resume = %q, want snapshot", resume)
	}
	for i := 0; i < 5; i++ {
		if _, err := c.Exec(`APPEND INTO calls VALUES ('a', 1)`); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if snapshotN != 5 || sum != 5 {
		t.Fatalf("snapshot %d + delta rows %d, want 5 + 5", snapshotN, sum)
	}
}

// TestWatchSSEResume stops a stream, then reconnects with the cursor: the
// continuation replays nothing and delivers exactly the new deltas.
func TestWatchSSEResume(t *testing.T) {
	_, c := newFeedServer(t, Config{})
	for i := 0; i < 10; i++ {
		if _, err := c.Exec(`APPEND INTO calls VALUES ('a', 1)`); err != nil {
			t.Fatal(err)
		}
	}
	var cursor uint64
	err := c.Watch(context.Background(), "usage", 0, false, func(ev WatchEvent) bool {
		cursor = ev.LSN
		return ev.Kind != WatchSnapshot // stop once the snapshot lands
	})
	if err != nil {
		t.Fatal(err)
	}
	if cursor == 0 {
		t.Fatal("snapshot carried no LSN")
	}
	for i := 0; i < 5; i++ {
		if _, err := c.Exec(`APPEND INTO calls VALUES ('a', 1)`); err != nil {
			t.Fatal(err)
		}
	}
	var sum int64
	last := cursor
	err = c.Watch(context.Background(), "usage", cursor, true, func(ev WatchEvent) bool {
		switch ev.Kind {
		case WatchSnapshot:
			t.Error("cursor resume replayed a snapshot")
		case WatchDelta:
			if ev.LSN <= last {
				t.Errorf("resumed LSN %d after %d", ev.LSN, last)
			}
			last = ev.LSN
			sum += int64(len(ev.Deltas))
		}
		return sum < 5
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum != 5 {
		t.Fatalf("resumed delta rows = %d, want 5 (gap or duplicate)", sum)
	}
}

// TestWatchAdmissionGate caps subscribers at 1: the second watcher sheds
// with 429 + Retry-After without touching the append admission slots.
func TestWatchAdmissionGate(t *testing.T) {
	ts, c := newFeedServer(t, Config{MaxSubscribers: 1})

	resp, err := http.Get(ts.URL + "/watch?view=usage")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first watcher status = %d", resp.StatusCode)
	}
	// Wait for the info event so the slot is definitely held.
	br := bufio.NewReader(resp.Body)
	line, err := br.ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "event: info") {
		t.Fatalf("first SSE line = %q, %v", line, err)
	}

	second, err := http.Get(ts.URL + "/watch?view=usage")
	if err != nil {
		t.Fatal(err)
	}
	defer second.Body.Close()
	if second.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second watcher status = %d, want 429", second.StatusCode)
	}
	if second.Header.Get("Retry-After") == "" {
		t.Error("shed watcher got no Retry-After")
	}

	// Appends still flow: watcher admission is a separate gate.
	if _, err := c.Exec(`APPEND INTO calls VALUES ('a', 1)`); err != nil {
		t.Fatalf("append starved by watcher flood: %v", err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st["watch_shed_total"] != float64(1) {
		t.Errorf("watch_shed_total = %v, want 1", st["watch_shed_total"])
	}
	if st["watch_active"] != float64(1) {
		t.Errorf("watch_active = %v, want 1", st["watch_active"])
	}
}

// TestWatchErrors covers the request-validation surface.
func TestWatchErrors(t *testing.T) {
	ts, _ := newFeedServer(t, Config{})
	for path, want := range map[string]int{
		"/watch":                         http.StatusBadRequest,          // missing view
		"/watch?view=ghost":              http.StatusUnprocessableEntity, // unknown view
		"/watch?view=usage&from_lsn=abc": http.StatusBadRequest,          // bad cursor
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s: status = %d, want %d", path, resp.StatusCode, want)
		}
	}

	// A feed-disabled database refuses watches outright.
	db, err := chronicledb.Open(chronicledb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	off := httptest.NewServer(New(db))
	defer off.Close()
	resp, err := http.Get(off.URL + "/watch?view=usage")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("feed-off status = %d, want 422", resp.StatusCode)
	}
}

// TestWatchDrain runs the real Serve loop and cancels it while an SSE
// stream is open: the subscriber must receive a terminal bye{drain} event
// before the connection closes, and Serve must return promptly rather than
// waiting out the stream.
func TestWatchDrain(t *testing.T) {
	db, err := chronicledb.Open(chronicledb.Options{Feed: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE CHRONICLE calls (acct STRING, minutes INT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`CREATE VIEW usage AS SELECT acct, COUNT(*) AS n FROM calls GROUP BY acct`); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() {
		served <- Serve(ctx, ln, NewWith(db, Config{}), 2*time.Second, 5*time.Second)
	}()

	resp, err := http.Get("http://" + ln.Addr().String() + "/watch?view=usage")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	// Consume the info event, then trigger the drain.
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("reading info event: %v", err)
		}
		if line == "\n" {
			break
		}
	}
	cancel()

	sawBye := false
	deadline := time.After(10 * time.Second)
	lines := make(chan string)
	go func() {
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				close(lines)
				return
			}
			lines <- line
		}
	}()
read:
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				break read // EOF: stream closed
			}
			if strings.HasPrefix(line, "event: bye") {
				sawBye = true
			}
			if sawBye && strings.HasPrefix(line, "data: ") {
				var bye watchBye
				if err := json.Unmarshal([]byte(strings.TrimPrefix(strings.TrimSpace(line), "data: ")), &bye); err != nil {
					t.Fatal(err)
				}
				if bye.Reason != "drain" {
					t.Errorf("bye reason = %q, want drain", bye.Reason)
				}
				break read
			}
		case <-deadline:
			t.Fatal("no bye event after drain began")
		}
	}
	if !sawBye {
		t.Error("stream closed without a bye{drain} event")
	}
	select {
	case err := <-served:
		if err != nil && err != http.ErrServerClosed {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after drain")
	}
}

// flushCounter counts the flushes a handler asks of its connection; every
// other control reaches the connection through Unwrap.
type flushCounter struct {
	http.ResponseWriter
	n *atomic.Int64
}

func (f flushCounter) Flush() {
	f.n.Add(1)
	http.NewResponseController(f.ResponseWriter).Flush()
}

func (f flushCounter) Unwrap() http.ResponseWriter { return f.ResponseWriter }

// TestWatchFlushesOncePerBatch: a 16-row AppendRows reaches a stream as 16
// delta events, one per LSN, in the SSE wire format, written together and
// flushed once — twice should the call's frames straddle two wake-ups —
// not once an event.
func TestWatchFlushesOncePerBatch(t *testing.T) {
	db, err := chronicledb.Open(chronicledb.Options{Feed: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv := NewWith(db, Config{Heartbeat: time.Hour})
	var flushes atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		srv.ServeHTTP(flushCounter{w, &flushes}, r)
	}))
	defer ts.Close()
	c := NewClient(ts.URL)
	for _, stmt := range []string{`CREATE CHRONICLE calls (acct STRING, minutes INT)`, `CREATE VIEW usage AS SELECT acct, COUNT(*) AS n FROM calls GROUP BY acct`} {
		if _, err := c.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	started, done := make(chan struct{}), make(chan error, 1)
	var events, rows int
	go func() {
		done <- c.Watch(ctx, "usage", 0, false, func(ev WatchEvent) bool {
			switch ev.Kind {
			case WatchSnapshot:
				close(started)
			case WatchDelta:
				events++
				rows += len(ev.Deltas)
			}
			return rows < 16
		})
	}()
	<-started
	before := flushes.Load()
	call := make([][]any, 16)
	for i := range call {
		call[i] = []any{"a", i}
	}
	if _, err := c.AppendRows("calls", call); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if events != 16 || rows != 16 {
		t.Fatalf("%d delta events of %d rows, want 16 of one row each", events, rows)
	}
	if n := flushes.Load() - before; n < 1 || n > 2 {
		t.Errorf("a 16-row call cost the stream %d flushes, want 1 or 2", n)
	}
}
