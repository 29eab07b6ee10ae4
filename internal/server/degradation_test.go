package server

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	chronicledb "chronicledb"
	"chronicledb/internal/fault"
)

// degradedServer builds a durable DB on a simulated disk, seeds a
// chronicle, then injects a sync failure so the next append degrades the
// database to read-only. The fsync fails at the group-commit door, after
// the append's WAL write and apply: the append is un-acked, but its row
// stays visible in memory until a restart reconverges to the durable
// prefix.
func degradedServer(t *testing.T) (*Server, *httptest.Server, *Client) {
	t.Helper()
	disk := fault.NewDisk()
	db, err := chronicledb.Open(chronicledb.Options{Dir: "/data", SyncWAL: true, FS: disk})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	srv := New(db)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL)
	if _, err := c.Exec(`CREATE CHRONICLE calls (acct STRING, minutes INT) RETAIN ALL`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AppendRows("calls", [][]any{{"alice", 10}}); err != nil {
		t.Fatal(err)
	}
	disk.FailNthSync(disk.Syncs()) // poison the WAL on its next fsync
	return srv, ts, c
}

func TestReadOnlyDegradation(t *testing.T) {
	srv, ts, c := degradedServer(t)

	// The append whose WAL sync fails is not acked…
	if _, err := c.AppendRows("calls", [][]any{{"bob", 5}}); err == nil {
		t.Fatal("append with failing WAL sync acked")
	}
	// …and from here the DB is read-only: /append and /exec writes serve 503.
	resp, err := http.Post(ts.URL+"/append", "application/json",
		strings.NewReader(`{"chronicle":"calls","rows":[["carol",1]]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/append while degraded: status %d, want 503", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/exec", "application/json",
		strings.NewReader(`{"stmt":"APPEND INTO calls VALUES ('carol', 1)"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/exec write while degraded: status %d, want 503", resp.StatusCode)
	}

	// Reads still work: the acked row is served (beside the un-acked one the
	// failed commit left in memory).
	res, err := c.Exec(`SELECT * FROM calls`)
	if err != nil {
		t.Fatalf("read while degraded: %v", err)
	}
	if len(res.Rows) == 0 || res.Rows[0][2] != "alice" {
		t.Errorf("read while degraded: rows = %v", res.Rows)
	}

	// /healthz flips to 503 with the cause; /stats carries it too.
	if c.Healthy() {
		t.Error("degraded server reported healthy")
	}
	code, health := getHealth(t, srv, ts.URL, true)
	if code != http.StatusServiceUnavailable || health["status"] != "degraded" {
		t.Errorf("healthz = %d %v", code, health)
	}
	if !strings.Contains(health["error"], "wal") {
		t.Errorf("healthz cause = %q", health["error"])
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st["read_only"] != true || st["read_only_cause"] == nil {
		t.Errorf("stats = %v", st)
	}
}

func TestMaxBodyBytes(t *testing.T) {
	db, err := chronicledb.Open(chronicledb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewWith(db, Config{MaxBodyBytes: 128}))
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL)
	if _, err := c.Exec(`CREATE CHRONICLE calls (acct STRING, minutes INT)`); err != nil {
		t.Fatal(err)
	}
	big := `{"stmt":"APPEND INTO calls VALUES ('` + strings.Repeat("x", 1024) + `', 1)"}`
	resp, err := http.Post(ts.URL+"/exec", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", resp.StatusCode)
	}
	// A small request still works.
	if _, err := c.Exec(`APPEND INTO calls VALUES ('a', 1)`); err != nil {
		t.Fatal(err)
	}
}

func TestPanicRecovery(t *testing.T) {
	db, err := chronicledb.Open(chronicledb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(db)
	s.mux.HandleFunc("GET /boom", func(http.ResponseWriter, *http.Request) { panic("kaboom") })
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	resp, err := http.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatalf("panic killed the connection: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("panic: status %d, want 500", resp.StatusCode)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Error == "" {
		t.Errorf("panic: body not a JSON error (%v)", err)
	}
	// The server survives for the next request.
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("server dead after panic: %v", err)
	} else {
		resp.Body.Close()
	}
}

func TestGracefulShutdown(t *testing.T) {
	disk := fault.NewDisk()
	db, err := chronicledb.Open(chronicledb.Options{Dir: "/data", FS: disk})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- Serve(ctx, ln, New(db), 5*time.Second, 5*time.Second) }()

	c := NewClient("http://" + ln.Addr().String())
	if _, err := c.Exec(`CREATE CHRONICLE calls (acct STRING, minutes INT) RETAIN ALL`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AppendRows("calls", [][]any{{"alice", 10}}); err != nil {
		t.Fatal(err)
	}

	cancel() // SIGTERM-equivalent
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown did not complete")
	}
	// The listener is closed.
	if c.Healthy() {
		t.Error("server still serving after shutdown")
	}
	// Shutdown flushed and fsynced the WAL: the acked append is durable —
	// it survives a power cut and is served by the next process.
	db.Close()
	disk.PowerCut()
	disk.Heal()
	db2, err := chronicledb.Open(chronicledb.Options{Dir: "/data", FS: disk})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	res, err := db2.Exec(`SELECT * FROM calls`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Errorf("acked append lost across shutdown: %v", res.Rows)
	}
}
