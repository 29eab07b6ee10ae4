package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	chronicledb "chronicledb"
)

func newTestServer(t *testing.T) (*httptest.Server, *Client) {
	t.Helper()
	db, err := chronicledb.Open(chronicledb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(db))
	t.Cleanup(ts.Close)
	return ts, NewClient(ts.URL)
}

func TestExecOverHTTP(t *testing.T) {
	_, c := newTestServer(t)
	if _, err := c.Exec(`CREATE CHRONICLE calls (acct STRING, minutes INT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(`CREATE VIEW usage AS SELECT acct, SUM(minutes) AS total FROM calls GROUP BY acct`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(`APPEND INTO calls VALUES ('alice', 12)`); err != nil {
		t.Fatal(err)
	}
	res, err := c.Exec(`SELECT * FROM usage WHERE acct = 'alice'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// JSON numbers decode as float64.
	if res.Rows[0][0] != "alice" || res.Rows[0][1].(float64) != 12 {
		t.Errorf("row = %v", res.Rows[0])
	}
	if res.Columns[1] != "total" {
		t.Errorf("columns = %v", res.Columns)
	}
}

func TestExecErrorsOverHTTP(t *testing.T) {
	_, c := newTestServer(t)
	_, err := c.Exec(`APPEND INTO ghost VALUES (1)`)
	if err == nil || !strings.Contains(err.Error(), "unknown chronicle") {
		t.Errorf("err = %v", err)
	}
	_, err = c.Exec(``)
	if err == nil {
		t.Error("empty statement accepted")
	}
}

// getHealth fetches GET /healthz and asserts its one shape: the keys are
// status, error when the state has one, and the health metrics of s —
// nothing else, in every state.
func getHealth(t *testing.T, s *Server, url string, withError bool) (int, map[string]string) {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"status": true, "error": withError}
	for _, m := range s.Metrics() {
		want[m.Name] = want[m.Name] || m.Health
	}
	for k, in := range want {
		if _, got := body[k]; got != in {
			t.Errorf("/healthz %s: key %q present = %v, want %v", body["status"], k, got, in)
		}
	}
	for k := range body {
		if _, declared := want[k]; !declared {
			t.Errorf("/healthz %s: undeclared key %q", body["status"], k)
		}
	}
	return resp.StatusCode, body
}

func TestStatsAndHealth(t *testing.T) {
	db, err := chronicledb.Open(chronicledb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(db)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL)
	if !c.Healthy() {
		t.Error("health check failed")
	}
	if code, body := getHealth(t, srv, ts.URL, false); code != http.StatusOK || body["status"] != "ok" {
		t.Errorf("healthz = %d %v", code, body)
	}
	c.Exec(`CREATE CHRONICLE calls (acct STRING, minutes INT)`)
	c.Exec(`APPEND INTO calls VALUES ('alice', 12)`)
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// JSON numbers decode as float64.
	if st["appends"] != float64(1) || st["tuples_appended"] != float64(1) {
		t.Errorf("stats = %v", st)
	}
	if st["read_only"] != false {
		t.Errorf("read_only = %v", st["read_only"])
	}
}

func TestLatestEndpoint(t *testing.T) {
	ts, c := newTestServer(t)
	c.Exec(`CREATE CHRONICLE calls (acct STRING, minutes INT)`)
	c.Exec(`CREATE VIEW usage AS SELECT acct, SUM(minutes) AS total FROM calls GROUP BY acct WITH STORE BTREE`)
	for _, acct := range []string{"alice", "bob", "carol", "dave"} {
		if _, err := c.Exec(`APPEND INTO calls VALUES ('` + acct + `', 5)`); err != nil {
			t.Fatal(err)
		}
	}
	var body struct {
		Columns []string `json:"columns"`
		Rows    [][]any  `json:"rows"`
	}
	resp, err := http.Get(ts.URL + "/latest?view=usage&n=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	// Highest group keys first, capped at n.
	if len(body.Rows) != 2 || body.Rows[0][0] != "dave" || body.Rows[1][0] != "carol" {
		t.Errorf("latest rows = %v", body.Rows)
	}
	if body.Columns[0] != "acct" {
		t.Errorf("columns = %v", body.Columns)
	}
	for _, bad := range []string{"/latest", "/latest?view=ghost", "/latest?view=usage&n=0", "/latest?view=usage&n=x"} {
		resp, err := http.Get(ts.URL + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Errorf("GET %s succeeded", bad)
		}
	}

	// The reads above show up in the stats read counters.
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st["read_scans"].(float64) == 0 {
		t.Errorf("read_scans = %v", st["read_scans"])
	}
}

func TestBadRequests(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Post(ts.URL+"/exec", "application/json", strings.NewReader(`{not json`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/exec", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing stmt status = %d", resp.StatusCode)
	}
	// Unknown route.
	resp, err = http.Get(ts.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown route status = %d", resp.StatusCode)
	}
}

func TestClientAgainstDeadServer(t *testing.T) {
	c := NewClient("http://127.0.0.1:1") // nothing listens here
	if c.Healthy() {
		t.Error("dead server reported healthy")
	}
	if _, err := c.Exec("SHOW VIEWS"); err == nil {
		t.Error("Exec against dead server succeeded")
	}
	if _, err := c.Stats(); err == nil {
		t.Error("Stats against dead server succeeded")
	}
}

func TestBulkAppend(t *testing.T) {
	_, c := newTestServer(t)
	c.Exec(`CREATE CHRONICLE calls (acct STRING, minutes INT, cost FLOAT)`)
	c.Exec(`CREATE VIEW usage AS SELECT acct, SUM(minutes) AS total FROM calls GROUP BY acct`)
	resp, err := c.AppendRows("calls", [][]any{
		{"alice", 10, 1.5},
		{"alice", 5, 0.25},
		{"bob", 7, nil},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Rows != 3 || resp.LastSN != resp.FirstSN+2 {
		t.Errorf("resp = %+v", resp)
	}
	res, err := c.Exec(`SELECT * FROM usage WHERE acct = 'alice'`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][1].(float64) != 15 {
		t.Errorf("usage = %v", res.Rows)
	}
}

func TestBulkAppendErrors(t *testing.T) {
	_, c := newTestServer(t)
	c.Exec(`CREATE CHRONICLE calls (acct STRING, minutes INT)`)
	if _, err := c.AppendRows("ghost", [][]any{{"a", 1}}); err == nil {
		t.Error("unknown chronicle accepted")
	}
	if _, err := c.AppendRows("calls", nil); err == nil {
		t.Error("empty rows accepted")
	}
	if _, err := c.AppendRows("calls", [][]any{{"a"}}); err == nil {
		t.Error("arity violation accepted")
	}
	if _, err := c.AppendRows("calls", [][]any{{"a", 1.5}}); err == nil {
		t.Error("fractional value for INT column accepted")
	}
	if _, err := c.AppendRows("calls", [][]any{{"a", []any{1}}}); err == nil {
		t.Error("nested JSON accepted")
	}
}
