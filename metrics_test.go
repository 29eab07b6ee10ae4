package chronicledb_test

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	chronicledb "chronicledb"
	"chronicledb/internal/fault"
	"chronicledb/internal/server"
	"chronicledb/internal/value"
)

// families are the metrics declared once for many names: the literal in the
// source is a format string, and the docs write the varying part as <i> or
// <id>.
var families = []struct {
	re           *regexp.Regexp
	literal, doc string
}{
	{regexp.MustCompile(`^maint_top_\d+$`), "maint_top_%d", "maint_top_<i>"},
	{regexp.MustCompile(`^repl_follower_.+_acked_lsn$`), "repl_follower_%s_acked_lsn", "repl_follower_<id>_acked_lsn"},
}

// family returns the literal and the doc form a metric name is declared
// under; a plain name is both.
func family(name string) (literal, doc string) {
	for _, f := range families {
		if f.re.MatchString(name) {
			return f.literal, f.doc
		}
	}
	return name, name
}

// quietPrimary opens a durable primary with a changefeed and a paged view,
// loads it, checkpoints it, and serves it; nothing moves its counters after.
func quietPrimary(t *testing.T) (*chronicledb.DB, *server.Server, string) {
	t.Helper()
	db, err := chronicledb.Open(chronicledb.Options{Dir: t.TempDir(), SyncWAL: true, Feed: true, ViewBlockBytes: 256, ViewCacheBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	mustExec(t, db, `CREATE CHRONICLE calls (acct STRING, minutes INT)`)
	mustExec(t, db, `CREATE VIEW usage AS SELECT acct, SUM(minutes) AS total FROM calls GROUP BY acct WITH STORE BTREE`)
	rows := make([]chronicledb.Tuple, 200)
	for i := range rows {
		rows[i] = chronicledb.Tuple{chronicledb.Str("acct" + strconv.Itoa(i)), chronicledb.Int(int64(i))}
	}
	if _, _, err := db.AppendRows("calls", rows); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Lookup("usage", chronicledb.Str("acct7")); err != nil {
		t.Fatal(err)
	}
	srv := server.NewWith(db, server.Config{ReplHeartbeat: 20 * time.Millisecond})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return db, srv, ts.URL
}

// everyMetric collects the metrics list in every state that adds entries —
// the served primary (the server's own five, repl_*, maint_top_*) once a
// follower has attached (repl_follower_*), the follower (replica_*), and a
// database degraded to read-only (read_only_cause) — by name, checking that
// no one list repeats a name.
func everyMetric(t *testing.T, primary *chronicledb.DB, srv *server.Server, url string) map[string]chronicledb.Metric {
	t.Helper()
	f := openFollower(t, url, t.TempDir(), chronicledb.Options{FollowerID: "f1"})
	t.Cleanup(func() { f.Close() })
	waitUntil(t, 10*time.Second, "follower attach", func() bool { return len(primary.ReplSource().Followers()) == 1 })
	waitUntil(t, 10*time.Second, "follower state", func() bool { _, ok := f.ReplState(); return ok })

	disk := fault.NewDisk()
	ro, err := chronicledb.Open(chronicledb.Options{Dir: "/data", SyncWAL: true, FS: disk})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ro.Close() })
	mustExec(t, ro, `CREATE CHRONICLE calls (acct STRING, minutes INT)`)
	disk.FailNthSync(disk.Syncs())
	if _, err := ro.Append("calls", chronicledb.Tuple{chronicledb.Str("a"), chronicledb.Int(1)}); err == nil {
		t.Fatal("append with a failing fsync acked")
	}

	all := map[string]chronicledb.Metric{}
	for _, list := range [][]chronicledb.Metric{srv.Metrics(), f.Metrics(), ro.Metrics()} {
		seen := map[string]bool{}
		for _, m := range list {
			if seen[m.Name] {
				t.Errorf("metric %q listed twice", m.Name)
			}
			seen[m.Name] = true
			all[m.Name] = m
		}
	}
	for _, want := range []string{"maint_top_1", "repl_follower_f1_acked_lsn", "replica_lag_lsn", "read_only_cause"} {
		if _, ok := all[want]; !ok {
			t.Fatalf("no state produced %s", want)
		}
	}
	return all
}

// sourceLiterals counts the string literals of the non-test Go files in dirs.
func sourceLiterals(t *testing.T, dirs ...string) map[string]int {
	t.Helper()
	out := map[string]int{}
	fset := token.NewFileSet()
	for _, dir := range dirs {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if s, err := strconv.Unquote(lit.Value); err == nil {
						out[s]++
					}
				}
				return true
			})
		}
	}
	return out
}

// TestStatsDeclaredOnce: every stat name is written once in the source, and
// SHOW STATS and GET /stats render the same list with the same values.
func TestStatsDeclaredOnce(t *testing.T) {
	db, srv, url := quietPrimary(t)

	res, err := db.Exec(`SHOW STATS`)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]any
	err = json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	dbNames := map[string]bool{}
	for _, m := range db.Metrics() {
		dbNames[m.Name] = true
	}
	var own []string
	for _, m := range srv.Metrics() {
		if !dbNames[m.Name] {
			own = append(own, m.Name)
		}
	}
	if len(own) != 5 {
		t.Errorf("server's own metrics = %v, want five", own)
	}
	if len(res.Rows) != len(body)-len(own) {
		t.Errorf("SHOW STATS has %d rows, /stats %d keys of which %d are the server's", len(res.Rows), len(body), len(own))
	}
	for _, r := range res.Rows {
		name, v := r[0].AsString(), r[1]
		got, ok := body[name]
		if !ok {
			t.Errorf("SHOW STATS row %s missing from /stats", name)
			continue
		}
		var want any
		switch v.Kind() {
		case value.KindInt:
			want = float64(v.AsInt())
		case value.KindBool:
			want = v.AsBool()
		case value.KindString:
			want = v.AsString()
		case value.KindFloat:
			// Rates and allocation ratios move with the clock and the
			// allocator between two reads; the type must agree.
			if _, ok := got.(float64); !ok {
				t.Errorf("%s: /stats %T, SHOW STATS float", name, got)
			}
			continue
		}
		if got != want {
			t.Errorf("%s: /stats %v, SHOW STATS %v", name, got, want)
		}
	}

	all := everyMetric(t, db, srv, url)
	literals := sourceLiterals(t, ".", "internal/server")
	for name, m := range all {
		if lit, _ := family(name); literals[lit] != 1 {
			t.Errorf("stat %s: %q is written %d times in the non-test source, want once", name, lit, literals[lit])
		}
		if m.Unit == "" || m.Help == "" {
			t.Errorf("stat %s has no unit or help", name)
		}
		switch m.Value.(type) {
		case int64, float64, bool, string:
		default:
			t.Errorf("stat %s is a %T", name, m.Value)
		}
	}
}

// statName matches a backticked token written like a stat name; a doc that
// abbreviates (maintenance_p50/p99, replica_*) fails to resolve and is caught.
var (
	backticked = regexp.MustCompile("`([^`]+)`")
	statName   = regexp.MustCompile(`^[a-z][a-z0-9_*/<>]*$`)
)

// TestDocumentedStatsExist: every stat name the docs name is declared, and
// the README's observability table states each one's declared unit.
func TestDocumentedStatsExist(t *testing.T) {
	db, srv, url := quietPrimary(t)
	units := map[string]string{}
	for name, m := range everyMetric(t, db, srv, url) {
		_, doc := family(name)
		units[doc] = m.Unit
	}
	read := func(path string) []string {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return strings.Split(string(data), "\n")
	}
	checked := 0
	check := func(where, text string) []string {
		var names []string
		for _, m := range backticked.FindAllStringSubmatch(text, -1) {
			if !statName.MatchString(m[1]) || strings.HasPrefix(m[1], "internal/") {
				continue // not written like a stat, or a package path
			}
			if _, ok := units[m[1]]; !ok {
				t.Errorf("%s names `%s`, which is not a declared stat", where, m[1])
			}
			names = append(names, m[1])
			checked++
		}
		return names
	}

	// README: the observability bullet, and its table's unit column.
	readme := read("README.md")
	in := false
	for i, line := range readme {
		if strings.HasPrefix(line, "* **") {
			in = strings.HasPrefix(line, "* **Observability**")
		}
		if !in {
			continue
		}
		where := "README.md:" + strconv.Itoa(i+1)
		cells := strings.Split(line, "|")
		if len(cells) < 4 || strings.Trim(cells[2], " -") == "" || strings.TrimSpace(cells[2]) == "unit" {
			check(where, line)
			continue
		}
		unit := strings.Trim(cells[2], " `")
		for _, name := range check(where, cells[1]) {
			if units[name] != unit {
				t.Errorf("%s says `%s` is in %q, it is declared in %q", where, name, unit, units[name])
			}
		}
		check(where, strings.Join(cells[3:], "|"))
	}

	// DESIGN: the S2b row and the observability paragraphs of §4g, §4h, §4i,
	// each checked whole (a backticked span may wrap).
	section, start := "", ""
	var para []string
	for i, line := range read("DESIGN.md") {
		where := "DESIGN.md:" + strconv.Itoa(i+1)
		switch {
		case strings.HasPrefix(line, "## "):
			section = strings.Fields(line)[1]
		case strings.HasPrefix(line, "| S2b |"):
			check(where, line)
		case strings.HasPrefix(line, "**Observability and gates.**") && strings.Contains("4g. 4h. 4i.", section):
			start, para = where, []string{}
		case line == "" && para != nil:
			check(start, strings.Join(para, " "))
			para = nil
		}
		if para != nil {
			para = append(para, line)
		}
	}

	// The verify notes kept with the repository's tooling: their /stats lines.
	notes, err := filepath.Glob(".*/skills/verify/SKILL.md")
	if err != nil || len(notes) != 1 {
		t.Fatalf("verify notes: %v %v", notes, err)
	}
	for i, line := range read(notes[0]) {
		if strings.Contains(line, "/stats") {
			check(notes[0]+":"+strconv.Itoa(i+1), line)
		}
	}
	if checked < 40 {
		t.Errorf("checked %d documented stat names; the sections moved?", checked)
	}
}
