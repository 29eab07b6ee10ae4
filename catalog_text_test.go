package chronicledb_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	chronicledb "chronicledb"
	"chronicledb/internal/shard"
)

// keptDDL pairs what a client sends with the statement text the catalog must
// keep: the source minus a comment around it and its ';'.
var keptDDL = []struct{ src, text string }{
	{`CREATE GROUP g`, `CREATE GROUP g`},
	{`CREATE CHRONICLE calls (acct STRING, minutes INT, cost FLOAT, ok BOOL, at TIME) IN GROUP g RETAIN 100 WINDOW 5000`, ``},
	{`CREATE CHRONICLE payments (acct STRING, amount FLOAT) IN GROUP g RETAIN NONE`, ``},
	{`CREATE CHRONICLE audit (who STRING, what STRING) RETAIN ALL`, ``},
	{`CREATE RELATION customers (acct STRING, state STRING, tier INT, KEY(acct))`, ``},
	{`CREATE VIEW v1 AS SELECT calls.acct, SUM(minutes) AS m, COUNT(*) AS n, AVG(cost) AS mean,
			MIN(cost) AS lo, MAX(cost) AS hi, STDDEV(cost) AS sd
			FROM calls GROUP BY calls.acct WITH STORE BTREE`, ``},
	{`CREATE VIEW v2 AS SELECT state, SUM(cost) AS revenue FROM calls
			JOIN customers ON calls.acct = customers.acct
			WHERE minutes > 0 AND (state = 'nj' OR state = 'n''y')
			GROUP BY state`, ``},
	{`CREATE VIEW v3 AS SELECT DISTINCT calls.acct FROM calls CROSS JOIN customers`, ``},
	{`CREATE VIEW v4 AS SELECT calls.acct, SUM(amount) AS paid FROM calls
			JOIN payments ON SN GROUP BY calls.acct`, ``},
	{`CREATE PERIODIC VIEW v5 AS SELECT acct, SUM(minutes) AS m FROM calls GROUP BY acct
			EVERY 100 WIDTH 300 OFFSET 7 EXPIRE 50`, ``},
	{`CREATE VIEW v6 AS SELECT acct, COUNT(*) AS n FROM calls WHERE cost >= 1.5 AND at != NULL GROUP BY acct`, ``},
	// Floats a %g printer writes with an exponent the lexer cannot read.
	{`CREATE VIEW big AS SELECT acct, COUNT(*) AS n FROM calls WHERE cost > 1000000.0 GROUP BY acct`, ``},
	{`CREATE VIEW tiny AS SELECT acct, COUNT(*) AS n FROM calls WHERE cost > 0.0000001 GROUP BY acct`, ``},
	{`CREATE VIEW huge AS SELECT acct, COUNT(*) AS n FROM calls WHERE cost < 100000000000000000000.0 GROUP BY acct`, ``},
	// A quoted ';', and comments around and inside a statement.
	{`CREATE VIEW semi AS SELECT acct, COUNT(*) AS n FROM calls WHERE acct != 'a;b' GROUP BY acct WITH STORE HASH`, ``},
	{"-- before; don't\nCREATE VIEW noted AS SELECT acct, -- per account; don't\n\tSUM(minutes) AS m FROM calls GROUP BY acct -- after; done\n",
		"CREATE VIEW noted AS SELECT acct, -- per account; don't\n\tSUM(minutes) AS m FROM calls GROUP BY acct"},
}

// TestCatalogKeepsStatementText: catalog.sql holds every DDL statement as the
// client wrote it, byte for byte; and a reopen of the database, and a
// follower fed the catalog through the replication stream, each end with the
// views the statements made when first run: the same schema, language and
// IM class, the same expression, the same rows after the same appends.
func TestCatalogKeepsStatementText(t *testing.T) {
	ref, err := chronicledb.Open(chronicledb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	dir := t.TempDir()
	db, ts := openPrimary(t, chronicledb.Options{Dir: dir})
	var want strings.Builder
	for _, d := range keptDDL {
		text := d.text
		if text == "" {
			text = d.src
		}
		mustExec(t, ref, d.src)
		mustExec(t, db, d.src+";")
		want.WriteString(text + ";\n")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	catalog, err := os.ReadFile(filepath.Join(dir, "catalog.sql"))
	if err != nil {
		t.Fatal(err)
	}
	if got := string(catalog); got != want.String() {
		t.Fatalf("catalog.sql:\n%s\nwant:\n%s", got, want.String())
	}

	db, ts = openPrimary(t, chronicledb.Options{Dir: dir})
	defer ts.Close()
	defer db.Close()
	f := openFollower(t, ts.URL, t.TempDir(), chronicledb.Options{})
	defer f.Close()
	waitUntil(t, 10*time.Second, "the follower's catalog", func() bool { return f.DDLCount() == uint64(len(keptDDL)) })

	appends := []string{
		`UPSERT INTO customers VALUES ('a', 'nj', 1), ('b', 'n''y', 2)`,
		`APPEND INTO calls VALUES ('a', 10, 2.5, TRUE, NULL)`,
		`APPEND INTO calls VALUES ('b', 3, 2000000.0, FALSE, NULL)`,
		`APPEND INTO calls VALUES ('a;b', 1, 0.00000001, TRUE, NULL)`,
		`APPEND INTO payments VALUES ('a', 4.5)`,
	}
	for _, s := range appends {
		mustExec(t, ref, s)
		mustExec(t, db, s)
	}
	lsn := chronicledb.Kernel(db).LSN()
	waitUntil(t, 10*time.Second, "the follower's appends", func() bool { return chronicledb.Kernel(f).LSN() == lsn })

	names := chronicledb.Kernel(ref).Names(shard.Views)
	if len(names) != len(keptDDL)-6 { // less the group, three chronicles, the relation and the periodic view
		t.Fatalf("reference views %v", names)
	}
	for _, got := range []struct {
		what string
		db   *chronicledb.DB
	}{{"reopened", db}, {"follower", f}} {
		if _, err := got.db.Exec(`SELECT * FROM v5`); err != nil {
			t.Errorf("%s: periodic view v5 missing: %v", got.what, err)
		}
		for _, name := range names {
			v1, _ := ref.View(name)
			v2, ok := got.db.View(name)
			if !ok {
				t.Errorf("%s: view %s missing", got.what, name)
				continue
			}
			if !v1.Schema().Equal(v2.Schema()) {
				t.Errorf("%s: view %s schema %s, want %s", got.what, name, v2.Schema(), v1.Schema())
			}
			if v1.Lang() != v2.Lang() || v1.IMClass() != v2.IMClass() {
				t.Errorf("%s: view %s classified %v/%v, want %v/%v", got.what, name, v2.Lang(), v2.IMClass(), v1.Lang(), v1.IMClass())
			}
			if v1.Def().Expr.String() != v2.Def().Expr.String() {
				t.Errorf("%s: view %s expression\n  %s\nwant\n  %s", got.what, name, v2.Def().Expr, v1.Def().Expr)
			}
			wantRows, err := ref.Exec("SELECT * FROM " + name)
			if err != nil {
				t.Fatal(err)
			}
			gotRows, err := got.db.Exec("SELECT * FROM " + name)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := fmt.Sprint(gotRows.Rows), fmt.Sprint(wantRows.Rows); g != w {
				t.Errorf("%s: view %s rows %s, want %s", got.what, name, g, w)
			}
		}
		r1, ok1, _ := ref.Lookup("v2", chronicledb.Str("nj"))
		r2, ok2, _ := got.db.Lookup("v2", chronicledb.Str("nj"))
		if !ok1 || !ok2 || r1.String() != r2.String() {
			t.Errorf("%s: lookup v2 'nj' = %v/%v, want %v/%v", got.what, r2, ok2, r1, ok1)
		}
	}
}

// TestTornCatalogTail: a power cut inside a DDL write leaves catalog.sql
// with a torn last statement, which Open drops — whatever ';' it holds in a
// literal or a comment — keeping the statements before it and appending the
// next DDL after them. A lexical error anywhere but at the very end is
// corruption, and Open refuses it.
func TestTornCatalogTail(t *testing.T) {
	for _, tc := range []struct {
		name, tail string
		torn       bool
	}{
		{"semicolon_in_literal", `CREATE VIEW torn AS SELECT acct, COUNT(*) AS n FROM calls WHERE acct = 'a;`, true},
		{"semicolon_in_comment", "CREATE VIEW torn AS SELECT acct, -- counts; per acct", true},
		{"cut_after_bang", `CREATE VIEW torn AS SELECT acct, COUNT(*) AS n FROM calls WHERE acct !`, true},
		{"stray_bang", `CREATE VIEW torn AS SELECT acct ! COUNT(*)`, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			db, err := chronicledb.Open(chronicledb.Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			mustExec(t, db, `CREATE CHRONICLE calls (acct STRING, minutes INT)`)
			mustExec(t, db, `CREATE VIEW usage AS SELECT acct, SUM(minutes) AS total FROM calls WHERE acct != ';' GROUP BY acct`)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, "catalog.sql")
			whole, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, append(append([]byte(nil), whole...), tc.tail...), 0o644); err != nil {
				t.Fatal(err)
			}
			db, err = chronicledb.Open(chronicledb.Options{Dir: dir})
			if !tc.torn {
				if err == nil || !strings.Contains(err.Error(), "corrupt catalog") {
					db.Close()
					t.Fatalf("Open = %v, want a corrupt catalog", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := db.View("usage"); !ok {
				t.Error("view usage lost with the torn tail")
			}
			if _, ok := db.View("torn"); ok {
				t.Error("the torn view was created")
			}
			if got, _ := os.ReadFile(path); string(got) != string(whole) {
				t.Errorf("catalog.sql not trimmed to its whole statements:\n%s", got)
			}
			mustExec(t, db, `CREATE VIEW later AS SELECT acct, COUNT(*) AS n FROM calls GROUP BY acct`)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db, err = chronicledb.Open(chronicledb.Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if _, ok := db.View("later"); !ok {
				t.Error("view later, created after the repair, missing on reopen")
			}
		})
	}
}
