package chronicledb

import (
	"reflect"
	"testing"

	"chronicledb/internal/shard"
	"chronicledb/internal/sqlparse"
)

// TestRenderDDLRoundTrip: every DDL statement the executor accepts must
// survive render → reparse → replan with an identical plan. The catalog
// file is exactly these rendered statements, so this is the recovery
// correctness property for schemas.
func TestRenderDDLRoundTrip(t *testing.T) {
	ddl := []string{
		`CREATE GROUP g`,
		`CREATE CHRONICLE calls (acct STRING, minutes INT, cost FLOAT, ok BOOL, at TIME) IN GROUP g RETAIN 100 WINDOW 5000`,
		`CREATE CHRONICLE payments (acct STRING, amount FLOAT) IN GROUP g RETAIN NONE`,
		`CREATE CHRONICLE audit (who STRING, what STRING) RETAIN ALL`,
		`CREATE RELATION customers (acct STRING, state STRING, tier INT, KEY(acct))`,
		`CREATE VIEW v1 AS SELECT calls.acct, SUM(minutes) AS m, COUNT(*) AS n, AVG(cost) AS mean,
			MIN(cost) AS lo, MAX(cost) AS hi, STDDEV(cost) AS sd
			FROM calls GROUP BY calls.acct WITH STORE BTREE`,
		`CREATE VIEW v2 AS SELECT state, SUM(cost) AS revenue FROM calls
			JOIN customers ON calls.acct = customers.acct
			WHERE minutes > 0 AND (state = 'nj' OR state = 'n''y')
			GROUP BY state`,
		`CREATE VIEW v3 AS SELECT DISTINCT calls.acct FROM calls CROSS JOIN customers`,
		`CREATE VIEW v4 AS SELECT calls.acct, SUM(amount) AS paid FROM calls
			JOIN payments ON SN GROUP BY calls.acct`,
		`CREATE PERIODIC VIEW v5 AS SELECT acct, SUM(minutes) AS m FROM calls GROUP BY acct
			EVERY 100 WIDTH 300 OFFSET 7 EXPIRE 50`,
		`CREATE VIEW v6 AS SELECT acct, COUNT(*) AS n FROM calls WHERE cost >= 1.5 AND at != NULL GROUP BY acct`,
	}

	// Execute the originals in one database.
	db1 := memDB(t)
	for _, stmt := range ddl {
		mustExec(t, db1, stmt)
	}

	// Render each statement and execute the rendered text in a second
	// database; the catalogs must agree statement by statement.
	db2 := memDB(t)
	for _, stmt := range ddl {
		parsed, err := sqlparse.ParseOne(stmt)
		if err != nil {
			t.Fatalf("parse %q: %v", stmt, err)
		}
		rendered := renderDDL(parsed)
		reparsed, err := sqlparse.ParseOne(rendered)
		if err != nil {
			t.Fatalf("reparse %q: %v", rendered, err)
		}
		if !reflect.DeepEqual(parsed, reparsed) {
			t.Errorf("render round trip changed the AST:\n  original: %q\n  rendered: %q\n  %#v\n  vs\n  %#v",
				stmt, rendered, parsed, reparsed)
		}
		mustExec(t, db2, rendered)
	}

	// The two databases end with identical schemas and view classifications.
	for _, viewName := range db1.Engine().Names(shard.Views) {
		v1, _ := db1.View(viewName)
		v2, ok := db2.View(viewName)
		if !ok {
			t.Fatalf("view %s missing after rendered DDL", viewName)
		}
		if !v1.Schema().Equal(v2.Schema()) {
			t.Errorf("view %s schema drift: %s vs %s", viewName, v1.Schema(), v2.Schema())
		}
		if v1.Lang() != v2.Lang() || v1.IMClass() != v2.IMClass() {
			t.Errorf("view %s classification drift", viewName)
		}
		if v1.Def().Expr.String() != v2.Def().Expr.String() {
			t.Errorf("view %s expression drift:\n  %s\n  vs\n  %s",
				viewName, v1.Def().Expr, v2.Def().Expr)
		}
	}
	// Both databases behave identically on the same appends.
	for _, db := range []*DB{db1, db2} {
		mustExec(t, db, `UPSERT INTO customers VALUES ('a', 'nj', 1)`)
		mustExec(t, db, `APPEND INTO calls VALUES ('a', 10, 2.5, TRUE, NULL)`)
	}
	r1, ok1, _ := db1.Lookup("v2", Str("nj"))
	r2, ok2, _ := db2.Lookup("v2", Str("nj"))
	if !ok1 || !ok2 || r1.String() != r2.String() {
		t.Errorf("post-replay behavior drift: %v/%v vs %v/%v", r1, ok1, r2, ok2)
	}
}
