package chronicledb_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	chronicledb "chronicledb"
)

// compatDDL is the catalog of testdata/catalog_with_store: the DDL of
// examples/banking and examples/eventmonitor as they were written when a view
// chose its store, and a view that chose the hash store by name.
var compatDDL = []string{
	`CREATE CHRONICLE ledger (acct STRING, kind STRING, amount FLOAT)`,
	`CREATE RELATION accounts (acct STRING, holder STRING, KEY(acct))`,
	`CREATE VIEW dollar_balance AS
		SELECT acct, SUM(amount) AS balance, COUNT(*) AS txns
		FROM ledger GROUP BY acct WITH STORE BTREE`,
	`CREATE VIEW ledger_kinds AS SELECT kind, COUNT(*) AS n, SUM(amount) AS total FROM ledger GROUP BY kind WITH STORE HASH`,
	`CREATE GROUP payments`,
	`CREATE CHRONICLE authorized (merchant STRING, amount FLOAT) IN GROUP payments`,
	`CREATE CHRONICLE captured (merchant STRING, amount FLOAT) IN GROUP payments`,
	`CREATE VIEW settled AS
		SELECT authorized.merchant, COUNT(*) AS events, SUM(authorized.amount) AS volume
		FROM authorized JOIN captured ON SN
		GROUP BY authorized.merchant WITH STORE BTREE`,
	`CREATE VIEW auth_volume AS
		SELECT merchant, COUNT(*) AS events, SUM(amount) AS volume
		FROM authorized GROUP BY merchant`,
}

var compatViews = []string{"dollar_balance", "ledger_kinds", "settled", "auth_volume"}

// compatLoad appends round r of the fixture's workload: ledger movements
// over 60 accounts, settled events and lone authorizations over 25
// merchants.
func compatLoad(t testing.TB, db *chronicledb.DB, r int) {
	t.Helper()
	for i := 0; i < 40; i++ {
		acct := fmt.Sprintf("chk-%03d", (i*7+r*11)%60)
		kind, amount := "deposit", float64(10+(i*13+r)%90)
		if (i+r)%3 == 0 {
			kind, amount = "withdrawal", -amount/2
		}
		stmts := []string{fmt.Sprintf(`APPEND INTO ledger VALUES ('%s', '%s', %g)`, acct, kind, amount)}
		merchant := fmt.Sprintf("m%02d", (i*5+r*3)%25)
		if (i+r)%4 == 0 {
			stmts = append(stmts, fmt.Sprintf(`APPEND INTO authorized VALUES ('%s', %g)`, merchant, amount+1))
		} else {
			stmts = append(stmts, fmt.Sprintf(`APPEND INTO authorized VALUES ('%s', %g) ALSO INTO captured VALUES ('%s', %g)`,
				merchant, amount+2, merchant, amount+2))
		}
		for _, s := range stmts {
			if _, err := db.Exec(s); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// compatRows reads every view of the fixture, in key order.
func compatRows(t testing.TB, db *chronicledb.DB) string {
	t.Helper()
	var b strings.Builder
	for _, v := range compatViews {
		res, err := db.Exec("SELECT * FROM " + v)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s %v\n", v, res.Rows)
	}
	return b.String()
}

// TestCatalogWithStoreReplays: testdata/catalog_with_store is a database
// directory written when views chose their store — a catalog.sql whose views
// say WITH STORE BTREE or HASH, a checkpoint chain holding blocked images of
// the B-tree views and whole images of the hash ones, and a WAL tail past
// it (rounds 0–3 checkpointed, 4–5 in the tail). It opens and replays under
// one store, where every view pages, and its views answer what the same DDL
// and rounds give a fresh database; both keep agreeing after more rounds, a
// checkpoint and a reopen; and DDL written now keeps the clause as written
// and replays with it.
func TestCatalogWithStoreReplays(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join("testdata", "catalog_with_store")
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if catalog, _ := os.ReadFile(filepath.Join(dir, "catalog.sql")); !strings.Contains(string(catalog), "WITH STORE BTREE") {
		t.Fatalf("the fixture's catalog has no WITH STORE clause:\n%s", catalog)
	}

	ref, err := chronicledb.Open(chronicledb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for _, s := range compatDDL {
		if _, err := ref.Exec(s); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < 6; r++ {
		compatLoad(t, ref, r)
	}

	db, err := chronicledb.Open(chronicledb.Options{Dir: dir, ViewBlockBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string) {
		t.Helper()
		if got, want := compatRows(t, db), compatRows(t, ref); got != want {
			t.Fatalf("%s: the replayed views differ:\n got %s\nwant %s", what, got, want)
		}
	}
	check("reopened")
	for _, v := range compatViews {
		if res, err := db.Exec("EXPLAIN VIEW " + v); err != nil || !strings.Contains(fmt.Sprint(res.Rows), "(store, paged)") {
			t.Errorf("EXPLAIN VIEW %s: %v %v, want a paged store", v, res, err)
		}
	}
	for r := 6; r < 8; r++ {
		compatLoad(t, db, r)
		compatLoad(t, ref, r)
	}
	check("after more rounds")
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	const late = `CREATE VIEW late AS SELECT merchant, MAX(amount) AS hi FROM captured GROUP BY merchant WITH STORE BTREE`
	for _, d := range []*chronicledb.DB{db, ref} {
		if _, err := d.Exec(late); err != nil {
			t.Fatal(err)
		}
	}
	compatLoad(t, db, 8)
	compatLoad(t, ref, 8)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = chronicledb.Open(chronicledb.Options{Dir: dir, ViewBlockBytes: 256}); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	check("after a checkpoint and a reopen")
	catalog, err := os.ReadFile(filepath.Join(dir, "catalog.sql"))
	if err != nil {
		t.Fatal(err)
	}
	if text := string(catalog); !strings.HasSuffix(text, late+";\n") {
		t.Errorf("the view created now is not written as it was given, clause and all:\n%s", text)
	}
}
