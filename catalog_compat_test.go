package chronicledb_test

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	chronicledb "chronicledb"
)

// compatDDL is the DDL of examples/banking and examples/eventmonitor as they
// were written when a view chose its store, and a view that chose the hash
// store by name: the WITH STORE clause still parses, and is ignored.
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

// compatLoad appends round r of the workload: ledger movements
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

// compatRows reads every view of compatDDL, in key order.
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

// TestCatalogWithStoreReplays: a durable database whose views say WITH STORE
// BTREE or HASH pages every view under the one store, and answers what an
// in-memory twin given the same DDL and rounds answers: reopened over a
// checkpoint cut mid-load and a WAL tail past it, after more rounds, and
// reopened again after a checkpoint and a view created with the clause
// since. The catalog keeps every statement as written, clause and all.
func TestCatalogWithStoreReplays(t *testing.T) {
	dir := t.TempDir()
	opts := chronicledb.Options{Dir: dir, ViewBlockBytes: 256}
	db, err := chronicledb.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := chronicledb.Open(chronicledb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	both := func(do func(*chronicledb.DB)) {
		do(db)
		do(ref)
	}
	exec := func(stmt string) {
		both(func(d *chronicledb.DB) {
			if _, err := d.Exec(stmt); err != nil {
				t.Fatal(err)
			}
		})
	}
	rounds := func(from, to int) {
		for r := from; r < to; r++ {
			both(func(d *chronicledb.DB) { compatLoad(t, d, r) })
		}
	}
	reopen := func() {
		t.Helper()
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if db, err = chronicledb.Open(opts); err != nil {
			t.Fatal(err)
		}
	}
	check := func(what string) {
		t.Helper()
		if got, want := compatRows(t, db), compatRows(t, ref); got != want {
			t.Fatalf("%s: the replayed views differ:\n got %s\nwant %s", what, got, want)
		}
	}

	for _, s := range compatDDL {
		exec(s)
	}
	rounds(0, 4)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	rounds(4, 6)
	reopen()
	check("reopened over a checkpoint and a tail")
	for _, v := range compatViews {
		if res, err := db.Exec("EXPLAIN VIEW " + v); err != nil || !strings.Contains(fmt.Sprint(res.Rows), "(store, paged)") {
			t.Errorf("EXPLAIN VIEW %s: %v %v, want a paged store", v, res, err)
		}
	}
	rounds(6, 8)
	check("after more rounds")
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	const late = `CREATE VIEW late AS SELECT merchant, MAX(amount) AS hi FROM captured GROUP BY merchant WITH STORE BTREE`
	exec(late)
	rounds(8, 9)
	reopen()
	defer db.Close()
	check("after a checkpoint, a late view and a reopen")
	catalog, err := os.ReadFile(filepath.Join(dir, "catalog.sql"))
	if err != nil {
		t.Fatal(err)
	}
	if want := strings.Join(append(slices.Clone(compatDDL), late), ";\n") + ";\n"; string(catalog) != want {
		t.Errorf("the catalog does not keep the statements as they were given, clause and all:\n got %s\nwant %s", catalog, want)
	}
}
