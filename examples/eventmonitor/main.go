// Event monitor: the paper's Section 6 observation that active-database
// event recognition "is done on a chronicle of events", with history-less
// evaluation being exactly incremental maintenance of persistent views.
//
// A payment system emits two event chronicles in one group: authorizations
// and captures. A transaction that is authorized and captured in the same
// recording step is a settled composite event — recognized by the natural
// equijoin on the sequencing attribute (the only chronicle-chronicle join
// inside the algebra). Views over the composite stream answer monitoring
// questions without any event log being retained.
package main

import (
	"fmt"
	"log"

	chronicledb "chronicledb"
)

func main() {
	db, err := chronicledb.Open(chronicledb.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	must(db, `
		CREATE GROUP payments;
		CREATE CHRONICLE authorized (merchant STRING, amount FLOAT) IN GROUP payments;
		CREATE CHRONICLE captured (merchant STRING, amount FLOAT) IN GROUP payments;

		-- The composite event: authorize+capture in one step, per merchant.
		CREATE VIEW settled AS
			SELECT authorized.merchant, COUNT(*) AS events, SUM(authorized.amount) AS volume
			FROM authorized JOIN captured ON SN
			GROUP BY authorized.merchant;

		-- Authorizations that were NOT captured in the same step show up
		-- here but not in settled: the monitoring delta.
		CREATE VIEW auth_volume AS
			SELECT merchant, COUNT(*) AS events, SUM(amount) AS volume
			FROM authorized GROUP BY merchant;
	`)

	// Settled events: both chronicles receive a tuple with one shared
	// sequence number (the paper's simultaneous insert).
	settle := func(merchant string, amount float64) {
		must(db, fmt.Sprintf(
			`APPEND INTO authorized VALUES ('%s', %g) ALSO INTO captured VALUES ('%s', %g)`,
			merchant, amount, merchant, amount))
	}
	// A lone authorization: no capture, no composite event.
	authorize := func(merchant string, amount float64) {
		must(db, fmt.Sprintf(`APPEND INTO authorized VALUES ('%s', %g)`, merchant, amount))
	}

	settle("acme", 120.00)
	settle("acme", 80.50)
	authorize("acme", 999.99) // pending — must not count as settled
	settle("globex", 42.00)
	settle("initech", 10.00)
	authorize("globex", 7.77)

	fmt.Println("settled composite events per merchant:")
	res, err := db.Exec(`SELECT * FROM settled ORDER BY volume DESC`)
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range res.Rows {
		fmt.Printf("  %-8s %d events, $%.2f\n", row[0], row[1].AsInt(), row[2].AsFloat())
	}

	// Monitoring check: acme has 3 authorizations but only 2 settlements.
	auth, _, _ := db.Lookup("auth_volume", chronicledb.Str("acme"))
	set, _, _ := db.Lookup("settled", chronicledb.Str("acme"))
	pending := auth[1].AsInt() - set[1].AsInt()
	fmt.Printf("\nacme: %d authorized, %d settled, %d pending capture\n",
		auth[1].AsInt(), set[1].AsInt(), pending)
	if pending != 1 {
		log.Fatalf("composite detection broken: %d pending", pending)
	}

	// Range query over the view's key order: merchants a…h.
	rows, err := db.LookupRange("settled",
		chronicledb.Tuple{chronicledb.Str("a")}, chronicledb.Tuple{chronicledb.Str("h")})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nmerchants a–g with settlements:")
	for _, r := range rows {
		fmt.Printf("  %s\n", r[0])
	}
}

func must(db *chronicledb.DB, stmt string) {
	if _, err := db.Exec(stmt); err != nil {
		log.Fatalf("%v", err)
	}
}
