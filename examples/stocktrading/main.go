// Stock trading: the paper's Section 5.1 moving-window example — "a
// periodic view for every day that computes the total number of shares of
// a stock sold during the 30 days preceding that day".
//
// The family (EVERY day WIDTH 30 days) is the declarative form, and the
// database evaluates it the way the paper proposes: each trade folds once,
// into its day's pane of per-day partials, and a 30-day window reads the
// merge of its 30 panes. The example reads the window ending today with
// SELECT … FROM the family and checks it against a naive re-aggregation of
// the raw trades in the window.
package main

import (
	"fmt"
	"log"
	"math/rand"

	chronicledb "chronicledb"
)

const day = int64(24 * 3600)

func main() {
	now := int64(0)
	db, err := chronicledb.Open(chronicledb.Options{Clock: func() int64 { return now }})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	must(db, `CREATE CHRONICLE trades (symbol STRING, shares INT, price FLOAT)`)
	// One view instance per day, each covering the preceding 30 days;
	// instances expire a day after their window closes.
	must(db, fmt.Sprintf(`CREATE PERIODIC VIEW monthly_volume AS
		SELECT symbol, SUM(shares) AS shares, COUNT(*) AS trades
		FROM trades GROUP BY symbol
		EVERY %d WIDTH %d EXPIRE %d`, day, 30*day, day))

	type trade struct {
		at     int64
		symbol string
		shares int64
	}
	var trades []trade
	rng := rand.New(rand.NewSource(7))
	symbols := []string{"T", "ATT", "NCR"}
	for d := int64(0); d < 90; d++ {
		for i := 0; i < 20; i++ {
			now = d*day + int64(i)*60
			sym := symbols[rng.Intn(len(symbols))]
			shares := int64(100 + rng.Intn(900))
			must(db, fmt.Sprintf(`APPEND INTO trades VALUES ('%s', %d, %g)`,
				sym, shares, 20+float64(rng.Intn(4000))/100))
			trades = append(trades, trade{now, sym, shares})
		}
	}

	// Compare the two answers for the window ending "today" (day 89): the
	// family's instance whose interval starts on day 60, the last full window.
	start := 60 * day
	naive := map[string]int64{}
	for _, t := range trades {
		if t.at >= start && t.at < start+30*day {
			naive[t.symbol] += t.shares
		}
	}
	fmt.Printf("30-day share volume ending day 90 (window [%d,%d)):\n", start, start+30*day)
	for _, sym := range symbols {
		res, err := db.Exec(fmt.Sprintf(`SELECT * FROM monthly_volume FOR INTERVAL %d WHERE symbol = '%s'`, start, sym))
		if err != nil {
			log.Fatal(err)
		}
		if len(res.Rows) != 1 {
			log.Fatalf("no volume for %s", sym)
		}
		declarative := res.Rows[0][1].AsInt()
		fmt.Printf("  %-4s declarative=%-8d naive=%-8d\n", sym, declarative, naive[sym])
		if declarative != naive[sym] {
			log.Fatalf("the family and the naive fold disagree for %s", sym)
		}
	}

	// EXPLAIN VIEW counts the family's instances.
	res, err := db.Exec(`EXPLAIN VIEW monthly_volume`)
	if err != nil {
		log.Fatal(err)
	}
	counts := map[string]int64{}
	for _, row := range res.Rows {
		switch name := row[0].AsString(); name {
		case "live_instances", "created", "expired":
			counts[name] = row[1].AsInt()
		}
	}
	fmt.Printf("\nlive window instances: %d (expiration keeps the infinite calendar finite)\n", counts["live_instances"])
	fmt.Printf("windows created: %d, expired: %d\n", counts["created"], counts["expired"])
}

func must(db *chronicledb.DB, stmt string) {
	if _, err := db.Exec(stmt); err != nil {
		log.Fatalf("%s: %v", stmt, err)
	}
}
