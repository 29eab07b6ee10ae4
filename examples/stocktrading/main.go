// Stock trading: the paper's Section 5.1 moving-window example — "a
// periodic view for every day that computes the total number of shares of
// a stock sold during the 30 days preceding that day".
//
// The example runs the same trade stream through three implementations and
// shows they agree while costing very different amounts:
//
//  1. an overlapping periodic view family (EVERY day WIDTH 30 days), the
//     declarative form;
//  2. the cyclic buffer of 30 per-day partials the paper proposes as the
//     optimized evaluation, with O(1) maintenance for invertible SUM;
//  3. a naive re-aggregation over the raw trades in the window.
package main

import (
	"fmt"
	"log"
	"math/rand"

	chronicledb "chronicledb"
	"chronicledb/internal/aggregate"
	"chronicledb/internal/calendar"
	"chronicledb/internal/value"
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

	ring, err := calendar.NewMovingSum(day, 30)
	if err != nil {
		log.Fatal(err)
	}
	naive, err := calendar.NewNaiveWindow(aggregate.Sum, value.KindInt, 30*day)
	if err != nil {
		log.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	symbols := []string{"T", "ATT", "NCR"}
	for d := int64(0); d < 90; d++ {
		for trade := 0; trade < 20; trade++ {
			now = d*day + int64(trade)*60
			sym := symbols[rng.Intn(len(symbols))]
			shares := int64(100 + rng.Intn(900))
			must(db, fmt.Sprintf(`APPEND INTO trades VALUES ('%s', %d, %g)`,
				sym, shares, 20+float64(rng.Intn(4000))/100))
			ring.Add(sym, now, float64(shares))
			naive.Add(sym, now, chronicledb.Int(shares))
		}
	}

	// Compare the three answers for the window ending "today" (day 89).
	pv, ok := db.Engine().PeriodicView("monthly_volume")
	if !ok {
		log.Fatal("periodic view missing")
	}
	window := calendar.Interval{Start: 60 * day, End: 90 * day} // the last full window
	inst, ok := pv.At(window)
	if !ok {
		log.Fatalf("window %v has no live instance", window)
	}
	fmt.Printf("30-day share volume ending day 90 (window %v):\n", window)
	for _, sym := range symbols {
		declRow, ok := inst.Lookup(chronicledb.Tuple{chronicledb.Str(sym)})
		if !ok {
			log.Fatalf("no volume for %s", sym)
		}
		declarative := declRow[1].AsInt()
		cyclic := int64(ring.Value(sym, now))
		reagg := naive.Value(sym, now).AsInt()
		fmt.Printf("  %-4s declarative=%-8d cyclic-buffer=%-8d naive=%-8d\n",
			sym, declarative, cyclic, reagg)
		if declarative != cyclic || cyclic != reagg {
			log.Fatalf("implementations disagree for %s", sym)
		}
	}

	fmt.Printf("\nlive window instances: %d (expiration keeps the infinite calendar finite)\n", pv.Live())
	fmt.Printf("windows created: %d, expired: %d\n", pv.Created(), pv.Expired())
}

func must(db *chronicledb.DB, stmt string) {
	if _, err := db.Exec(stmt); err != nil {
		log.Fatalf("%s: %v", stmt, err)
	}
}
