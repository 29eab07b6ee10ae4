// Telecom: per-billing-month periodic views (Section 5.1) and the
// incremental discount plan of Section 5.3.
//
// The cellular scenario from the paper's introduction: when a phone powers
// on, the handset displays the minutes used this billing month — a summary
// query that must be answered in subseconds without touching the call
// record sequence. Billing months are a periodic view; the popular
// "10% off over $10, 20% off over $25" plan is maintained incrementally so
// the discount is current after every call, not just at month end.
package main

import (
	"fmt"
	"log"

	chronicledb "chronicledb"
	"chronicledb/internal/tiers"
)

// The example uses an abstract clock: one chronon = one second, 30-day
// months of 2_592_000 seconds.
const month = 30 * 24 * 3600

func main() {
	now := int64(0)
	db, err := chronicledb.Open(chronicledb.Options{Clock: func() int64 { return now }})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	must(db, `CREATE CHRONICLE calls (number STRING, minutes INT, charge FLOAT)`)

	// Minutes-this-month, per number: the power-on display. One view
	// instance per billing month; old months expire a month after closing.
	must(db, fmt.Sprintf(`CREATE PERIODIC VIEW monthly_minutes AS
		SELECT number, SUM(minutes) AS minutes, SUM(charge) AS charged, COUNT(*) AS calls
		FROM calls GROUP BY number
		EVERY %d EXPIRE %d`, month, month))

	// Lifetime usage for customer care ("total minutes since the number
	// was assigned").
	must(db, `CREATE VIEW lifetime AS
		SELECT number, SUM(minutes) AS minutes, COUNT(*) AS calls
		FROM calls GROUP BY number`)

	// The Section 5.3 discount plan, maintained incrementally alongside.
	plan, err := tiers.NewSchedule(tiers.AllUnits,
		tiers.Tier{Threshold: 10, Rate: 0.10},
		tiers.Tier{Threshold: 25, Rate: 0.20},
	)
	if err != nil {
		log.Fatal(err)
	}
	discounts := tiers.NewTracker(plan)

	type call struct {
		day     int64
		number  string
		minutes int64
		charge  float64
	}
	callsMade := []call{
		{2, "555-0100", 12, 4.80},
		{3, "555-0100", 30, 9.00},
		{3, "555-0199", 5, 1.25},
		{10, "555-0100", 44, 13.20}, // crosses the $10 tier mid-month
		{17, "555-0100", 9, 2.70},
		{31, "555-0100", 20, 8.00}, // next billing month
		{33, "555-0199", 61, 18.30},
	}
	for _, c := range callsMade {
		now = c.day * 24 * 3600
		must(db, fmt.Sprintf(`APPEND INTO calls VALUES ('%s', %d, %g)`, c.number, c.minutes, c.charge))
		s := discounts.Add(c.number, c.charge)
		fmt.Printf("day %2d  %s  %2d min  $%5.2f  → month-to-date $%6.2f, discount $%5.2f (tier %d)\n",
			c.day, c.number, c.minutes, c.charge, s.Total, s.Discount, s.Tier+1)
	}

	// Both billing months are still live: SELECT … FOR INTERVAL reads the
	// month that starts at the chronon it names (EXPLAIN VIEW lists the live
	// intervals).
	fmt.Println()
	for _, start := range []int64{0, month} {
		res, err := db.Exec(fmt.Sprintf(`SELECT * FROM monthly_minutes FOR INTERVAL %d`, start))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("billing period starting day %d:\n", start/(24*3600))
		for _, row := range res.Rows {
			fmt.Printf("  %s: %d min, $%.2f over %d calls\n",
				row[0].AsString(), row[1].AsInt(), row[2].AsFloat(), row[3].AsInt())
		}
	}

	// Power-on display for 555-0100: the family's name alone reads the
	// current month, the live instance that started last.
	res, err := db.Exec(`SELECT * FROM monthly_minutes WHERE number = '555-0100'`)
	if err != nil || len(res.Rows) != 1 {
		log.Fatalf("current month of 555-0100: %v %v", res, err)
	}
	fmt.Printf("\npower-on display, 555-0100: %d min this month\n", res.Rows[0][1].AsInt())

	// Customer care: lifetime minutes, answered from the persistent view.
	row, ok, err := db.Lookup("lifetime", chronicledb.Str("555-0100"))
	if err != nil || !ok {
		log.Fatal("lifetime lookup failed")
	}
	fmt.Printf("\nlifetime 555-0100: %d minutes over %d calls\n", row[1].AsInt(), row[2].AsInt())

	// Tier crossings were observable the moment they happened — the thing
	// an end-of-month batch job cannot provide.
	for _, cr := range discounts.Crossings {
		fmt.Printf("tier change: %s entered tier %d at $%.2f\n", cr.Key, cr.ToTier+1, cr.AtTotal)
	}
}

func must(db *chronicledb.DB, stmt string) {
	if _, err := db.Exec(stmt); err != nil {
		log.Fatalf("%s: %v", stmt, err)
	}
}
