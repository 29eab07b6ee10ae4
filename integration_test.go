package chronicledb

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentAppends drives the engine from many goroutines; the single
// engine mutex must serialize appends so that sequence numbers stay unique
// and the views end exactly consistent.
func TestConcurrentAppends(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, `CREATE CHRONICLE calls (acct STRING, minutes INT)`)
	mustExec(t, db, `CREATE VIEW usage AS
		SELECT acct, SUM(minutes) AS total, COUNT(*) AS n FROM calls GROUP BY acct`)

	const workers = 8
	const perWorker = 500
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			acct := fmt.Sprintf("acct%d", w)
			for i := 0; i < perWorker; i++ {
				if _, err := db.Append("calls", Tuple{Str(acct), Int(1)}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := db.Stats()
	if st.Appends != workers*perWorker {
		t.Errorf("Appends = %d", st.Appends)
	}
	for w := 0; w < workers; w++ {
		row, ok, err := db.Lookup("usage", Str(fmt.Sprintf("acct%d", w)))
		if err != nil || !ok {
			t.Fatalf("worker %d: %v %v", w, ok, err)
		}
		if row[1].AsInt() != perWorker || row[2].AsInt() != perWorker {
			t.Errorf("worker %d: %v", w, row)
		}
	}
	// Sequence numbers are dense and unique under concurrency.
	c, _ := db.Chronicle("calls")
	if c.LastSN() != int64(workers*perWorker-1) {
		t.Errorf("LastSN = %d", c.LastSN())
	}
}

// TestConcurrentAppendsDurable repeats the concurrency check with the WAL
// attached, then recovers and compares.
func TestConcurrentAppendsDurable(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE CHRONICLE calls (acct STRING, minutes INT)`)
	mustExec(t, db, `CREATE VIEW usage AS
		SELECT acct, SUM(minutes) AS total FROM calls GROUP BY acct`)

	const workers = 4
	const perWorker = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				db.Append("calls", Tuple{Str(fmt.Sprintf("acct%d", w)), Int(2)})
			}
		}(w)
	}
	wg.Wait()
	want := map[string]int64{}
	for w := 0; w < workers; w++ {
		acct := fmt.Sprintf("acct%d", w)
		row, _, _ := db.Lookup("usage", Str(acct))
		want[acct] = row[1].AsInt()
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for acct, total := range want {
		row, ok, err := db2.Lookup("usage", Str(acct))
		if err != nil || !ok || row[1].AsInt() != total {
			t.Errorf("%s after recovery: %v %v %v (want %d)", acct, row, ok, err, total)
		}
	}
}

// TestFullScenario is the end-to-end paper walkthrough: frequent flyer
// semantics (temporal joins + proactive updates), periodic billing, a
// checkpoint mid-stream, and recovery — all through the public API.
func TestFullScenario(t *testing.T) {
	dir := t.TempDir()
	now := int64(0)
	db, err := Open(Options{Dir: dir, Clock: func() int64 { return now }})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `
		CREATE GROUP airline;
		CREATE CHRONICLE mileage (acct STRING, miles INT) IN GROUP airline;
		CREATE RELATION customers (acct STRING, state STRING, KEY(acct));
		CREATE VIEW balance AS SELECT acct, SUM(miles) AS miles FROM mileage GROUP BY acct;
		CREATE VIEW nj_miles AS
			SELECT mileage.acct, SUM(miles) AS miles FROM mileage
			JOIN customers ON mileage.acct = customers.acct
			WHERE state = 'NJ'
			GROUP BY mileage.acct;
		CREATE PERIODIC VIEW quarterly AS
			SELECT acct, SUM(miles) AS miles FROM mileage GROUP BY acct
			EVERY 100;
	`)
	mustExec(t, db, `UPSERT INTO customers VALUES ('p1', 'NJ')`)
	now = 10
	mustExec(t, db, `APPEND INTO mileage VALUES ('p1', 1000)`)
	mustExec(t, db, `UPSERT INTO customers VALUES ('p1', 'CA')`) // proactive move
	now = 50
	mustExec(t, db, `APPEND INTO mileage VALUES ('p1', 2000)`)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	now = 150 // next quarter
	mustExec(t, db, `APPEND INTO mileage VALUES ('p1', 400)`)
	db.Close()

	db2, err := Open(Options{Dir: dir, Clock: func() int64 { return now }})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()

	row, _, _ := db2.Lookup("balance", Str("p1"))
	if row[1].AsInt() != 3400 {
		t.Errorf("balance = %v", row)
	}
	row, _, _ = db2.Lookup("nj_miles", Str("p1"))
	if row[1].AsInt() != 1000 {
		t.Errorf("nj_miles = %v (only the pre-move flight qualifies)", row)
	}
	res := mustExec(t, db2, `EXPLAIN VIEW quarterly`)
	if got := dumpResult(res); !strings.HasSuffix(got, "(interval, [0,100))\n(interval, [100,200))\n") {
		t.Fatalf("quarters:\n%s", got)
	}
	q0 := dumpResult(mustExec(t, db2, `SELECT * FROM quarterly FOR INTERVAL 0 WHERE acct = 'p1'`))
	q1 := dumpResult(mustExec(t, db2, `SELECT * FROM quarterly FOR INTERVAL 100 WHERE acct = 'p1'`))
	if q0 != "(p1, 3000)\n" || q1 != "(p1, 400)\n" {
		t.Errorf("quarters = %q / %q", q0, q1)
	}
}

// TestConcurrentReadsDuringAppends exercises the read path (Lookup, range
// scans, SQL queries) while appenders run — the engine must serialize view
// access so readers never observe torn state (validated under -race).
func TestConcurrentReadsDuringAppends(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, `CREATE CHRONICLE calls (acct STRING, minutes INT)`)
	mustExec(t, db, `CREATE VIEW usage AS
		SELECT acct, SUM(minutes) AS total, COUNT(*) AS n FROM calls GROUP BY acct WITH STORE BTREE`)

	done := make(chan struct{})
	var appenders, readers sync.WaitGroup
	for w := 0; w < 4; w++ {
		appenders.Add(1)
		go func(w int) {
			defer appenders.Done()
			for i := 0; i < 400; i++ {
				if _, err := db.Append("calls", Tuple{Str(fmt.Sprintf("acct%d", i%16)), Int(1)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if row, ok, err := db.Lookup("usage", Str("acct3")); err != nil {
				t.Error(err)
				return
			} else if ok {
				// The invariant visible mid-stream: total == n (all minutes are 1).
				if row[1].AsInt() != row[2].AsInt() {
					t.Errorf("torn read: %v", row)
					return
				}
			}
			if _, err := db.LookupRange("usage", Tuple{Str("acct0")}, Tuple{Str("acct9")}); err != nil {
				t.Error(err)
				return
			}
			if _, err := db.Exec(`SELECT * FROM usage ORDER BY total DESC LIMIT 3`); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	appenders.Wait()
	close(done)
	readers.Wait()
	row, ok, err := db.Lookup("usage", Str("acct3"))
	if err != nil || !ok || row[2].AsInt() != 100 {
		t.Errorf("final usage(acct3) = %v %v %v", row, ok, err)
	}
}
