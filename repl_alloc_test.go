package chronicledb

import (
	"testing"

	"chronicledb/internal/value"
	"chronicledb/internal/wal"
)

// TestReplAllocGuards pins the follower apply path's steady-state
// allocation count: applying one replicated append record through
// the kernel's Replay (the path recovery and the follower share) must
// stay within the append hot path's own budget — a follower that
// allocates more per record than its primary does per append can never
// keep up. `make bench-allocs` runs this alongside the append guards.
func TestReplAllocGuards(t *testing.T) {
	if raceEnabledInternal {
		t.Skip("allocation counts are not meaningful under -race")
	}
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE CHRONICLE calls (acct STRING, minutes INT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`CREATE VIEW usage AS SELECT acct, SUM(minutes) AS total
		FROM calls GROUP BY acct`); err != nil {
		t.Fatal(err)
	}

	rec := wal.Record{
		Kind: wal.RecAppend,
		Parts: []wal.Part{{
			Chronicle: "calls",
			Tuples:    []value.Tuple{{value.Str("acct-0007"), value.Int(3)}},
		}},
	}
	next := func() wal.Record {
		rec.SN++
		rec.Chronon++
		rec.LSN++
		return rec
	}
	for i := 0; i < 200; i++ {
		if err := db.eng.Replay(next()); err != nil {
			t.Fatal(err)
		}
	}
	// db.Append's end-to-end budget is 2 (alloc_guard_test.go), and a
	// replayed record is applied as it arrives, so the budget is the same.
	got := testing.AllocsPerRun(1000, func() {
		if err := db.eng.Replay(next()); err != nil {
			t.Fatal(err)
		}
	})
	if got > 2 {
		t.Errorf("Replay: %.1f allocs/op, budget 2 — the follower apply path regressed past the append budget", got)
	} else {
		t.Logf("Replay: %.1f allocs/op (budget 2, the append path's)", got)
	}
}
