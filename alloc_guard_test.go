// Allocation-regression guards for the append hot path. The paper's
// constant-per-append maintenance claim (Theorem 4.2) only shows up at
// hardware speed if the append→dispatch→delta→maintain path stops
// allocating once warm, so these guards pin the steady-state allocation
// counts measured after the zero-allocation pass: the micro paths are
// exactly zero, the end-to-end engine append is allowed a small fixed
// budget. `make bench-allocs` (wired into `make check`) fails the build if
// any of them regress.
package chronicledb_test

import (
	"fmt"
	"testing"

	chronicledb "chronicledb"
	"chronicledb/internal/aggregate"
	"chronicledb/internal/algebra"
	"chronicledb/internal/bench"
	"chronicledb/internal/chronicle"
	feedpkg "chronicledb/internal/feed"
	"chronicledb/internal/keyenc"
	"chronicledb/internal/value"
)

// allocGuard asserts the steady-state allocation count of fn.
func allocGuard(t *testing.T, name string, max float64, fn func()) {
	t.Helper()
	got := testing.AllocsPerRun(1000, fn)
	if got > max {
		t.Errorf("%s: %.1f allocs/op, budget %.1f — the hot path regressed", name, got, max)
	} else {
		t.Logf("%s: %.1f allocs/op (budget %.1f)", name, got, max)
	}
}

func TestAllocGuards(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}

	t.Run("keyenc", func(t *testing.T) {
		// Key build into a reused buffer: the view store's per-apply path.
		tup := value.Tuple{value.Str("acct-0007"), value.Int(42)}
		cols := []int{0}
		var buf []byte
		allocGuard(t, "keyenc.AppendCols", 0, func() {
			buf = keyenc.AppendCols(buf[:0], tup, cols)
		})
	})

	t.Run("aggregate-step", func(t *testing.T) {
		l, _ := aggregate.NewLayout([]aggregate.Spec{{Func: aggregate.Sum}}, []value.Kind{value.KindInt})
		st := l.New()
		v := value.Int(3)
		allocGuard(t, "sum.Step", 0, func() { l.Step(st, value.Tuple{v}) })
	})

	t.Run("view-apply", func(t *testing.T) {
		// Warm view, existing group: the per-append maintenance step.
		w, err := bench.NewTelecom(64, chronicle.RetainNone, false)
		if err != nil {
			t.Fatal(err)
		}
		vw := bench.MustView(w.UsageDef("usage"))
		rows := []chronicle.Row{{SN: 1, Vals: value.Tuple{
			value.Str(bench.Acct(3)), value.Int(7), value.Float(0.1)}}}
		for i := 0; i < 100; i++ {
			vw.ApplyRows(rows)
		}
		allocGuard(t, "view.ApplyRows", 0, func() { vw.ApplyRows(rows) })
	})

	t.Run("feed-fanout", func(t *testing.T) {
		// The changefeed publish path: one committed delta fanned out to 8
		// subscribers. Frames are pooled and rings preallocated, so the
		// budget is ≤1 alloc per delta per subscriber.
		h := feedpkg.NewHub(feedpkg.Config{Ring: 64, TailFrames: 64})
		d := feedpkg.NewDoor()
		const subs = 8
		subscribers := make([]*feedpkg.Subscription, subs)
		for i := range subscribers {
			sub, _ := h.Subscribe("v", 0, false)
			defer sub.Close()
			subscribers[i] = sub
		}
		rows := []chronicle.Row{{SN: 1, Chronon: 1, Vals: value.Tuple{value.Str("a"), value.Int(1)}}}
		frames := make([][]*feedpkg.Frame, subs)
		lsn := uint64(0)
		step := func() {
			lsn++
			rows[0].LSN = lsn
			b := h.Begin(d)
			b.Capture("v", lsn, rows)
			b.Publish()
			for i, sub := range subscribers {
				frames[i] = sub.Drain(frames[i][:0])
				for _, f := range frames[i] {
					f.Release()
				}
			}
		}
		for i := 0; i < 200; i++ {
			step() // warm the frame pool and the tail ring
		}
		allocGuard(t, "feed.Publish fan-out (8 subscribers)", subs, step)
	})

	t.Run("engine-append", func(t *testing.T) {
		// The full kernel path with 64 per-account filtered views (the E13
		// workload): append → WAL-less record → dispatch → delta → maintain.
		db, err := chronicledb.Open(chronicledb.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.Exec(`CREATE CHRONICLE calls (acct STRING, minutes INT)`); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 64; i++ {
			stmt := fmt.Sprintf(`CREATE VIEW v%d AS SELECT acct, SUM(minutes) AS m
				FROM calls WHERE acct = '%s' GROUP BY acct`, i, bench.Acct(i))
			if _, err := db.Exec(stmt); err != nil {
				t.Fatal(err)
			}
		}
		tuple := chronicledb.Tuple{chronicledb.Str(bench.Acct(7)), chronicledb.Int(3)}
		for i := 0; i < 200; i++ {
			if _, err := db.Append("calls", tuple); err != nil {
				t.Fatal(err)
			}
		}
		// Measured steady state is 1 alloc/op (was 11 before the
		// zero-allocation pass); 2 leaves headroom for runtime changes
		// while still catching any real regression.
		allocGuard(t, "db.Append", 2, func() {
			if _, err := db.Append("calls", tuple); err != nil {
				t.Fatal(err)
			}
		})
	})
}

// TestKeyJoinAllocGuard pins what a key join costs a call: one 64-row
// AppendRows into a chronicle⋈relation view grouped by a relation column. The
// probe key is built in the join node's scratch and each relation row is
// decoded straight into the call's output rows, so the call allocates a few
// objects in all, not several per row (503 on this shape when every row
// copied the key columns, built a key string and concatenated a fresh tuple).
func TestKeyJoinAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const accounts, callK, budget = 1000, 64, 70
	db, err := chronicledb.Open(chronicledb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, stmt := range []string{
		`CREATE CHRONICLE calls (acct STRING, minutes INT, cost FLOAT)`,
		`CREATE RELATION customers (acct STRING, state STRING, plan STRING, KEY(acct))`,
		`CREATE VIEW revenue AS SELECT state, SUM(cost) AS c, COUNT(*) AS n
			FROM calls JOIN customers ON calls.acct = customers.acct GROUP BY state`,
	} {
		if _, err := db.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	states := []string{"nj", "ny", "ca", "tx"}
	for a := 0; a < accounts; a++ {
		row := chronicledb.Tuple{chronicledb.Str(bench.Acct(a)), chronicledb.Str(states[a%len(states)]), chronicledb.Str("gold")}
		if err := db.Upsert("customers", row); err != nil {
			t.Fatal(err)
		}
	}
	// Rows stride through the accounts; one in eight has no customer and is
	// dropped by the join.
	calls := make([][]chronicledb.Tuple, 16)
	for i := range calls {
		calls[i] = make([]chronicledb.Tuple, callK)
		for j := range calls[i] {
			a := (i*callK + j) * 37 % accounts
			if j%8 == 7 {
				a += accounts
			}
			calls[i][j] = chronicledb.Tuple{chronicledb.Str(bench.Acct(a)), chronicledb.Int(3), chronicledb.Float(0.25)}
		}
	}
	n := 0
	call := func() {
		if _, _, err := db.AppendRows("calls", calls[n%len(calls)]); err != nil {
			t.Fatal(err)
		}
		n++
	}
	for i := 0; i < 100; i++ {
		call()
	}
	got := testing.AllocsPerRun(200, call)
	t.Logf("64-row call into one key-join view: %.1f allocs/call (budget %d)", got, budget)
	if got > budget {
		t.Errorf("key-join call: %.1f allocs, budget %d — the join allocates per row again", got, budget)
	}
	if v, _ := db.View("revenue"); v.Len() != len(states) {
		t.Fatalf("revenue holds %d groups, want %d", v.Len(), len(states))
	}
}

// TestGroupBySNAllocGuard pins what a grouping on the sequencing attribute
// costs a call: one 64-row call through the shared plan into GROUPBY(SN, acct)
// with SUM, COUNT and MAX, the 64 rows one SN over 16 accounts. The group key
// is built in the node's scratch, the states are stepped in its word slab and
// the output rows cut from its value slab, so warm, a call allocates only
// the index's copy of each group key: 16 (395 when every row formatted its
// key and every group allocated its states and its row).
func TestGroupBySNAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const callK, accounts, budget = 64, 16, 16
	calls, err := chronicle.NewGroup("g").NewChronicle("calls", value.NewSchema(
		value.Column{Name: "acct", Kind: value.KindString},
		value.Column{Name: "minutes", Kind: value.KindInt},
	), chronicle.RetainNone)
	if err != nil {
		t.Fatal(err)
	}
	node, err := algebra.NewGroupBySN(algebra.NewScan(calls), []int{0}, []aggregate.Spec{
		{Func: aggregate.Sum, Col: 1, Name: "m"},
		{Func: aggregate.Count, Col: -1, Name: "n"},
		{Func: aggregate.Max, Col: 1, Name: "hi"},
	})
	if err != nil {
		t.Fatal(err)
	}
	plan := algebra.NewSharedPlan()
	plan.AddView("g", node)
	rows := make([]chronicle.Row, callK)
	for i := range rows {
		rows[i] = chronicle.Row{SN: 1, Vals: value.Tuple{value.Str(bench.Acct(i % accounts)), value.Int(int64(i))}}
	}
	d := algebra.BatchDelta{calls: rows}
	call := func() {
		plan.BeginBatch()
		if out, _ := plan.DeltaFor("g", d); len(out) != accounts {
			t.Fatalf("the call formed %d groups, want %d", len(out), accounts)
		}
	}
	for i := 0; i < 10; i++ {
		call()
	}
	got := testing.AllocsPerRun(200, call)
	t.Logf("64-row call into GROUPBY(SN, acct): %.1f allocs/call (budget %d)", got, budget)
	if got > budget {
		t.Errorf("grouping call: %.1f allocs, budget %d — the grouping allocates per row again", got, budget)
	}
}
