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
	"chronicledb/internal/chronicle"
	feedpkg "chronicledb/internal/feed"
	"chronicledb/internal/keyenc"
	"chronicledb/internal/value"
	"chronicledb/internal/view"
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
		vw, err := view.New(usageDef(callsChronicle(t)))
		if err != nil {
			t.Fatal(err)
		}
		rows := []chronicle.Row{{SN: 1, Vals: value.Tuple{
			value.Str(acct(3)), value.Int(7), value.Float(0.1)}}}
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

	// The full kernel path with 64 per-account filtered views (the E13
	// workload): append → WAL-less record → dispatch → delta → maintain;
	// then the same with one periodic family every row folds into, its one
	// window open the whole run. Measured steady state is 1 alloc/op (was
	// 11 before the zero-allocation pass); 2 leaves headroom for runtime
	// changes while still catching any real regression. The family is
	// pinned at that reading: asking its calendar whether it is active,
	// once a call, allocates nothing.
	for _, tc := range []struct {
		name, label, family string
		budget              float64
	}{
		{"engine-append", "db.Append", "", 2},
		{"engine-append-periodic", "db.Append with a periodic family", `CREATE PERIODIC VIEW fam AS
			SELECT acct, SUM(minutes) AS m FROM calls GROUP BY acct EVERY 1000000000 WIDTH 1000000000`, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var clock int64
			db, err := chronicledb.Open(chronicledb.Options{Clock: func() int64 { clock++; return clock }})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := db.Exec(`CREATE CHRONICLE calls (acct STRING, minutes INT)`); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 64; i++ {
				stmt := fmt.Sprintf(`CREATE VIEW v%d AS SELECT acct, SUM(minutes) AS m
					FROM calls WHERE acct = '%s' GROUP BY acct`, i, acct(i))
				if _, err := db.Exec(stmt); err != nil {
					t.Fatal(err)
				}
			}
			if tc.family != "" {
				if _, err := db.Exec(tc.family); err != nil {
					t.Fatal(err)
				}
			}
			tuple := chronicledb.Tuple{chronicledb.Str(acct(7)), chronicledb.Int(3)}
			for i := 0; i < 200; i++ {
				if _, err := db.Append("calls", tuple); err != nil {
					t.Fatal(err)
				}
			}
			allocGuard(t, tc.label, tc.budget, func() {
				if _, err := db.Append("calls", tuple); err != nil {
					t.Fatal(err)
				}
			})
		})
	}

	t.Run("feed-capture", func(t *testing.T) {
		// One 16-row idempotent call into the served catalog with the feed
		// on and one subscriber that keeps up: capture packs each view's
		// delta for the call into one pooled frame, and the subscriber
		// decodes its view's frame with one string copy.
		db := servedFeedDB(t, true)
		w, err := db.OpenWatch("usage", 0, false)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		drain := func(chronicledb.WatchEvent) bool { return true }
		tuples := servedCall(0)
		ids := make([]string, 1500)
		for i := range ids {
			ids[i] = fmt.Sprintf("r%d", i)
		}
		call := 0
		step := func() {
			if _, _, _, err := db.AppendRowsIdem("calls", tuples, "c", ids[call]); err != nil {
				t.Fatal(err)
			}
			call++
			if more, err := w.Next(drain); !more || err != nil {
				t.Fatalf("the subscriber stopped: %v", err)
			}
		}
		for range 200 {
			step()
		}
		allocGuard(t, "16-row AppendRowsIdem, feed on, 1 subscriber", feedCaptureBudget, step)
	})
}

// feedCaptureBudget is the feed-capture guard's reading: the served call's
// own allocations plus the subscriber's one string copy of its frame.
const feedCaptureBudget = 1

// servedFeedDB opens an in-memory database with the catalog the daemon
// workloads serve: usage, calls summed by account in the B-tree store, and
// revenue, calls joined with customers and summed by state.
func servedFeedDB(t *testing.T, feed bool) *chronicledb.DB {
	t.Helper()
	db, err := chronicledb.Open(chronicledb.Options{Feed: feed})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	for _, stmt := range []string{
		`CREATE CHRONICLE calls (acct STRING, minutes INT, cost FLOAT)`,
		`CREATE RELATION customers (acct STRING, state STRING, plan STRING, KEY(acct))`,
		`CREATE VIEW usage AS SELECT acct, SUM(minutes) AS v_min, SUM(cost) AS v_cost, COUNT(*) AS v_n FROM calls GROUP BY acct WITH STORE BTREE`,
		`CREATE VIEW revenue AS SELECT state, SUM(cost) AS v_cost, COUNT(*) AS v_n FROM calls JOIN customers ON calls.acct = customers.acct GROUP BY state`,
	} {
		if _, err := db.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	for a := range servedAccounts {
		if _, err := db.Exec(fmt.Sprintf(`UPSERT INTO customers VALUES ('a%05d', 'S%02d', 'P%d')`, a, a%50, a%3)); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// servedAccounts is the customers servedFeedDB loads and servedCall spreads
// its rows over.
const servedAccounts = 2000

// servedCall is the c-th 16-row call of the served workload.
func servedCall(c int) []chronicledb.Tuple {
	tuples := make([]chronicledb.Tuple, 16)
	for i := range tuples {
		a := (c*len(tuples) + i) % servedAccounts
		tuples[i] = chronicledb.Tuple{chronicledb.Str(fmt.Sprintf("a%05d", a)), chronicledb.Int(int64(1 + a%60)), chronicledb.Float(float64(a%90) / 10)}
	}
	return tuples
}

// TestFeedTailBytes pins what the changefeed's resume tails cost a database
// nobody watches, as TestRelationBytesGuard pins a relation row: the served
// catalog takes 5 000 idempotent 16-row calls once with Feed on and once
// with it off, and the live heap the first keeps beyond the second is divided
// by the deltas the tails retain (1 024 per view, and the rest of the frame
// that holds the oldest). A frame holds one view's delta for a whole call,
// its rows packed in one byte slab; one frame per delta, each row a tuple of
// values, cost about 450 B a delta.
func TestFeedTailBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are not meaningful under -race")
	}
	const calls, budget = 5000, 72
	run := func(feed bool) (grew, retained uint64) {
		before := liveHeap()
		db := servedFeedDB(t, feed)
		for c := range calls {
			if _, _, _, err := db.AppendRowsIdem("calls", servedCall(c), "c", fmt.Sprintf("r%d", c)); err != nil {
				t.Fatal(err)
			}
		}
		grew = liveHeap() - before
		st := db.FeedStats()
		return grew, st.Published - st.Evicted
	}
	// Each side's smallest of three readings: whatever else the process
	// allocates meanwhile only ever adds to one.
	var off, on, retained uint64
	for i := range 3 {
		grewOff, _ := run(false)
		grewOn, kept := run(true)
		if i == 0 || grewOff < off {
			off = grewOff
		}
		if i == 0 || grewOn < on {
			on = grewOn
		}
		retained = kept
	}
	if retained < 2*feedpkg.DefaultTailFrames {
		t.Fatalf("the tails retain %d deltas, want at least %d", retained, 2*feedpkg.DefaultTailFrames)
	}
	perDelta := (float64(on) - float64(off)) / float64(retained)
	t.Logf("%d retained deltas: %.0f B/delta (budget %d)", retained, perDelta, budget)
	if perDelta > budget {
		t.Errorf("%.0f B per retained delta, budget %d — the feed tail grew", perDelta, budget)
	}
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
		row := chronicledb.Tuple{chronicledb.Str(acct(a)), chronicledb.Str(states[a%len(states)]), chronicledb.Str("gold")}
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
			calls[i][j] = chronicledb.Tuple{chronicledb.Str(acct(a)), chronicledb.Int(3), chronicledb.Float(0.25)}
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
		rows[i] = chronicle.Row{SN: 1, Vals: value.Tuple{value.Str(acct(i % accounts)), value.Int(int64(i))}}
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
