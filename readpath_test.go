// Read-path tests: snapshot consistency under concurrent writers (run
// these under -race), the "latest N groups" query fast paths, the
// caller-owned result contract, and the read-side allocation guards that
// `make bench-reads` (wired into `make check`) enforces.
package chronicledb_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	chronicledb "chronicledb"
	"chronicledb/internal/fault"
	"chronicledb/internal/view"
)

// readStressDB opens an in-memory DB with one chronicle and one B-tree
// summary view (acct → SUM(minutes), COUNT(*)).
func readStressDB(t testing.TB, opts chronicledb.Options) *chronicledb.DB {
	t.Helper()
	db, err := chronicledb.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	for _, stmt := range []string{
		`CREATE CHRONICLE calls (acct STRING, minutes INT)`,
		`CREATE VIEW usage AS SELECT acct, SUM(minutes) AS total, COUNT(*) AS n
		 FROM calls GROUP BY acct WITH STORE BTREE`,
	} {
		if _, err := db.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// checkUsageRow asserts the all-or-nothing invariant on one usage row:
// every appended tuple carries minutes=7, so total must be exactly 7·n in
// any committed state; a torn read (entry cloned mid-update, or a
// half-applied batch visible) breaks the equality. batchK > 1 additionally
// requires n to be a whole number of batches for that account.
func checkUsageRow(t testing.TB, row chronicledb.Row, batchK int64) {
	t.Helper()
	total, n := row[1].AsInt(), row[2].AsInt()
	if total != 7*n {
		t.Errorf("torn read: acct %s has total=%d n=%d (want total=7n)", row[0].AsString(), total, n)
	}
	if batchK > 1 && n%batchK != 0 {
		t.Errorf("partial batch visible: acct %s has n=%d, not a multiple of %d", row[0].AsString(), n, batchK)
	}
}

// TestSnapshotReaderWriterStress drives batch and per-tuple writers against
// concurrent lock-free readers and asserts every read observes an
// all-or-nothing state per committed transaction. Run under -race this is
// the tentpole's correctness gate: lookups, ascending/descending scans, and
// range scans all run off published snapshots while ApplyRows mutates the
// live tree.
func TestSnapshotReaderWriterStress(t *testing.T) {
	const (
		batches = 300
		batchK  = 5
		eachOps = 300
	)
	db := readStressDB(t, chronicledb.Options{})

	var done atomic.Bool
	var writers, wg sync.WaitGroup

	// Batch writer: each Append is one transaction of batchK tuples for
	// the same account, so n ("batch") must only ever grow in steps of K.
	writers.Add(1)
	go func() {
		defer writers.Done()
		tuples := make([]chronicledb.Tuple, batchK)
		for i := range tuples {
			tuples[i] = chronicledb.Tuple{chronicledb.Str("batch"), chronicledb.Int(7)}
		}
		for i := 0; i < batches; i++ {
			if _, err := db.Append("calls", tuples...); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Per-tuple writer: AppendRows gives every tuple its own transaction
	// across a rotating set of accounts; rows must still be internally
	// consistent (total = 7n).
	writers.Add(1)
	go func() {
		defer writers.Done()
		for i := 0; i < eachOps; i++ {
			acct := fmt.Sprintf("each%d", i%8)
			tuples := []chronicledb.Tuple{
				{chronicledb.Str(acct), chronicledb.Int(7)},
				{chronicledb.Str(acct), chronicledb.Int(7)},
			}
			if _, _, err := db.AppendRows("calls", tuples); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	reader := func(seed int) {
		defer wg.Done()
		// At least one full rotation through the four read shapes, even if
		// the writers outrun the scheduler (single-core hosts under -race).
		for i := 0; i < 4 || !done.Load(); i++ {
			switch (i + seed) % 4 {
			case 0:
				if row, ok, err := db.Lookup("usage", chronicledb.Str("batch")); err != nil {
					t.Error(err)
					return
				} else if ok {
					checkUsageRow(t, row, batchK)
				}
			case 1:
				if err := db.ScanView("usage", func(row chronicledb.Row) bool {
					if row[0].AsString() == "batch" {
						checkUsageRow(t, row, batchK)
					} else {
						checkUsageRow(t, row, 1)
					}
					return true
				}); err != nil {
					t.Error(err)
					return
				}
			case 2:
				rows, err := db.LookupRange("usage",
					chronicledb.Tuple{chronicledb.Str("each")},
					chronicledb.Tuple{chronicledb.Str("each~")})
				if err != nil {
					t.Error(err)
					return
				}
				for _, row := range rows {
					checkUsageRow(t, row, 1)
				}
			case 3:
				rows, err := db.LatestViewRows("usage", 3)
				if err != nil {
					t.Error(err)
					return
				}
				for _, row := range rows {
					k := int64(1)
					if row[0].AsString() == "batch" {
						k = batchK
					}
					checkUsageRow(t, row, k)
				}
			}
		}
	}
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go reader(i)
	}

	writers.Wait()
	done.Store(true)
	wg.Wait()

	// Final state: every committed transaction is visible exactly once.
	row, ok, err := db.Lookup("usage", chronicledb.Str("batch"))
	if err != nil || !ok {
		t.Fatalf("final lookup: %v %v", ok, err)
	}
	if got := row[2].AsInt(); got != batches*batchK {
		t.Errorf("final n = %d, want %d", got, batches*batchK)
	}
	checkUsageRow(t, row, batchK)
	if rs := db.ReadStats(); rs.Lookups == 0 || rs.Scans == 0 {
		t.Errorf("ReadStats = %+v, want nonzero lookups and scans", rs)
	}
	if db.SnapshotAge() <= 0 {
		t.Error("SnapshotAge() = 0 with a live B-tree view")
	}
}

// TestSnapshotReadsAcrossPowerCut runs the reader/writer stress on a
// durable database, power-cuts the simulated disk mid-workload, reopens,
// and asserts the recovered view serves consistent snapshots again — the
// all-or-nothing invariant must hold before the cut, after recovery, and
// during the post-recovery workload.
func TestSnapshotReadsAcrossPowerCut(t *testing.T) {
	const batchK = 4
	disk := fault.NewDisk()
	db := readStressDB(t, chronicledb.Options{Dir: "/data", SyncWAL: true, FS: disk})

	tuples := make([]chronicledb.Tuple, batchK)
	for i := range tuples {
		tuples[i] = chronicledb.Tuple{chronicledb.Str("batch"), chronicledb.Int(7)}
	}
	var acked atomic.Int64
	var done atomic.Bool
	var writer, reader sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; i < 150; i++ {
			if _, err := db.Append("calls", tuples...); err != nil {
				t.Error(err)
				return
			}
			acked.Add(1)
		}
	}()
	reader.Add(1)
	go func() {
		defer reader.Done()
		for !done.Load() {
			if row, ok, err := db.Lookup("usage", chronicledb.Str("batch")); err != nil {
				t.Error(err)
				return
			} else if ok {
				checkUsageRow(t, row, batchK)
			}
		}
	}()
	writer.Wait() // writer done; stop the reader
	done.Store(true)
	reader.Wait()

	// Power cut: everything acked was group-committed, so recovery must
	// rebuild exactly acked.Load() batches.
	db.Close()
	disk.PowerCut()
	disk.Heal()
	db2, err := chronicledb.Open(chronicledb.Options{Dir: "/data", SyncWAL: true, FS: disk})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	row, ok, err := db2.Lookup("usage", chronicledb.Str("batch"))
	if err != nil || !ok {
		t.Fatalf("post-recovery lookup: %v %v", ok, err)
	}
	checkUsageRow(t, row, batchK)
	if got, want := row[2].AsInt(), acked.Load()*batchK; got != want {
		t.Errorf("post-recovery n = %d, want %d", got, want)
	}

	// The recovered view publishes snapshots: reads stay consistent under
	// a fresh concurrent writer.
	var writer2, reader2 sync.WaitGroup
	var done2 atomic.Bool
	writer2.Add(1)
	go func() {
		defer writer2.Done()
		for i := 0; i < 50; i++ {
			if _, err := db2.Append("calls", tuples...); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	reader2.Add(1)
	go func() {
		defer reader2.Done()
		for !done2.Load() {
			if row, ok, err := db2.Lookup("usage", chronicledb.Str("batch")); err != nil {
				t.Error(err)
				return
			} else if ok {
				checkUsageRow(t, row, batchK)
			}
		}
	}()
	writer2.Wait()
	done2.Store(true)
	reader2.Wait()
}

// TestOrderedQueryFastPaths checks the streaming SELECT shapes: natural
// ascending order, ORDER BY the leading key column in both directions with
// LIMIT early-stop, and the materialize-and-sort fallback for non-key
// ORDER BY — on both store kinds (the hash store exercises the descending
// fallback).
func TestOrderedQueryFastPaths(t *testing.T) {
	for _, store := range []string{"BTREE", "HASH"} {
		t.Run(store, func(t *testing.T) {
			db, err := chronicledb.Open(chronicledb.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			mustOK := func(stmt string) *chronicledb.Result {
				t.Helper()
				res, err := db.Exec(stmt)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			mustOK(`CREATE CHRONICLE calls (acct STRING, minutes INT)`)
			mustOK(`CREATE VIEW usage AS SELECT acct, SUM(minutes) AS total
			        FROM calls GROUP BY acct WITH STORE ` + store)
			for i, acct := range []string{"carol", "alice", "eve", "bob", "dave"} {
				mustOK(fmt.Sprintf(`APPEND INTO calls VALUES ('%s', %d)`, acct, (i+1)*10))
			}

			wantCol0 := func(res *chronicledb.Result, want ...string) {
				t.Helper()
				if len(res.Rows) != len(want) {
					t.Fatalf("got %d rows, want %d", len(res.Rows), len(want))
				}
				for i, w := range want {
					if got := res.Rows[i][0].AsString(); got != w {
						t.Errorf("row %d = %q, want %q", i, got, w)
					}
				}
			}
			// Natural order (no ORDER BY): ascending group key.
			wantCol0(mustOK(`SELECT * FROM usage`), "alice", "bob", "carol", "dave", "eve")
			// Leading-key ascending with LIMIT: stream + early stop.
			wantCol0(mustOK(`SELECT * FROM usage ORDER BY acct LIMIT 2`), "alice", "bob")
			// Leading-key descending with LIMIT: the "latest N groups" path.
			wantCol0(mustOK(`SELECT * FROM usage ORDER BY acct DESC LIMIT 2`), "eve", "dave")
			// Descending with WHERE: filter composes with the walk.
			wantCol0(mustOK(`SELECT * FROM usage WHERE acct < 'dave' ORDER BY acct DESC LIMIT 2`),
				"carol", "bob")
			// Non-key ORDER BY: materialize-and-sort fallback.
			wantCol0(mustOK(`SELECT * FROM usage ORDER BY total DESC LIMIT 2`), "dave", "bob")
			// Unknown ORDER BY column still errors.
			if _, err := db.Exec(`SELECT * FROM usage ORDER BY ghost`); err == nil {
				t.Error("unknown ORDER BY column accepted")
			}

			// The API-level mirror of the descending fast path.
			rows, err := db.LatestViewRows("usage", 2)
			if err != nil || len(rows) != 2 || rows[0][0].AsString() != "eve" || rows[1][0].AsString() != "dave" {
				t.Errorf("LatestViewRows = %v, %v", rows, err)
			}
		})
	}
}

// TestViewResultsCallerOwned pins the ownership contract: every tuple a
// read returns is the caller's to mutate. Projection views used to hand
// out aliased store tuples from ViewRows/ViewLookup but cloned on
// ViewScanRange — now all paths clone, so scribbling over a result must
// never corrupt the view.
func TestViewResultsCallerOwned(t *testing.T) {
	db, err := chronicledb.Open(chronicledb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, stmt := range []string{
		`CREATE CHRONICLE calls (acct STRING, minutes INT)`,
		`CREATE VIEW callers AS SELECT DISTINCT acct FROM calls WITH STORE BTREE`,
		`APPEND INTO calls VALUES ('alice', 1)`,
		`APPEND INTO calls VALUES ('bob', 2)`,
	} {
		if _, err := db.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	scribble := func(rows []chronicledb.Row) {
		for _, r := range rows {
			r[0] = chronicledb.Str("scribbled")
		}
	}
	rows, err := db.Engine().ViewRows("callers")
	if err != nil || len(rows) != 2 {
		t.Fatalf("ViewRows = %v, %v", rows, err)
	}
	scribble(rows)
	ranged, err := db.LookupRange("callers",
		chronicledb.Tuple{chronicledb.Str("a")}, chronicledb.Tuple{chronicledb.Str("z")})
	if err != nil || len(ranged) != 2 {
		t.Fatalf("LookupRange = %v, %v", ranged, err)
	}
	scribble(ranged)
	if row, ok, err := db.Lookup("callers", chronicledb.Str("alice")); err != nil || !ok {
		t.Fatalf("Lookup = %v %v", ok, err)
	} else {
		row[0] = chronicledb.Str("scribbled")
	}
	// The view is untouched by any of the scribbles.
	fresh, err := db.Engine().ViewRows("callers")
	if err != nil || len(fresh) != 2 {
		t.Fatalf("ViewRows after scribble = %v, %v", fresh, err)
	}
	for i, want := range []string{"alice", "bob"} {
		if got := fresh[i][0].AsString(); got != want {
			t.Errorf("row %d = %q, want %q — a returned tuple aliased the store", i, got, want)
		}
	}
}

// readHotDB builds a warm B-tree view for the read guards and benchmarks.
func readHotDB(tb testing.TB, groups int) *chronicledb.DB {
	tb.Helper()
	db, err := chronicledb.Open(chronicledb.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { db.Close() })
	for _, stmt := range []string{
		`CREATE CHRONICLE calls (acct STRING, minutes INT)`,
		`CREATE VIEW usage AS SELECT acct, SUM(minutes) AS total, COUNT(*) AS n
		 FROM calls GROUP BY acct WITH STORE BTREE`,
	} {
		if _, err := db.Exec(stmt); err != nil {
			tb.Fatal(err)
		}
	}
	tuples := make([]chronicledb.Tuple, 0, groups)
	for i := 0; i < groups; i++ {
		tuples = append(tuples, chronicledb.Tuple{
			chronicledb.Str(fmt.Sprintf("acct%04d", i)), chronicledb.Int(3)})
	}
	if _, _, err := db.AppendRows("calls", tuples); err != nil {
		tb.Fatal(err)
	}
	return db
}

// TestReadAllocGuards pins the steady-state allocation counts of the
// lock-free read path. The budgets are small fixed constants (row
// materialization allocates the result the caller owns); regressions here
// mean the snapshot path started copying or locking per read.
func TestReadAllocGuards(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	db := readHotDB(t, 512)
	key := chronicledb.Str("acct0007")

	// Lookup materializes one caller-owned row: vals copy + aggregate
	// results + the tuple itself. Measured 5; 6 leaves one headroom.
	t.Run("lookup", func(t *testing.T) {
		got := testing.AllocsPerRun(1000, func() {
			if _, ok, err := db.Lookup("usage", key); err != nil || !ok {
				t.Fatal(ok, err)
			}
		})
		if got > 6 {
			t.Errorf("ViewLookup: %.1f allocs/op, budget 6 — the read hot path regressed", got)
		} else {
			t.Logf("ViewLookup: %.1f allocs/op (budget 6)", got)
		}
	})

	// A bounded descending walk ("latest 3 groups") allocates the three
	// result rows plus the slice; measured 11, budget 14.
	t.Run("latest", func(t *testing.T) {
		got := testing.AllocsPerRun(1000, func() {
			rows, err := db.LatestViewRows("usage", 3)
			if err != nil || len(rows) != 3 {
				t.Fatal(len(rows), err)
			}
		})
		if got > 14 {
			t.Errorf("LatestViewRows(3): %.1f allocs/op, budget 14", got)
		} else {
			t.Logf("LatestViewRows(3): %.1f allocs/op (budget 14)", got)
		}
	})
}

// BenchmarkReadHotPath measures the lock-free read path: point lookups and
// bounded scans against a warm 512-group B-tree view, sequential and with
// all cores contending (`make bench-reads`).
func BenchmarkReadHotPath(b *testing.B) {
	db := readHotDB(b, 512)
	key := chronicledb.Str("acct0007")
	b.Run("lookup", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok, err := db.Lookup("usage", key); err != nil || !ok {
				b.Fatal(ok, err)
			}
		}
	})
	b.Run("lookup-parallel", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, ok, err := db.Lookup("usage", key); err != nil || !ok {
					b.Fatal(ok, err)
				}
			}
		})
	})
	b.Run("latest16", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rows, err := db.LatestViewRows("usage", 16)
			if err != nil || len(rows) != 16 {
				b.Fatal(len(rows), err)
			}
		}
	})
	b.Run("range64", func(b *testing.B) {
		lo := chronicledb.Tuple{chronicledb.Str("acct0100")}
		hi := chronicledb.Tuple{chronicledb.Str("acct0164")}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rows, err := db.LookupRange("usage", lo, hi)
			if err != nil || len(rows) != 64 {
				b.Fatal(len(rows), err)
			}
		}
	})
}

// callVisDDL is the catalog of the call-visibility tests: one chronicle
// under a hash view, a B-tree view (which pages when the database has a view
// cache) and a periodic family whose only window, under the tests' frozen
// clock, is the one every row falls into.
var callVisDDL = []string{
	`CREATE CHRONICLE calls (acct STRING, minutes INT)`,
	`CREATE VIEW usage_h AS SELECT acct, SUM(minutes) AS total, COUNT(*) AS n FROM calls GROUP BY acct`,
	`CREATE VIEW usage_b AS SELECT acct, SUM(minutes) AS total, COUNT(*) AS n FROM calls GROUP BY acct WITH STORE BTREE`,
	`CREATE PERIODIC VIEW usage_p AS SELECT acct, SUM(minutes) AS total, COUNT(*) AS n FROM calls GROUP BY acct EVERY 1000000 WIDTH 1000000`,
}

func callVisDB(t *testing.T, opts chronicledb.Options) *chronicledb.DB {
	t.Helper()
	opts.Clock = func() int64 { return 1 }
	db, err := chronicledb.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	for _, stmt := range callVisDDL {
		if _, err := db.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// callVisViews returns the three read handles: the two persistent views and
// the periodic family's single instance (which exists once a row was folded).
func callVisViews(t *testing.T, db *chronicledb.DB) map[string]*view.View {
	t.Helper()
	out := make(map[string]*view.View)
	for _, name := range []string{"usage_h", "usage_b"} {
		v, ok := db.View(name)
		if !ok {
			t.Fatalf("view %s missing", name)
		}
		out[name] = v
	}
	pv, ok := db.Engine().PeriodicView("usage_p")
	if !ok || pv.Live() != 1 {
		t.Fatalf("periodic family usage_p: found %v, want one live instance", ok)
	}
	out["usage_p"] = pv.Instances()[0].View
	return out
}

// TestAppendCallIsTheVisibilityUnit: views publish once per append call, so
// a reader must never see part of one — on any store kind. Every AppendRows
// call carries two rows for each of the 2·band accounts of one band of
// groups. A point lookup must therefore find an even count with total = 7n
// (one entry is never torn or half-folded), and a scan must find all the
// accounts of a band level (no two entries come from different calls):
// readers hammer Lookup and ScanAt on a hash view, a B-tree view, a periodic
// instance and — in the paged variant, where checkpoints make blocks
// evictable under a cache a fraction of the view's size — a view whose
// readers and writers fault blocks in the middle of calls. Run under -race.
func TestAppendCallIsTheVisibilityUnit(t *testing.T) {
	const (
		band   = 8 // groups per call
		bands  = 4
		groups = band * bands
		calls  = 16 * bands
	)
	acct := func(g int, half string) string { return fmt.Sprintf("g%03d%s", g, half) }
	call := func(b int) []chronicledb.Tuple {
		tuples := make([]chronicledb.Tuple, 0, 4*band)
		for rep := 0; rep < 2; rep++ {
			for g := b * band; g < (b+1)*band; g++ {
				tuples = append(tuples,
					chronicledb.Tuple{chronicledb.Str(acct(g, "a")), chronicledb.Int(7)},
					chronicledb.Tuple{chronicledb.Str(acct(g, "b")), chronicledb.Int(7)})
			}
		}
		return tuples
	}
	for _, tc := range []struct {
		name  string
		opts  func(t *testing.T) chronicledb.Options
		paged bool
	}{
		{name: "memory", opts: func(*testing.T) chronicledb.Options { return chronicledb.Options{} }},
		{name: "sharded", opts: func(*testing.T) chronicledb.Options { return chronicledb.Options{Shards: 2} }},
		{name: "paged", paged: true, opts: func(t *testing.T) chronicledb.Options {
			return chronicledb.Options{Dir: t.TempDir(), ViewBlockBytes: 256, ViewCacheBytes: 1 << 10}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := callVisDB(t, tc.opts(t))
			// One call per band up front: the periodic instance exists, and
			// the paged view has blocks to evict once a checkpoint cleans them.
			for b := 0; b < bands; b++ {
				if _, _, err := db.AppendRows("calls", call(b)); err != nil {
					t.Fatal(err)
				}
			}
			views := callVisViews(t, db)
			if tc.paged {
				if !views["usage_b"].Paged() {
					t.Fatal("usage_b is not paged")
				}
				if err := db.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}

			var done atomic.Bool
			var writers, readers sync.WaitGroup
			writers.Add(1)
			go func() {
				defer writers.Done()
				for i := 0; i < calls; i++ {
					if _, _, err := db.AppendRows("calls", call(i%bands)); err != nil {
						t.Error(err)
						return
					}
					if tc.paged && i%8 == 7 {
						if err := db.Checkpoint(); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}()
			checkRow := func(name string, row chronicledb.Row) int64 {
				total, n := row[1].AsInt(), row[2].AsInt()
				if total != 7*n || n%2 != 0 {
					t.Errorf("%s: acct %s has total=%d n=%d: part of a call is visible", name, row[0].AsString(), total, n)
				}
				return n
			}
			for name, v := range views {
				readers.Add(2)
				go func() { // point lookups, walking the groups so paged reads fault
					defer readers.Done()
					for i := 0; i < groups || !done.Load(); i++ {
						if row, ok := v.Lookup(chronicledb.Tuple{chronicledb.Str(acct(i%groups, "a"))}); !ok {
							t.Errorf("%s: %s not found", name, acct(i%groups, "a"))
							return
						} else {
							checkRow(name, row)
						}
					}
				}()
				go func() { // whole-view scans: every band is level
					defer readers.Done()
					var lastLSN uint64
					for i := 0; i < 2 || !done.Load(); i++ {
						byAcct := make(map[string]int64, 2*groups)
						lsn := v.ScanAt(func(row chronicledb.Row) bool {
							byAcct[row[0].AsString()] = checkRow(name, row)
							return true
						})
						if lsn < lastLSN {
							t.Errorf("%s: ScanAt LSN went back from %d to %d", name, lastLSN, lsn)
						}
						lastLSN = lsn
						for g := 0; g < groups; g++ {
							level := byAcct[acct(g-g%band, "a")]
							if a, b := byAcct[acct(g, "a")], byAcct[acct(g, "b")]; a != level || b != level || level == 0 {
								t.Errorf("%s: group %d scanned as a=%d b=%d in a band at %d: part of a call is visible", name, g, a, b, level)
								return
							}
						}
					}
				}()
			}
			writers.Wait()
			done.Store(true)
			readers.Wait()

			want := int64(2 * (calls/bands + 1))
			for name, v := range views {
				row, ok := v.Lookup(chronicledb.Tuple{chronicledb.Str(acct(0, "a"))})
				if !ok || row[2].AsInt() != want {
					t.Errorf("%s: final n = %v (found %v), want %d", name, row, ok, want)
				}
				// One fold and one publication per call, however many rows it
				// carries (a view's creation backfill folds once more, and with
				// nothing retained publishes nothing).
				if st := v.Stats(); st.Publishes != calls+bands || st.Applies < st.Publishes || st.Applies > st.Publishes+1 {
					t.Errorf("%s: %d publications and %d folds for %d calls of %d rows", name, st.Publishes, st.Applies, calls+bands, 4*band)
				}
			}
			if tc.paged {
				if w := db.WALStats(); w.ViewCacheEvictions == 0 || w.ViewCacheMisses == 0 {
					t.Errorf("paged run never evicted or faulted (evictions %d, misses %d): the fault paths were not exercised",
						w.ViewCacheEvictions, w.ViewCacheMisses)
				}
			}
		})
	}
}

// TestFailedCallPublishesPrefix is the bug guard for the two ways an append
// call ends early. AppendRows keeps the rows before a failing tuple, so they
// must be published like any other call's; AppendRowsIdem rejects the whole
// request before anything folds. Either way no view may be left with folded
// rows its readers cannot see — the live cursor equals the published one —
// and the next call publishes normally. Both store kinds and a periodic
// instance, on one shard and on two.
func TestFailedCallPublishesPrefix(t *testing.T) {
	good := func(n int) []chronicledb.Tuple {
		tuples := make([]chronicledb.Tuple, n)
		for i := range tuples {
			tuples[i] = chronicledb.Tuple{chronicledb.Str("a"), chronicledb.Int(7)}
		}
		return tuples
	}
	bad := chronicledb.Tuple{chronicledb.Str("a"), chronicledb.Str("seven")}
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db := callVisDB(t, chronicledb.Options{Shards: shards})
			if _, _, err := db.AppendRows("calls", good(2)); err != nil {
				t.Fatal(err)
			}
			views := callVisViews(t, db)
			// state asserts every view shows n rows, by Lookup and by Scan,
			// holds nothing unpublished, and has published pubs more times
			// than before.
			before := make(map[string]int64)
			state := func(step string, n, pubs int64) {
				t.Helper()
				for name, v := range views {
					row, ok := v.Lookup(chronicledb.Tuple{chronicledb.Str("a")})
					if !ok || row[2].AsInt() != n || row[1].AsInt() != 7*n {
						t.Errorf("%s: %s: Lookup = %v (found %v), want n=%d", step, name, row, ok, n)
					}
					var scanned int64
					lsn := v.ScanAt(func(row chronicledb.Row) bool { scanned += row[2].AsInt(); return true })
					if scanned != n {
						t.Errorf("%s: %s: Scan counts %d rows, want %d", step, name, scanned, n)
					}
					if live := v.AppliedLSN(); live != lsn {
						t.Errorf("%s: %s: folded up to LSN %d but published %d: unpublished state left behind", step, name, live, lsn)
					}
					st := v.Stats()
					if got := st.Publishes - before[name]; got != pubs {
						t.Errorf("%s: %s: %d publications, want %d", step, name, got, pubs)
					}
					before[name] = st.Publishes
				}
			}
			for name, v := range views {
				before[name] = v.Stats().Publishes
			}
			state("seed", 2, 0)

			// Tuple 3 of 5 fails: the three before it stay, and are visible.
			if _, _, err := db.AppendRows("calls", append(append(good(3), bad), good(1)...)); err == nil {
				t.Fatal("AppendRows accepted a tuple of the wrong type")
			}
			state("failed AppendRows", 5, 1)

			// The atomic run is rejected whole, before any fold.
			if _, _, _, err := db.AppendRowsIdem("calls", append(good(3), bad), "client", "r1"); err == nil {
				t.Fatal("AppendRowsIdem accepted a tuple of the wrong type")
			}
			state("failed AppendRowsIdem", 5, 0)

			if _, _, _, err := db.AppendRowsIdem("calls", good(4), "client", "r2"); err != nil {
				t.Fatal(err)
			}
			state("next AppendRowsIdem", 9, 1)
			if _, _, err := db.AppendRows("calls", good(3)); err != nil {
				t.Fatal(err)
			}
			state("next AppendRows", 12, 1)
		})
	}
}
