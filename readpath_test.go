// Read-path tests: snapshot consistency under concurrent writers (run
// these under -race), the "latest N groups" query fast paths, the
// caller-owned result contract, and the read-side allocation guards that
// `make bench-reads` (wired into `make check`) enforces.
package chronicledb_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	chronicledb "chronicledb"
	"chronicledb/internal/fault"
	"chronicledb/internal/keyenc"
	"chronicledb/internal/sqlparse"
	"chronicledb/internal/value"
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
// out aliased store tuples from lookups and full scans but cloned on range
// scans — now every read clones, so scribbling over a result must never
// corrupt the view.
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
	viewRows := func() (rows []chronicledb.Row, err error) {
		err = db.ScanView("callers", func(r chronicledb.Row) bool { rows = append(rows, r); return true })
		return rows, err
	}
	rows, err := viewRows()
	if err != nil || len(rows) != 2 {
		t.Fatalf("ScanView = %v, %v", rows, err)
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
	fresh, err := viewRows()
	if err != nil || len(fresh) != 2 {
		t.Fatalf("ScanView after scribble = %v, %v", fresh, err)
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
// all cores contending, and the summary query through SQL and latest-20 at
// two view sizes, resident and paged (`make bench-reads`).
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
	// The summary query through SQL, by group key, over random keys: resident
	// (in memory) and paged (half the view cacheable, so about half the probes
	// fault a block and evict one). The cost must not follow the view's size.
	for _, groups := range []int{1000, 20000} {
		for _, shape := range []string{"resident", "paged"} {
			b.Run(fmt.Sprintf("select-point/%d/%s", groups, shape), func(b *testing.B) {
				var db *chronicledb.DB
				if shape == "paged" {
					db = pagedUsageDB(b, groups)
				} else {
					db = readStressDB(b, chronicledb.Options{})
					if _, _, err := db.AppendRows("calls", usageCallRows(groups)); err != nil {
						b.Fatal(err)
					}
				}
				rng := rand.New(rand.NewSource(1))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if res, err := db.Exec(usageSelect(rng.Intn(groups))); err != nil || len(res.Rows) != 1 {
						b.Fatal(res, err)
					}
				}
			})
		}
	}
	// Latest-20 on the paged view, after a probe elsewhere each time.
	b.Run("latest20/paged", func(b *testing.B) {
		const groups = 20000
		db := pagedUsageDB(b, groups)
		rng := rand.New(rand.NewSource(1))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := db.Lookup("usage", chronicledb.Str(usageAcct(rng.Intn(groups)))); err != nil {
				b.Fatal(err)
			}
			if rows, err := db.LatestViewRows("usage", 20); err != nil || len(rows) != 20 {
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
// call carries 64 rows: two for each of the 2·band accounts of one band of
// groups, the calls cycling over the bands. The rows of one read must
// therefore all come from one publication, and the LSN the read returns says
// which: publication k (k calls done) carries LSN lsn0 + 64k and shows band b
// at the count of the calls i < k with i mod bands = b. Every row of every
// read is held to that — a point lookup to an even count with total = 7n —
// so a read that mixed two publications, or saw a call half-folded, or
// returned an LSN that is not the one it read at, fails. Readers hammer
// Lookup, whole-view scans, range reads of one band and limit walks from
// either end on a hash view, a B-tree view, a periodic instance and — in the
// paged variant, where checkpoints make blocks evictable under a cache a
// fraction of the view's size — a view where a band spans several cold
// blocks, so range and limit reads plan, fault and walk across block
// boundaries in the middle of calls that touch those blocks. Run under -race.
func TestAppendCallIsTheVisibilityUnit(t *testing.T) {
	const (
		band    = 16 // groups per call
		bands   = 4
		groups  = band * bands
		perCall = 4 * band // rows, and LSNs, per call
		calls   = 16 * bands
	)
	acct := func(g int, half string) string { return fmt.Sprintf("g%03d%s", g, half) }
	call := func(b int) []chronicledb.Tuple {
		tuples := make([]chronicledb.Tuple, 0, perCall)
		for rep := 0; rep < 2; rep++ {
			for g := b * band; g < (b+1)*band; g++ {
				tuples = append(tuples,
					chronicledb.Tuple{chronicledb.Str(acct(g, "a")), chronicledb.Int(7)},
					chronicledb.Tuple{chronicledb.Str(acct(g, "b")), chronicledb.Int(7)})
			}
		}
		return tuples
	}
	bandKey := func(b int) []byte { return keyenc.AppendValue(nil, chronicledb.Str(fmt.Sprintf("g%03d", b*band))) }
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
				if total, _, _ := views["usage_b"].BlockStats(); total < 2*bands {
					t.Fatalf("usage_b has %d blocks: a band of %d keys does not span two", total, 2*band)
				}
			}
			lsn0 := views["usage_b"].Scan(view.Window{}, func(chronicledb.Row) bool { return false })

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
			// wantAt is the count publication lsn shows for the groups of band b.
			wantAt := func(lsn uint64, b int) int64 {
				k := int(lsn-lsn0) / perCall
				return 2 * int64(1+(k+bands-1-b)/bands)
			}
			// read runs one Scan of v and holds every row to the publication
			// the Scan says it read; it returns the rows seen.
			read := func(name string, v *view.View, w view.Window) (n int) {
				var rows []chronicledb.Row
				lsn := v.Scan(w, func(row chronicledb.Row) bool { rows = append(rows, row); return true })
				if lsn < lsn0 || (lsn-lsn0)%perCall != 0 {
					t.Errorf("%s: a read returned LSN %d, which no publication carries (calls start at %d and take %d)", name, lsn, lsn0, perCall)
					return len(rows)
				}
				for _, row := range rows {
					var g int
					fmt.Sscanf(row[0].AsString(), "g%03d", &g)
					if total, n, want := row[1].AsInt(), row[2].AsInt(), wantAt(lsn, g/band); n != want || total != 7*n {
						t.Errorf("%s: a read at LSN %d found %s with total=%d n=%d; that publication has n=%d: the read saw another publication, or part of a call",
							name, lsn, row[0].AsString(), total, n, want)
						return len(rows)
					}
				}
				return len(rows)
			}
			for name, v := range views {
				readers.Add(3)
				go func() { // point lookups, walking the groups so paged reads fault
					defer readers.Done()
					for i := 0; i < groups || !done.Load(); i++ {
						row, ok := v.Lookup(chronicledb.Tuple{chronicledb.Str(acct(i%groups, "a"))})
						if !ok {
							t.Errorf("%s: %s not found", name, acct(i%groups, "a"))
							return
						}
						if total, n := row[1].AsInt(), row[2].AsInt(); total != 7*n || n%2 != 0 {
							t.Errorf("%s: acct %s has total=%d n=%d: part of a call is visible", name, row[0].AsString(), total, n)
						}
					}
				}()
				go func() { // whole-view scans
					defer readers.Done()
					for i := 0; i < 2 || !done.Load(); i++ {
						if n := read(name, v, view.Window{}); n != 2*groups {
							t.Errorf("%s: a scan found %d rows of %d", name, n, 2*groups)
							return
						}
					}
				}()
				go func() { // one band by key range, and limit walks from both ends
					defer readers.Done()
					for i := 0; i < 3*bands || !done.Load(); i++ {
						b := i % bands
						w := view.Window{Lo: bandKey(b), Desc: i%2 == 1}
						if b+1 < bands {
							w.Hi = bandKey(b + 1)
						}
						want := 2 * band
						switch i % 3 {
						case 1: // the band's rows again, found by count from the view's end
							w = view.Window{Desc: true, Limit: 2 * band}
						case 2: // a walk that has to look past its first plan
							w = view.Window{Limit: band, Keep: func(r chronicledb.Row) bool { return strings.HasSuffix(r[0].AsString(), "b") }}
							want = band
						}
						if n := read(name, v, w); n != want {
							t.Errorf("%s: read %d of band %d found %d rows, want %d", name, i%3, b, n, want)
							return
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
					t.Errorf("%s: %d publications and %d folds for %d calls of %d rows", name, st.Publishes, st.Applies, calls+bands, perCall)
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
					lsn := v.Scan(view.Window{}, func(row chronicledb.Row) bool { scanned += row[2].AsInt(); return true })
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

// diffKeys are the values the differential test draws group keys from, per
// column kind: ordinary ones and the ones the key encoding is careful about —
// integers past 2⁵³ in either direction, which a float64 cannot tell apart
// (2⁵³ and 2⁵³+1 are both stored, and FLOAT keys hold 2⁵³ too), NULL, the
// empty string, a NUL byte inside a string, and numbers that are equal across
// kinds. diffLiterals adds, for WHERE clauses only, more such neighbours.
var diffKeys = map[string][]chronicledb.Value{
	"STRING": {
		chronicledb.Str(""), chronicledb.Str("a"), chronicledb.Str("a\x00"), chronicledb.Str("a\x00b"),
		chronicledb.Str("ab"), chronicledb.Str("b"), chronicledb.Str("it's"), chronicledb.Str("z\xff"), chronicledb.Null(),
	},
	"INT": {
		chronicledb.Int(-7), chronicledb.Int(0), chronicledb.Int(1), chronicledb.Int(2), chronicledb.Int(3), chronicledb.Int(40),
		chronicledb.Int(1 << 53), chronicledb.Int(1<<53 + 1), chronicledb.Int(-(1 << 53) - 1), chronicledb.Int(1<<63 - 1), chronicledb.Null(),
	},
	"FLOAT": {
		chronicledb.Float(-7.5), chronicledb.Float(0), chronicledb.Float(1), chronicledb.Float(2.5), chronicledb.Float(3),
		chronicledb.Float(40), chronicledb.Float(1 << 53), chronicledb.Null(),
	},
}

var diffLiterals = map[string][]chronicledb.Value{
	"STRING": diffKeys["STRING"],
	"INT": append([]chronicledb.Value{
		chronicledb.Int(1 << 53), chronicledb.Int(1<<53 + 2), chronicledb.Int(-(1 << 53)), chronicledb.Int(-(1 << 53) - 2),
	}, diffKeys["INT"]...),
	"FLOAT": diffKeys["FLOAT"],
}

// sqlLiteral spells a value the way the parser reads it back.
func sqlLiteral(v chronicledb.Value) string {
	switch v.Kind() {
	case value.KindString:
		return "'" + strings.ReplaceAll(v.AsString(), "'", "''") + "'"
	case value.KindFloat:
		return strconv.FormatFloat(v.AsFloat(), 'f', 1, 64)
	default:
		return v.String()
	}
}

// TestPushdownEqualsFilterOverFullScan is the differential test of the read
// path's planner step: whatever window a WHERE clause is lowered to, the
// answer must be the one a filter over the whole view gives, row for row and
// in order. The reference does no planning at all — it walks the whole view
// in ORDER BY's direction, keeps the rows the lowered predicates accept,
// sorts them stably by the ORDER BY column and cuts at LIMIT — and the
// queries are generated: seeded random schemas of one to three group-key
// columns of STRING, INT and FLOAT, keys from diffKeys, literals from diffLiterals,
// conjunctions of all six operators over key and non-key columns with
// OR-groups and column-to-column atoms, ORDER BY any column either way, and
// LIMIT; each against a HASH view, a BTREE view and a BTREE view paged under
// a cache of two blocks, so the paged reads plan, fault and evict all the
// way through.
func TestPushdownEqualsFilterOverFullScan(t *testing.T) {
	kinds := []string{"STRING", "INT", "FLOAT"}
	ops := []string{"=", "!=", "<", "<=", ">", ">="}
	var evictions, misses int64
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nkeys := 1 + int(seed)%3
		var cols, defs []string
		var keys, literals [][]chronicledb.Value
		for i := 0; i < nkeys; i++ {
			kind := kinds[rng.Intn(len(kinds))]
			cols = append(cols, fmt.Sprintf("k%d", i))
			defs = append(defs, fmt.Sprintf("k%d %s", i, kind))
			keys, literals = append(keys, diffKeys[kind]), append(literals, diffLiterals[kind])
		}
		name := fmt.Sprintf("seed=%d/%s", seed, strings.Join(defs, ","))
		t.Run(name, func(t *testing.T) {
			ddl := []string{fmt.Sprintf(`CREATE CHRONICLE c (%s, m INT)`, strings.Join(defs, ", "))}
			for _, v := range []string{"vh", "vb"} {
				stmt := fmt.Sprintf(`CREATE VIEW %s AS SELECT %s, SUM(m) AS total, COUNT(*) AS n FROM c GROUP BY %s`,
					v, strings.Join(cols, ", "), strings.Join(cols, ", "))
				if v == "vb" {
					stmt += " WITH STORE BTREE"
				}
				ddl = append(ddl, stmt)
			}
			mem, err := chronicledb.Open(chronicledb.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer mem.Close()
			paged, err := chronicledb.Open(chronicledb.Options{Dir: t.TempDir(), ViewBlockBytes: 256, ViewCacheBytes: 512})
			if err != nil {
				t.Fatal(err)
			}
			defer paged.Close()
			var rows []chronicledb.Tuple
			for i := 0; i < 400; i++ {
				row := make(chronicledb.Tuple, 0, nkeys+1)
				for _, pool := range keys {
					row = append(row, pool[rng.Intn(len(pool))])
				}
				rows = append(rows, append(row, chronicledb.Int(int64(rng.Intn(5)))))
			}
			for _, db := range []*chronicledb.DB{mem, paged} {
				for _, stmt := range ddl {
					if _, err := db.Exec(stmt); err != nil {
						t.Fatal(err)
					}
				}
				if _, _, err := db.AppendRows("c", rows); err != nil {
					t.Fatal(err)
				}
			}
			if err := paged.Checkpoint(); err != nil { // clean blocks are evictable
				t.Fatal(err)
			}
			if v, _ := paged.View("vb"); !v.Paged() {
				t.Fatal("vb is not paged")
			}

			allCols := append(append([]string(nil), cols...), "total", "n")
			literal := func(col int) string {
				pool := diffLiterals[kinds[rng.Intn(len(kinds))]] // any kind against any column
				if col < nkeys && rng.Intn(4) > 0 {
					pool = literals[col]
				} else if col >= nkeys && rng.Intn(2) == 0 {
					return strconv.Itoa(rng.Intn(12))
				}
				return sqlLiteral(pool[rng.Intn(len(pool))])
			}
			atom := func() string {
				col := rng.Intn(len(allCols))
				if rng.Intn(3) > 0 {
					col = rng.Intn(nkeys) // mostly the key: that is what gets pushed
				}
				right := literal(col)
				if rng.Intn(6) == 0 {
					right = allCols[rng.Intn(len(allCols))]
				}
				op := ops[rng.Intn(len(ops))]
				if rng.Intn(3) == 0 {
					op = "="
				}
				return fmt.Sprintf("%s %s %s", allCols[col], op, right)
			}
			query := func(from string) string {
				q := "SELECT * FROM " + from
				var groups []string
				for g := rng.Intn(4); g > 0; g-- {
					group := atom()
					if rng.Intn(5) == 0 {
						group = "(" + group + " OR " + atom() + ")"
					}
					groups = append(groups, group)
				}
				if len(groups) > 0 {
					q += " WHERE " + strings.Join(groups, " AND ")
				}
				if rng.Intn(3) > 0 {
					q += " ORDER BY " + allCols[rng.Intn(len(allCols))]
					if rng.Intn(2) == 0 {
						q += " DESC"
					}
				}
				if rng.Intn(2) == 0 {
					q += fmt.Sprintf(" LIMIT %d", []int{1, 3, 10, 50}[rng.Intn(4)])
				}
				return q
			}
			// The edge cases, stated: each is also reachable by the generator.
			fixed := []string{
				"SELECT * FROM %s WHERE k0 = 9007199254740993",
				"SELECT * FROM %s WHERE k0 < 9007199254740993 ORDER BY k0 DESC LIMIT 3",
				"SELECT * FROM %s WHERE k0 > 9007199254740992 ORDER BY k0",
				"SELECT * FROM %s WHERE k0 = NULL",
				"SELECT * FROM %s WHERE k0 > NULL AND k0 <= 'a\x00' ORDER BY k0 LIMIT 10",
				"SELECT * FROM %s WHERE k0 >= 'a\x00' AND k0 < 'ab'",
				"SELECT * FROM %s WHERE k0 = 3 ORDER BY k0 DESC",
				"SELECT * FROM %s WHERE k0 >= 1 AND k0 <= 3.0 AND n > 0 ORDER BY n DESC LIMIT 10",
				"SELECT * FROM %s WHERE k0 != 2 ORDER BY k0 LIMIT 10",
			}
			pushed := 0
			for i := 0; i < 150+len(fixed); i++ {
				shape := query("%s")
				if i < len(fixed) {
					shape = fixed[i]
				}
				for _, on := range []struct {
					db   *chronicledb.DB
					view string
				}{{mem, "vh"}, {mem, "vb"}, {paged, "vb"}} {
					sql := fmt.Sprintf(shape, on.view)
					got, err := on.db.Exec(sql)
					if err != nil {
						t.Fatalf("%s: %v", sql, err)
					}
					want := filterOverFullScan(t, on.db, sql)
					if fmt.Sprintf("%#v", got.Rows) != fmt.Sprintf("%#v", want) {
						plan, _ := on.db.Exec("EXPLAIN " + sql)
						t.Fatalf("%q\n pushed down: %v\n filter over full scan: %v\n plan: %v", sql, got.Rows, want, plan.Rows)
					}
				}
				if plan, err := mem.Exec("EXPLAIN " + fmt.Sprintf(shape, "vb")); err != nil {
					t.Fatal(err)
				} else if !strings.HasPrefix(plan.Rows[0][1].AsString(), "full") {
					pushed++
				}
			}
			if pushed < 40 {
				t.Errorf("only %d of the queries were pushed down: the generator does not test the planner", pushed)
			}
			w := paged.WALStats()
			evictions, misses = evictions+w.ViewCacheEvictions, misses+w.ViewCacheMisses
		})
	}
	if evictions < 1000 || misses < 1000 {
		t.Errorf("the paged views evicted %d blocks and faulted %d: the reads did not page", evictions, misses)
	}
}

// filterOverFullScan answers a SELECT over a view the way a system with no
// index would: walk every row, in ORDER BY's direction; keep what the WHERE
// clause accepts; sort stably by the ORDER BY column; cut at LIMIT.
func filterOverFullScan(t *testing.T, db *chronicledb.DB, sql string) []chronicledb.Row {
	t.Helper()
	stmts, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	q := stmts[0].(*sqlparse.Query)
	v, _ := db.View(q.From)
	names := v.Schema().Names()
	preds, err := sqlparse.LowerWhere(names, q.Where)
	if err != nil {
		t.Fatal(err)
	}
	scan := db.ScanView
	if q.OrderBy != nil && q.OrderDesc {
		scan = db.ScanViewDesc
	}
	var out []chronicledb.Row
	if err := scan(q.From, func(r chronicledb.Row) bool {
		for _, p := range preds {
			if !p.Eval(r) {
				return true
			}
		}
		out = append(out, r)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if q.OrderBy != nil {
		col := slices.Index(names, q.OrderBy.Name)
		sort.SliceStable(out, func(i, j int) bool {
			c := value.Compare(out[i][col], out[j][col])
			return c < 0 && !q.OrderDesc || c > 0 && q.OrderDesc
		})
	}
	if q.Limit > 0 && len(out) > q.Limit {
		out = out[:q.Limit]
	}
	return out
}

// pagedUsageDB builds the suite's read-http shape at a chosen size: a durable
// database whose usage view (acct → SUM(minutes), COUNT(*), BTREE) holds
// groups accounts in checkpointed blocks, reopened under a block cache of
// half the view's bytes, so every block starts cold and about half can be
// resident at once.
func pagedUsageDB(tb testing.TB, groups int) *chronicledb.DB {
	tb.Helper()
	dir := tb.TempDir()
	db := readStressDB(tb, chronicledb.Options{Dir: dir})
	if _, _, err := db.AppendRows("calls", usageCallRows(groups)); err != nil {
		tb.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		tb.Fatal(err)
	}
	viewBytes := db.WALStats().ViewCacheBytes
	if err := db.Close(); err != nil {
		tb.Fatal(err)
	}
	db, err := chronicledb.Open(chronicledb.Options{Dir: dir, ViewCacheBytes: viewBytes / 2})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { db.Close() })
	if v, _ := db.View("usage"); !v.Paged() {
		tb.Fatal("usage is not paged")
	}
	return db
}

func usageAcct(i int) string { return fmt.Sprintf("acct%05d", i) }

// usageCallRows is one call row, three minutes, for each of groups accounts.
func usageCallRows(groups int) []chronicledb.Tuple {
	tuples := make([]chronicledb.Tuple, 0, groups)
	for i := 0; i < groups; i++ {
		tuples = append(tuples, chronicledb.Tuple{chronicledb.Str(usageAcct(i)), chronicledb.Int(3)})
	}
	return tuples
}

func usageSelect(i int) string { return "SELECT * FROM usage WHERE acct = '" + usageAcct(i) + "'" }

// TestPointSelectTouchesOneBlock is the structural guard of the WHERE
// pushdown: a summary query by group key costs an index look-up, whatever
// the size of the view. On a paged view of 1 000 and of 20 000 groups, half
// of it cacheable, SELECT … WHERE acct = 'k' is one point probe (one engine
// lookup, no scan), faults at most the one block that holds k, and allocates
// within one budget at both sizes; the latest-20 read faults at most the two
// blocks twenty rows can straddle.
func TestPointSelectTouchesOneBlock(t *testing.T) {
	const allocBudget = 60
	for _, groups := range []int{1000, 20000} {
		t.Run(fmt.Sprint(groups), func(t *testing.T) {
			db := pagedUsageDB(t, groups)
			rng := rand.New(rand.NewSource(int64(groups)))
			for i := 0; i < 200; i++ {
				k := rng.Intn(groups)
				w0, r0 := db.WALStats(), db.ReadStats()
				res, err := db.Exec(usageSelect(k))
				if err != nil || len(res.Rows) != 1 || res.Rows[0][0].AsString() != usageAcct(k) || res.Rows[0][1].AsInt() != 3 {
					t.Fatalf("%s = %v, %v", usageSelect(k), res, err)
				}
				w1, r1 := db.WALStats(), db.ReadStats()
				if faults := w1.ViewCacheMisses - w0.ViewCacheMisses; faults > 1 {
					t.Fatalf("a point SELECT faulted %d blocks of %d groups", faults, groups)
				}
				if r1.Lookups-r0.Lookups != 1 || r1.Scans != r0.Scans {
					t.Fatalf("a point SELECT made %d lookups and %d scans, want one probe", r1.Lookups-r0.Lookups, r1.Scans-r0.Scans)
				}
			}
			if db.WALStats().ViewCacheEvictions == 0 {
				t.Error("200 point SELECTs over a view twice the cache evicted nothing: the view does not page")
			}
			for i := 0; i < 20; i++ {
				// Something else first, so the view's tail is not simply warm.
				if _, err := db.Exec(usageSelect(rng.Intn(groups / 2))); err != nil {
					t.Fatal(err)
				}
				w0 := db.WALStats()
				rows, err := db.LatestViewRows("usage", 20)
				if err != nil || len(rows) != 20 || rows[0][0].AsString() != usageAcct(groups-1) || rows[19][0].AsString() != usageAcct(groups-20) {
					t.Fatalf("LatestViewRows(20) = %v, %v", rows, err)
				}
				if faults := db.WALStats().ViewCacheMisses - w0.ViewCacheMisses; faults > 2 {
					t.Fatalf("LatestViewRows(20) faulted %d blocks of %d groups", faults, groups)
				}
			}
			if raceEnabled {
				return // allocation counts are not meaningful under -race
			}
			sql := usageSelect(groups / 3)
			if got := testing.AllocsPerRun(200, func() {
				if res, err := db.Exec(sql); err != nil || len(res.Rows) != 1 {
					t.Fatal(res, err)
				}
			}); got > allocBudget {
				t.Errorf("a point SELECT over %d groups: %.1f allocs/op, budget %d at every size", groups, got, allocBudget)
			} else {
				t.Logf("a point SELECT over %d groups: %.1f allocs/op (budget %d)", groups, got, allocBudget)
			}
		})
	}
}

// TestExplainSelect pins what EXPLAIN SELECT prints for each access path: a
// point probe, a key range (with what stays residual, the direction and the
// limit), a walk of the whole view with a sort behind it, and a paged view's
// planned blocks. A view created WITH STORE BTREE and one without plan alike:
// every view walks its directory's key order.
func TestExplainSelect(t *testing.T) {
	mem, err := chronicledb.Open(chronicledb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	for _, stmt := range []string{
		`CREATE CHRONICLE sales (region STRING, store INT, amount FLOAT)`,
		`CREATE VIEW by_store AS SELECT region, store, SUM(amount) AS total FROM sales GROUP BY region, store WITH STORE BTREE`,
		`CREATE VIEW by_store_h AS SELECT region, store, SUM(amount) AS total FROM sales GROUP BY region, store`,
	} {
		if _, err := mem.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	paged := pagedUsageDB(t, 1000)
	for _, tc := range []struct {
		db        *chronicledb.DB
		sql, want string
	}{
		{mem, `SELECT * FROM by_store WHERE region = 'east' AND store = 7`,
			`access=point('east', 7); residual=region = "east" AND store = 7; store=resident`},
		{mem, `SELECT * FROM by_store WHERE region = 'east' AND store > 3 AND store <= 12 AND total != 0 ORDER BY store DESC LIMIT 5`,
			`access=range[after('east', 3), after('east', 12)) desc limit 5; residual=region = "east" AND store > 3 AND store <= 12 AND total != 0; store=resident`},
		{mem, `SELECT * FROM by_store WHERE region >= 'e' AND region < 'f'`,
			`access=range[('e'), ('f')) asc; residual=region >= "e" AND region < "f"; store=resident`},
		{mem, `SELECT * FROM by_store WHERE (region = 'east' OR region = 'west') AND store != 2 ORDER BY total DESC LIMIT 2`,
			`access=full desc; residual=(region = "east" OR region = "west") AND store != 2; sort=by total desc limit 2; store=resident`},
		{mem, `SELECT * FROM by_store ORDER BY region LIMIT 3`,
			`access=full asc limit 3; residual=none; store=resident`},
		{mem, `SELECT * FROM by_store_h WHERE region = 'east' AND store = 7`,
			`access=point('east', 7); residual=region = "east" AND store = 7; store=resident`},
		{mem, `SELECT * FROM by_store_h WHERE region = 'east'`,
			`access=range[('east'), after('east')) asc; residual=region = "east"; store=resident`},
		{mem, `SELECT * FROM by_store_h ORDER BY region DESC LIMIT 3`,
			`access=full desc limit 3; residual=none; store=resident`},
		{paged, usageSelect(7),
			`access=point('acct00007'); residual=acct = "acct00007"; store=paged; blocks=1 / 5`},
		{paged, `SELECT * FROM usage WHERE acct >= 'acct00300' AND acct < 'acct00500'`,
			`access=range[('acct00300'), ('acct00500')) asc; residual=acct >= "acct00300" AND acct < "acct00500"; store=paged; blocks=2 / 5`},
		{paged, `SELECT * FROM usage ORDER BY acct DESC LIMIT 20`,
			`access=full desc limit 20; residual=none; store=paged; blocks=1 / 5`},
		{paged, `SELECT * FROM usage`,
			`access=full asc; residual=none; store=paged; blocks=5 / 5`},
	} {
		res, err := tc.db.Exec("EXPLAIN " + tc.sql)
		if err != nil {
			t.Errorf("EXPLAIN %s: %v", tc.sql, err)
			continue
		}
		var got []string
		for _, r := range res.Rows {
			got = append(got, r[0].AsString()+"="+r[1].AsString())
		}
		if strings.Join(got, "; ") != tc.want {
			t.Errorf("EXPLAIN %s\n got %s\nwant %s", tc.sql, strings.Join(got, "; "), tc.want)
		}
	}
	if _, err := mem.Exec(`EXPLAIN SELECT * FROM sales`); err == nil {
		t.Error("EXPLAIN SELECT over a chronicle was accepted")
	}
	if _, err := mem.Exec(`EXPLAIN SELECT * FROM by_store WHERE ghost = 1`); err == nil {
		t.Error("EXPLAIN SELECT with an unknown column was accepted")
	}
}
