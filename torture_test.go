package chronicledb

import (
	"fmt"
	"sort"
	"sync/atomic"
	"testing"

	"chronicledb/internal/fault"
)

// Crash-torture harness: run a scripted workload (appends across two
// groups, relation upserts, checkpoints) on a simulated disk, crash the
// disk at every possible mutating-operation index, reopen — possibly with
// a different shard count, exercising reshard-on-reopen — and assert the
// durability contract:
//
//   - reopen after a power cut never fails (torn tails are tolerated),
//   - every acked operation survives,
//   - no operation is applied twice (LSN-idempotent replay),
//   - materialized views exactly equal a pure-Go reference evaluator.
//
// The one permitted ambiguity: the operation in flight at the instant of
// the crash may or may not have committed, so the recovered state must
// equal the reference after k or k+1 operations, where k is the acked
// count.

// tortureOp is one scripted workload step.
type tortureOp struct {
	kind  string // "append", "upsert", "checkpoint"
	chron string // append target
	acct  string
	amt   int64  // append payload
	state string // upsert payload
}

var tortureOps = []tortureOp{
	{kind: "upsert", acct: "a", state: "ny"},
	{kind: "upsert", acct: "b", state: "nj"},
	{kind: "append", chron: "ledger", acct: "a", amt: 5},
	{kind: "append", chron: "events", acct: "a", amt: 1},
	{kind: "append", chron: "ledger", acct: "b", amt: 7},
	{kind: "upsert", acct: "a", state: "ca"}, // state change mid-stream
	{kind: "append", chron: "ledger", acct: "a", amt: 3},
	{kind: "checkpoint"},
	{kind: "append", chron: "ledger", acct: "c", amt: 11}, // no customer row yet
	{kind: "upsert", acct: "c", state: "ca"},
	{kind: "append", chron: "ledger", acct: "c", amt: 2},
	{kind: "append", chron: "events", acct: "b", amt: 4},
	{kind: "upsert", acct: "a", state: "nj"},
	{kind: "append", chron: "ledger", acct: "a", amt: 9},
	{kind: "checkpoint"},
	{kind: "append", chron: "ledger", acct: "b", amt: 6},
	{kind: "append", chron: "events", acct: "c", amt: 8},
	{kind: "append", chron: "ledger", acct: "a", amt: 1},
	{kind: "append", chron: "ledger", acct: "c", amt: 4},
	{kind: "append", chron: "events", acct: "a", amt: 2},
	{kind: "append", chron: "ledger", acct: "b", amt: 3},
	{kind: "append", chron: "ledger", acct: "a", amt: 7},
	// Third checkpoint: with CheckpointFullEvery=2 this one folds the
	// chain (full image, superseded entries deleted) and compacts sealed
	// segments below the tip — crash points land inside fold + reclaim.
	{kind: "checkpoint"},
	{kind: "append", chron: "events", acct: "b", amt: 9},
	{kind: "upsert", acct: "b", state: "ca"},
	{kind: "append", chron: "ledger", acct: "b", amt: 2},
	{kind: "append", chron: "ledger", acct: "c", amt: 6},
}

// tortureDDL pairs each schema statement with an existence probe so a
// post-crash reopen can tell which statements were acked (those MUST have
// survived) and recreate only the missing tail.
var tortureDDL = []struct {
	stmt   string
	exists func(db *DB) bool
}{
	{`CREATE GROUP ga`, func(db *DB) bool { _, ok := db.eng.Group("ga"); return ok }},
	{`CREATE CHRONICLE ledger (acct STRING, amt INT) IN GROUP ga RETAIN ALL`,
		func(db *DB) bool { _, ok := db.Chronicle("ledger"); return ok }},
	{`CREATE GROUP gb`, func(db *DB) bool { _, ok := db.eng.Group("gb"); return ok }},
	{`CREATE CHRONICLE events (acct STRING, amt INT) IN GROUP gb RETAIN ALL`,
		func(db *DB) bool { _, ok := db.Chronicle("events"); return ok }},
	{`CREATE RELATION customers (acct STRING, state STRING, KEY(acct))`,
		func(db *DB) bool { _, ok := db.Relation("customers"); return ok }},
	{`CREATE VIEW balance AS SELECT acct, SUM(amt) AS total, COUNT(*) AS n FROM ledger GROUP BY acct`,
		func(db *DB) bool { _, ok := db.View("balance"); return ok }},
	{`CREATE VIEW by_state AS SELECT state, SUM(amt) AS total FROM ledger JOIN customers ON ledger.acct = customers.acct GROUP BY state`,
		func(db *DB) bool { _, ok := db.View("by_state"); return ok }},
	// A B-tree twin of balance: B-tree views checkpoint in blocks (dirty
	// tracking, per-block CRCs, refs into prior chain files), so the crash
	// enumeration lands inside block writes, between the image write and the
	// manifest flip, and across copy-forward during chain folds.
	{`CREATE VIEW balance_bt AS SELECT acct, SUM(amt) AS total, COUNT(*) AS n FROM ledger GROUP BY acct WITH STORE BTREE`,
		func(db *DB) bool { _, ok := db.View("balance_bt"); return ok }},
	// A twin pair sharing a σ prefix (amt >= 5): the shared-delta plan
	// computes the filter once per batch and fans the rows into both views,
	// so the crash enumeration covers recovery rebuilding the sharing DAG
	// and replay re-folding through it.
	{`CREATE VIEW big_credit AS SELECT acct, SUM(amt) AS total FROM ledger WHERE amt >= 5 GROUP BY acct`,
		func(db *DB) bool { _, ok := db.View("big_credit"); return ok }},
	{`CREATE VIEW big_credit_n AS SELECT acct, COUNT(*) AS n FROM ledger WHERE amt >= 5 GROUP BY acct`,
		func(db *DB) bool { _, ok := db.View("big_credit_n"); return ok }},
}

// snapshot is a canonical rendering of all durable state: chronicle
// contents in sequence order, the relation, and both views.
type snapshot struct {
	Ledger    []string // ordered "acct/amt"
	Events    []string
	Cust      []string // sorted "acct=state"
	Balance   []string // sorted "acct:total:n"
	ByState   []string // sorted "state:total"
	BalanceBT []string // balance via the blocked B-tree store; must match Balance
	BigCredit []string // sorted "acct:total" over amt >= 5 (shared σ prefix)
	BigCredN  []string // sorted "acct:n" over the same shared prefix
}

// refSim replays ops[:k] through a pure-Go model of the schema. Join-view
// contributions are fixed at append time from the relation version at that
// instant (the engine's temporal-join semantics: JoinRel resolves matches
// with GetAsOf at the row's LSN), so a later upsert never re-attributes an
// earlier append.
func refSim(k int) snapshot {
	type bal struct{ total, n int64 }
	var (
		ledger, events []string
		cust           = map[string]string{}
		balance        = map[string]*bal{}
		byState        = map[string]int64{}
		bigCredit      = map[string]*bal{}
	)
	for _, o := range tortureOps[:k] {
		switch o.kind {
		case "upsert":
			cust[o.acct] = o.state
		case "append":
			row := fmt.Sprintf("%s/%d", o.acct, o.amt)
			if o.chron == "ledger" {
				ledger = append(ledger, row)
				b := balance[o.acct]
				if b == nil {
					b = &bal{}
					balance[o.acct] = b
				}
				b.total += o.amt
				b.n++
				if st, ok := cust[o.acct]; ok {
					byState[st] += o.amt
				}
				if o.amt >= 5 {
					bc := bigCredit[o.acct]
					if bc == nil {
						bc = &bal{}
						bigCredit[o.acct] = bc
					}
					bc.total += o.amt
					bc.n++
				}
			} else {
				events = append(events, row)
			}
		}
	}
	s := snapshot{Ledger: ledger, Events: events}
	for a, st := range cust {
		s.Cust = append(s.Cust, a+"="+st)
	}
	for a, b := range balance {
		s.Balance = append(s.Balance, fmt.Sprintf("%s:%d:%d", a, b.total, b.n))
	}
	for st, tot := range byState {
		s.ByState = append(s.ByState, fmt.Sprintf("%s:%d", st, tot))
	}
	for a, b := range bigCredit {
		s.BigCredit = append(s.BigCredit, fmt.Sprintf("%s:%d", a, b.total))
		s.BigCredN = append(s.BigCredN, fmt.Sprintf("%s:%d", a, b.n))
	}
	sort.Strings(s.Cust)
	sort.Strings(s.Balance)
	sort.Strings(s.ByState)
	sort.Strings(s.BigCredit)
	sort.Strings(s.BigCredN)
	s.BalanceBT = s.Balance
	return s
}

// selCols runs a SELECT * and renders the named columns of each row.
func selCols(t *testing.T, db *DB, from, sep string, cols ...string) []string {
	t.Helper()
	res, err := db.Exec(`SELECT * FROM ` + from)
	if err != nil {
		t.Fatalf("SELECT * FROM %s: %v", from, err)
	}
	idx := make([]int, len(cols))
	for i, c := range cols {
		idx[i] = -1
		for j, n := range res.Columns {
			if n == c {
				idx[i] = j
			}
		}
		if idx[i] < 0 {
			t.Fatalf("SELECT * FROM %s: no column %q in %v", from, c, res.Columns)
		}
	}
	out := make([]string, 0, len(res.Rows))
	for _, r := range res.Rows {
		parts := make([]string, len(idx))
		for i, j := range idx {
			parts[i] = fmt.Sprintf("%v", r[j])
		}
		out = append(out, joinParts(parts, sep))
	}
	return out
}

func joinParts(parts []string, sep string) string {
	s := parts[0]
	for _, p := range parts[1:] {
		s += sep + p
	}
	return s
}

// dbSnapshot reads the live database into the canonical rendering.
func dbSnapshot(t *testing.T, db *DB) snapshot {
	t.Helper()
	s := snapshot{
		Ledger:    selCols(t, db, "ledger", "/", "acct", "amt"),
		Events:    selCols(t, db, "events", "/", "acct", "amt"),
		Cust:      selCols(t, db, "customers", "=", "acct", "state"),
		Balance:   selCols(t, db, "balance", ":", "acct", "total", "n"),
		ByState:   selCols(t, db, "by_state", ":", "state", "total"),
		BalanceBT: selCols(t, db, "balance_bt", ":", "acct", "total", "n"),
		BigCredit: selCols(t, db, "big_credit", ":", "acct", "total"),
		BigCredN:  selCols(t, db, "big_credit_n", ":", "acct", "n"),
	}
	sort.Strings(s.Cust)
	sort.Strings(s.Balance)
	sort.Strings(s.ByState)
	sort.Strings(s.BalanceBT)
	sort.Strings(s.BigCredit)
	sort.Strings(s.BigCredN)
	return s
}

func tortureOptions(disk *fault.Disk, shards int) Options {
	var chronon int64
	return Options{
		Dir:             "/data",
		SyncWAL:         true,
		Shards:          shards,
		RelationHistory: true,
		FS:              disk,
		Clock:           func() int64 { chronon++; return chronon },
		// A tiny segment cap forces rotations every few records, and a
		// fold period of 2 makes the third scripted checkpoint a full one,
		// so the enumeration crashes inside segment rotation (seal, create,
		// manifest flip), incremental checkpoint writes, chain folds, and
		// segment compaction — every fsync/write/rename/remove the rotated
		// layout added. Disk ops are counted dynamically (clean.Ops()), so
		// new crash sites are covered automatically.
		WALSegmentBytes:     512,
		CheckpointFullEvery: 2,
		// Tiny blocks split the B-tree view's image into several blocks per
		// checkpoint, and a tight cache budget forces the recovered reads in
		// verifyRecovered to fault blocks back through the healed disk.
		ViewBlockBytes: 64,
		ViewCacheBytes: 512,
	}
}

func applyTortureOp(db *DB, o tortureOp) error {
	switch o.kind {
	case "append":
		_, err := db.Append(o.chron, Tuple{Str(o.acct), Int(o.amt)})
		return err
	case "upsert":
		return db.Upsert("customers", Tuple{Str(o.acct), Str(o.state)})
	case "checkpoint":
		return db.Checkpoint()
	default:
		panic("unknown op " + o.kind)
	}
}

// runTortureWorkload executes the scripted workload until the disk crashes
// (or to completion), returning how many DDL statements and data ops were
// acked. Errors after the crash point are expected, not test failures.
func runTortureWorkload(disk *fault.Disk, shards int) (ackedDDL, ackedOps int) {
	db, err := Open(tortureOptions(disk, shards))
	if err != nil {
		return 0, 0 // crashed during Open
	}
	defer db.Close() // post-crash close errors are fine
	for _, d := range tortureDDL {
		if _, err := db.Exec(d.stmt); err != nil {
			return ackedDDL, 0
		}
		ackedDDL++
	}
	for _, o := range tortureOps {
		if err := applyTortureOp(db, o); err != nil {
			return ackedDDL, ackedOps
		}
		ackedOps++
	}
	return ackedDDL, ackedOps
}

// verifyRecovered opens the healed disk with a (possibly different) shard
// count and checks the durability contract against the reference.
func verifyRecovered(t *testing.T, disk *fault.Disk, shards, ackedDDL, ackedOps int, tag string) {
	t.Helper()
	db, err := Open(tortureOptions(disk, shards))
	if err != nil {
		t.Fatalf("%s: reopen after crash failed: %v", tag, err)
	}
	defer db.Close()

	// Every acked DDL statement must have survived; the unacked tail may
	// or may not exist (the in-flight statement can commit). Recreate
	// whatever is missing so the data checks below always have the schema.
	for j, d := range tortureDDL {
		if d.exists(db) {
			continue
		}
		if j < ackedDDL {
			t.Fatalf("%s: acked DDL %q lost in crash", tag, d.stmt)
		}
		if _, err := db.Exec(d.stmt); err != nil {
			t.Fatalf("%s: recreating %q: %v", tag, d.stmt, err)
		}
	}

	// Compare rendered forms: nil and empty slices are the same state.
	got := fmt.Sprintf("%+v", dbSnapshot(t, db))
	want := fmt.Sprintf("%+v", refSim(ackedOps))
	if got == want {
		return
	}
	if ackedOps < len(tortureOps) {
		// The in-flight op may have committed before the crash.
		if next := fmt.Sprintf("%+v", refSim(ackedOps+1)); got == next {
			return
		}
	}
	t.Errorf("%s: recovered state diverges after %d acked ops\n got: %s\nwant: %s",
		tag, ackedOps, got, want)
}

// TestCrashTorture enumerates every crash point of the workload for each
// shard count, with torn final writes on odd crash indices, and verifies
// recovery twice: once at the same shard count and once after a reshard.
func TestCrashTorture(t *testing.T) {
	reshard := map[int]int{1: 4, 4: 1}
	var totalPoints atomic.Int64
	for _, shards := range []int{1, 4} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			t.Parallel()
			// Clean run: count the workload's mutating disk operations
			// and sanity-check the no-crash state against the reference.
			clean := fault.NewDisk()
			if ddl, ops := runTortureWorkload(clean, shards); ddl != len(tortureDDL) || ops != len(tortureOps) {
				t.Fatalf("clean run stopped early: ddl=%d ops=%d", ddl, ops)
			}
			writeOps := clean.Ops()
			verifyRecovered(t, clean, shards, len(tortureDDL), len(tortureOps), "clean")
			t.Logf("shards=%d: %d crash points", shards, writeOps)
			totalPoints.Add(int64(writeOps))

			for i := 0; i < writeOps; i++ {
				disk := fault.NewDisk()
				disk.SetCrashAt(i)
				disk.SetTorn(i%2 == 1)
				ackedDDL, ackedOps := runTortureWorkload(disk, shards)
				if !disk.Crashed() {
					t.Fatalf("crash %d: disk did not crash (ops=%d)", i, disk.Ops())
				}
				disk.Heal()
				verifyRecovered(t, disk, shards, ackedDDL, ackedOps,
					fmt.Sprintf("crash@%d", i))
				// Reshard-on-reopen: recover the same image into a
				// different shard layout and re-verify.
				verifyRecovered(t, disk, reshard[shards], ackedDDL, ackedOps,
					fmt.Sprintf("crash@%d/reshard", i))
			}
		})
	}
	// Runs after the parallel subtests complete.
	t.Cleanup(func() {
		if n := totalPoints.Load(); n > 0 && n < 100 {
			t.Errorf("only %d crash points enumerated across shard counts, want >= 100", n)
		}
	})
}
