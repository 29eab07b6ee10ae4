// Restore tests: a checkpoint chain restores against the catalog prefix it
// was cut with, on a reopen after Close, on a reopen after a power cut, and
// on a follower bootstrapped from the primary's chain files.
package chronicledb_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	chronicledb "chronicledb"
	"chronicledb/internal/fault"
	"chronicledb/internal/server"
	"chronicledb/internal/shard"
)

const (
	restoreChronicle = `CREATE CHRONICLE calls (acct STRING, minutes INT) RETAIN ALL`
	restoreUsage     = `CREATE VIEW usage AS SELECT acct, SUM(minutes) AS total FROM calls GROUP BY acct`
	restorePeak      = `CREATE VIEW peak AS SELECT acct, MAX(minutes) AS peak FROM calls GROUP BY acct`
	restoreCount     = `CREATE VIEW usage AS SELECT acct, COUNT(*) AS total FROM calls GROUP BY acct`
	// checkpointStep in a step list cuts a checkpoint on the database under
	// test; the reference has nothing to cut.
	checkpointStep = "CHECKPOINT"
)

// restoreAppends returns the appends of rows from..to-1 of one fixed
// stream: three accounts, minutes 1 to 5.
func restoreAppends(from, to int) []string {
	var s []string
	for i := from; i < to; i++ {
		s = append(s, fmt.Sprintf(`APPEND INTO calls VALUES ('a%d', %d)`, i%3, i%5+1))
	}
	return s
}

// runSteps executes steps on db, cutting a checkpoint at each checkpointStep
// unless db is the in-memory reference.
func runSteps(t *testing.T, db *chronicledb.DB, steps []string, durable bool) {
	t.Helper()
	for _, s := range steps {
		if s != checkpointStep {
			mustExec(t, db, s)
		} else if durable {
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// viewRows renders every view of db, each row one line, sorted.
func viewRows(t *testing.T, db *chronicledb.DB) map[string][]string {
	t.Helper()
	out := map[string][]string{}
	for _, name := range db.Engine().Names(shard.Views) {
		res, err := db.Exec("SELECT * FROM " + name)
		if err != nil {
			t.Fatalf("SELECT * FROM %s: %v", name, err)
		}
		var rows []string
		for _, r := range res.Rows {
			rows = append(rows, fmt.Sprint(r))
		}
		slices.Sort(rows)
		out[name] = rows
	}
	return out
}

// sameViews fails unless db's views equal want row for row.
func sameViews(t *testing.T, what string, db *chronicledb.DB, want map[string][]string) {
	t.Helper()
	if got := viewRows(t, db); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: views differ from the reference\n  got:  %v\n  want: %v", what, got, want)
	}
}

// referenceViews runs steps on an in-memory database and returns its views.
func referenceViews(t *testing.T, steps []string) map[string][]string {
	t.Helper()
	ref, err := chronicledb.Open(chronicledb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	runSteps(t, ref, steps, false)
	return viewRows(t, ref)
}

// TestRestoreAgainstCatalogPrefix: DDL after a checkpoint applies to the
// restored state — a DROP VIEW, a drop and re-create under the same name
// with another definition, a view created over a RETAIN ALL chronicle that
// backfills from it — because a chain restores against the catalog prefix
// it was cut with. Each case runs three ways: reopen after Close, reopen
// after a power cut, and a follower bootstrapped from the primary's chain
// files, which a restart then recovers from its own chain without a
// resync. Every view is compared row for row with an in-memory reference
// fed the same statements.
func TestRestoreAgainstCatalogPrefix(t *testing.T) {
	steps := func(parts ...any) []string {
		var s []string
		for _, p := range parts {
			switch p := p.(type) {
			case string:
				s = append(s, p)
			case []string:
				s = append(s, p...)
			}
		}
		return s
	}
	for _, tc := range []struct {
		name  string
		steps []string
	}{
		{"drop_after_checkpoint", steps(restoreChronicle, restoreUsage, restorePeak, restoreAppends(0, 10),
			checkpointStep, `DROP VIEW peak`, restoreAppends(10, 13))},
		{"recreate_after_checkpoint", steps(restoreChronicle, restoreCount, restoreAppends(0, 10),
			checkpointStep, `DROP VIEW usage`, restoreUsage, restoreAppends(10, 13))},
		{"create_after_checkpoint", steps(restoreChronicle, restoreAppends(0, 10),
			checkpointStep, restoreUsage, restoreAppends(10, 11))},
	} {
		want := referenceViews(t, tc.steps)
		t.Run(tc.name, func(t *testing.T) {
			t.Run("close", func(t *testing.T) {
				opts := chronicledb.Options{Dir: t.TempDir()}
				db, err := chronicledb.Open(opts)
				if err != nil {
					t.Fatal(err)
				}
				runSteps(t, db, tc.steps, true)
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
				if db, err = chronicledb.Open(opts); err != nil {
					t.Fatalf("reopen: %v", err)
				}
				defer db.Close()
				sameViews(t, "reopened", db, want)
			})
			t.Run("power_cut", func(t *testing.T) {
				disk := fault.NewDisk()
				opts := chronicledb.Options{Dir: "/data", FS: disk, SyncWAL: true}
				db, err := chronicledb.Open(opts)
				if err != nil {
					t.Fatal(err)
				}
				runSteps(t, db, tc.steps, true)
				disk.PowerCut()
				db.Close()
				disk.Heal()
				if db, err = chronicledb.Open(opts); err != nil {
					t.Fatalf("reopen: %v", err)
				}
				defer db.Close()
				sameViews(t, "reopened", db, want)
			})
			t.Run("follower", func(t *testing.T) {
				db, ts := openPrimary(t, chronicledb.Options{})
				defer db.Close()
				defer ts.Close()
				runSteps(t, db, tc.steps, true)
				fdir := t.TempDir()
				f := openFollower(t, ts.URL, fdir, chronicledb.Options{})
				defer f.Close()
				waitUntil(t, 10*time.Second, "follower bootstrap", func() bool {
					st, ok := f.ReplState()
					return ok && st.Resyncs > 0 && st.AppliedLSN >= db.Engine().LSN() && f.DDLCount() == db.DDLCount()
				})
				sameViews(t, "follower", f, want)

				f.Close()
				f = openFollower(t, ts.URL, fdir, chronicledb.Options{})
				defer f.Close()
				sameViews(t, "restarted follower", f, want)
				waitUntil(t, 10*time.Second, "restarted follower attach", func() bool {
					st, ok := f.ReplState()
					return ok && st.Connected
				})
				if st, _ := f.ReplState(); st.Resyncs != 0 {
					t.Fatalf("restarted follower resynced %d times; it should recover from its own chain", st.Resyncs)
				}
				f.Close()
			})
		})
	}
}

// TestDDLRacesCheckpoint: one goroutine creates, drops and re-creates a
// view under another definition, appending between, while another cuts
// checkpoints; then the checkpoints stop, a power cut follows, and the
// reopen must succeed and equal the reference, round after round. The last
// chain is cut while DDL runs: a checkpoint that took its catalog prefix
// outside the DDL exclusion could image a view its prefix does not create,
// and the reopen would refuse the chain ("checkpoint references unknown
// view").
func TestDDLRacesCheckpoint(t *testing.T) {
	disk := fault.NewDisk()
	opts := chronicledb.Options{Dir: "/data", FS: disk, SyncWAL: true, CheckpointFullEvery: 3}
	db, err := chronicledb.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := chronicledb.Open(chronicledb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	both := func(stmt string) {
		t.Helper()
		mustExec(t, db, stmt)
		mustExec(t, ref, stmt)
	}
	both(restoreChronicle)
	both(restorePeak)
	defs := []string{restoreUsage, restoreCount}
	n := 0
	ddl := func() {
		if n > 0 {
			both(`DROP VIEW usage`)
		}
		both(defs[n%2])
		both(restoreAppends(n, n+1)[0])
		n++
	}
	for round := 0; round < 4; round++ {
		stop := make(chan struct{})
		var wg sync.WaitGroup
		var ckErr error
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if ckErr = db.Checkpoint(); ckErr != nil {
					return
				}
			}
		}()
		for i := 0; i < 30; i++ {
			ddl()
		}
		close(stop)
		wg.Wait()
		if ckErr != nil {
			t.Fatalf("round %d: checkpoint: %v", round, ckErr)
		}
		disk.PowerCut()
		db.Close()
		disk.Heal()
		if db, err = chronicledb.Open(opts); err != nil {
			t.Fatalf("round %d: reopen after a power cut: %v", round, err)
		}
		sameViews(t, fmt.Sprintf("round %d", round), db, viewRows(t, ref))
	}
	db.Close()
}

// holdWriter holds a response's first write until release is closed,
// announcing it on opened: by then the handler has started its response.
type holdWriter struct {
	http.ResponseWriter
	opened, release chan struct{}
	once            sync.Once
}

func (w *holdWriter) Write(p []byte) (int, error) {
	w.once.Do(func() {
		close(w.opened)
		<-w.release
	})
	return w.ResponseWriter.Write(p)
}

func (w *holdWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// chainFiles lists the checkpoint chain files in dir.
func chainFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "checkpoint-*.bin"))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestReplBootstrapWhileChainFolds: /repl/snapshot opens every chain file
// before its first byte, so a full checkpoint that folds the chain — and
// deletes the files being streamed — while the bootstrap is held open does
// not stop it. The follower restores the old chain, finds the primary has
// compacted past it, bootstraps again from the new one, and converges.
func TestReplBootstrapWhileChainFolds(t *testing.T) {
	dir := t.TempDir()
	db, err := chronicledb.Open(chronicledb.Options{Dir: dir, SyncWAL: true, CheckpointFullEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv := server.NewWith(db, server.Config{ReplHeartbeat: 20 * time.Millisecond})
	opened, release := make(chan struct{}), make(chan struct{})
	var holds sync.Once
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/repl/snapshot" {
			holds.Do(func() { w = &holdWriter{ResponseWriter: w, opened: opened, release: release} })
		}
		srv.ServeHTTP(w, r)
	}))
	defer ts.Close()

	mustExec(t, db, restoreChronicle)
	mustExec(t, db, restoreUsage)
	for i := 0; i < 3; i++ {
		for _, s := range restoreAppends(10*i, 10*i+10) {
			mustExec(t, db, s)
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	streamed := chainFiles(t, dir)
	if len(streamed) != 3 {
		t.Fatalf("chain of %d files, want a full image and two increments", len(streamed))
	}

	f := openFollower(t, ts.URL, t.TempDir(), chronicledb.Options{})
	defer f.Close()
	select {
	case <-opened:
	case <-time.After(10 * time.Second):
		t.Fatal("the follower never asked for a bootstrap")
	}
	// DDL forces the next checkpoint full: it folds the chain.
	mustExec(t, db, restorePeak)
	for _, s := range restoreAppends(30, 35) {
		mustExec(t, db, s)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, name := range streamed {
		if _, err := os.Stat(name); !os.IsNotExist(err) {
			t.Fatalf("%s survived the fold (%v)", filepath.Base(name), err)
		}
	}
	close(release)

	waitUntil(t, 10*time.Second, "follower convergence", func() bool {
		st, ok := f.ReplState()
		return ok && st.AppliedLSN >= db.Engine().LSN() && f.DDLCount() == db.DDLCount()
	})
	sameViews(t, "follower", f, viewRows(t, db))
	if st, _ := f.ReplState(); st.Resyncs != 2 {
		t.Fatalf("follower bootstrapped %d times, want twice: the old chain, then the folded one", st.Resyncs)
	}
	f.Close()
}

// TestReplBootstrapPowerCut: a power cut at any disk operation of a
// follower's bootstrap, or of the stream it resumes after, reopens it
// either empty of records — and it bootstraps again — or holding the
// primary's whole chain, plus any streamed records it made durable; either
// way it then converges.
func TestReplBootstrapPowerCut(t *testing.T) {
	db, ts := openPrimary(t, chronicledb.Options{})
	defer db.Close()
	defer ts.Close()
	mustExec(t, db, restoreChronicle)
	mustExec(t, db, restoreUsage)
	for _, s := range restoreAppends(0, 20) {
		mustExec(t, db, s)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, restorePeak)
	for _, s := range restoreAppends(20, 30) {
		mustExec(t, db, s)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tip := db.Engine().LSN()
	for _, s := range restoreAppends(30, 33) {
		mustExec(t, db, s)
	}
	last := db.Engine().LSN()
	want := viewRows(t, db)

	follower := func(disk *fault.Disk, primary string) chronicledb.Options {
		return chronicledb.Options{Dir: "/data", FS: disk, SyncWAL: true, ReplicaOf: primary, FollowerID: "f-cut"}
	}
	converged := func(f *chronicledb.DB) bool {
		st, ok := f.ReplState()
		return ok && st.AppliedLSN >= last
	}
	// An uncut run counts the disk operations to cut at.
	disk := fault.NewDisk()
	f, err := chronicledb.Open(follower(disk, ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 10*time.Second, "bootstrap", func() bool { return converged(f) })
	total := disk.Ops()
	f.Close()

	reopened := map[string]int{}
	for at := 0; at < total; at++ {
		disk := fault.NewDisk()
		disk.SetCrashAt(at)
		if f, err := chronicledb.Open(follower(disk, ts.URL)); err == nil {
			waitUntil(t, 10*time.Second, "the power cut", func() bool { return disk.Crashed() || converged(f) })
			f.Close()
		}
		if !disk.Crashed() {
			continue
		}
		disk.Heal()
		// What the disk holds, recovered with no primary to follow.
		g, err := chronicledb.Open(follower(disk, ""))
		if err != nil {
			t.Fatalf("cut at op %d: reopen: %v", at, err)
		}
		switch lsn := g.Engine().LSN(); {
		case lsn == 0:
			reopened["empty"]++
		case lsn >= tip:
			reopened["with the chain"]++
		default:
			t.Fatalf("cut at op %d: reopened at lsn %d, neither empty nor past the chain's tip %d", at, lsn, tip)
		}
		g.Close()
		f, err := chronicledb.Open(follower(disk, ts.URL))
		if err != nil {
			t.Fatalf("cut at op %d: reopen as a follower: %v", at, err)
		}
		waitUntil(t, 10*time.Second, "convergence after the cut", func() bool { return converged(f) })
		sameViews(t, fmt.Sprintf("cut at op %d, converged", at), f, want)
		f.Close()
	}
	if reopened["empty"] == 0 || reopened["with the chain"] == 0 {
		t.Fatalf("cuts at %d operations reopened %v: the cuts missed the bootstrap", total, reopened)
	}
	t.Logf("cuts at %d operations reopened %v", total, reopened)
}

// TestReplFollowerWithoutDir: a follower with no data directory behind a
// primary that compacted its log past it cannot bootstrap — it has nowhere
// to keep the chain files its views fault blocks from — and says so,
// instead of resyncing.
func TestReplFollowerWithoutDir(t *testing.T) {
	db, ts := openPrimary(t, chronicledb.Options{})
	defer db.Close()
	defer ts.Close()
	mustExec(t, db, restoreChronicle)
	for _, s := range restoreAppends(0, 5) {
		mustExec(t, db, s)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	f, err := chronicledb.Open(chronicledb.Options{ReplicaOf: ts.URL, FollowerID: "f-memory"})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	waitUntil(t, 10*time.Second, "the follower's error", func() bool {
		err := f.ReplErr()
		return err != nil && strings.Contains(err.Error(), "without Options.Dir")
	})
	if st, _ := f.ReplState(); st.Resyncs != 0 || st.AppliedLSN != 0 {
		t.Fatalf("follower without a directory resynced: %+v", st)
	}
	f.Close()
}
