package chronicledb_test

import (
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	chronicledb "chronicledb"
)

// testdata/legacy_append_layout is a directory the append-shape workload
// (runShapes) wrote before an append call was one record: a plain call is a
// RecAppend per row there, and the idempotent call a RecAppendEach stamped
// with one chronon, in the layout that kind's byte still names. Each file is
// stored as hex; state.txt is shapesState as it read live. No checkpoint was
// taken, so opening the directory replays its whole log.

// materializeLegacyLayout writes the fixture's files into a fresh directory.
func materializeLegacyLayout(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files, err := filepath.Glob(filepath.Join("testdata", "legacy_append_layout", "*.hex"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no fixture files: %v", err)
	}
	for _, f := range files {
		text, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		b, err := hex.DecodeString(strings.TrimSpace(string(text)))
		if err != nil {
			t.Fatal(err)
		}
		name := strings.TrimSuffix(filepath.Base(f), ".hex")
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestLegacyAppendLayoutReplaysExactly: a directory in the older append
// layout opens, and its reopen and a follower streaming its log from LSN 0
// both put every row back at the SN, chronon and LSN it had live, with the
// views, the relation, the LSN and the dedup entry (the retry hits).
func TestLegacyAppendLayoutReplaysExactly(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "legacy_append_layout", "state.txt"))
	if err != nil {
		t.Fatal(err)
	}
	db, ts := openPrimary(t, chronicledb.Options{Dir: materializeLegacyLayout(t), Shards: 2, Clock: tickClock()})
	defer ts.Close()
	defer db.Close()
	if got := shapesState(t, db); got != string(want) {
		t.Fatalf("reopened state differs:\n got:\n%s\nwant:\n%s", got, want)
	}

	f := openFollower(t, ts.URL, t.TempDir(), chronicledb.Options{Shards: 2, Clock: tickClock()})
	defer f.Close()
	waitUntil(t, 10*time.Second, "follower catch-up", func() bool {
		return f.Engine().LSN() == db.Engine().LSN()
	})
	if got := shapesState(t, f); got != string(want) {
		t.Errorf("follower state differs:\n got:\n%s\nwant:\n%s", got, want)
	}
	expectRetryHit(t, db, 7, 8)
}
