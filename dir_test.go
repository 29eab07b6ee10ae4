package chronicledb_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	chronicledb "chronicledb"
)

// TestDirMembersSurviveADrop: five views folding one σ by acct share a key
// directory with a sixth created WITH STORE BTREE, which joins it like any
// other (SHOW VIEWS and EXPLAIN name it and count its views). Dropping one
// leaves the other four's rows as they were and the directory shared by five;
// they keep folding, and a checkpoint, a reopen and a follower's snapshot
// resync each bring back exactly the four views, each equal to a per-account
// fold of everything appended.
func TestDirMembersSurviveADrop(t *testing.T) {
	dir := t.TempDir()
	db, ts := openPrimary(t, chronicledb.Options{Dir: dir, Shards: 2})
	defer ts.Close()
	mustExec(t, db, `CREATE CHRONICLE calls (acct STRING, minutes INT)`)
	aggs := []string{"SUM(minutes)", "COUNT(*)", "MAX(minutes)", "MIN(minutes)", "SUM(minutes)"}
	for i, agg := range aggs {
		mustExec(t, db, fmt.Sprintf(`CREATE VIEW m%d AS SELECT acct, %s AS a FROM calls WHERE minutes > 1 GROUP BY acct`, i, agg))
	}
	mustExec(t, db, `CREATE VIEW ordered AS SELECT acct, SUM(minutes) AS a FROM calls WHERE minutes > 1 GROUP BY acct WITH STORE BTREE`)

	// want is each view's value per account: the reference fold.
	want := make([]map[string]int64, len(aggs))
	for i := range want {
		want[i] = map[string]int64{}
	}
	appendRound := func(round int) {
		t.Helper()
		rows := make([]chronicledb.Tuple, 0, 200)
		for j := 0; j < 200; j++ {
			acct, minutes := fmt.Sprintf("a%03d", (j*7+round*13)%300), int64(j%5)
			rows = append(rows, chronicledb.Tuple{chronicledb.Str(acct), chronicledb.Int(minutes)})
			if minutes <= 1 {
				continue
			}
			_, seen := want[0][acct]
			want[0][acct] += minutes
			want[1][acct]++
			if !seen || minutes > want[2][acct] {
				want[2][acct] = minutes
			}
			if !seen || minutes < want[3][acct] {
				want[3][acct] = minutes
			}
			want[4][acct] += minutes
		}
		if _, _, err := db.AppendRows("calls", rows); err != nil {
			t.Fatal(err)
		}
	}
	check := func(what string, db *chronicledb.DB, members int) {
		t.Helper()
		for i := range aggs {
			name := fmt.Sprintf("m%d", i)
			res, err := db.Exec("SELECT * FROM " + name)
			if i == 2 {
				if err == nil {
					t.Errorf("%s: the dropped view m2 answers", what)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if len(res.Rows) != len(want[i]) {
				t.Errorf("%s: %s holds %d groups, want %d", what, name, len(res.Rows), len(want[i]))
			}
			for _, r := range res.Rows {
				if got := r[1].AsInt(); got != want[i][r[0].AsString()] {
					t.Errorf("%s: %s[%s] = %d, want %d", what, name, r[0].AsString(), got, want[i][r[0].AsString()])
				}
			}
		}
		res, err := db.Exec("SHOW VIEWS")
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res.Rows {
			name, store, views := r[0].AsString(), r[4].AsString(), r[6].AsInt()
			if strings.HasPrefix(name, "m") && (store != "paged" || views != int64(members)) {
				t.Errorf("%s: SHOW VIEWS %s: store %s, directory %s of %d views; want %d", what, name, store, r[5].AsString(), views, members)
			}
			if name == "ordered" && (store != "paged" || views != int64(members)) {
				t.Errorf("%s: SHOW VIEWS ordered: store %s, directory %q", what, store, r[5].AsString())
			}
		}
	}

	for round := 0; round < 5; round++ {
		appendRound(round)
	}
	res, err := db.Exec("EXPLAIN VIEW m0")
	if err != nil {
		t.Fatal(err)
	}
	if text := fmt.Sprint(res.Rows); !strings.Contains(text, fmt.Sprintf("6 views, %d keys", len(want[0]))) {
		t.Errorf("EXPLAIN VIEW m0 does not name a directory of six views: %s", text)
	}
	mustExec(t, db, `DROP VIEW m2`)
	for round := 5; round < 10; round++ {
		appendRound(round)
	}
	check("after the drop", db, 5)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	appendRound(10)
	check("after the checkpoint", db, 5)

	f := openFollower(t, ts.URL, t.TempDir(), chronicledb.Options{Shards: 2})
	defer f.Close()
	waitUntil(t, 10*time.Second, "follower resync", func() bool {
		var rows int64
		for _, n := range want[1] {
			rows += n
		}
		st, ok := f.ReplState()
		res, err := f.Exec("SELECT * FROM m1")
		if !ok || st.Resyncs == 0 || err != nil {
			return false
		}
		for _, r := range res.Rows {
			rows -= r[1].AsInt()
		}
		return rows == 0
	})
	check("on the follower", f, 5)

	// The follower ends its stream request first: the server's Close waits
	// for every open request.
	f.Close()
	ts.Close()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = chronicledb.Open(chronicledb.Options{Dir: dir, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	check("after the reopen", db, 5)
	appendRound(11)
	check("folding after the reopen", db, 5)
}
