package chronicledb

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"chronicledb/internal/value"
)

// TestRelationSelectInKeyOrder: SELECT * FROM a relation returns its rows in
// the value.Compare order of their keys — strings bytewise, numbers by value —
// whatever order they were upserted in: live, after a checkpoint, a close
// and a reopen, and on two shards.
func TestRelationSelectInKeyOrder(t *testing.T) {
	floats := []string{"2.5", "-1.5", "10", "0.25", "-100", "123456.75", "-0.5", "3"}
	var floatVals []value.Value
	for _, f := range floats {
		x, err := strconv.ParseFloat(f, 64)
		if err != nil {
			t.Fatal(err)
		}
		floatVals = append(floatVals, value.Float(x))
	}
	slices.SortFunc(floatVals, value.Compare)
	var floatWant []string
	for _, v := range floatVals {
		floatWant = append(floatWant, v.String())
	}
	cases := []struct {
		kind   string
		upsert []string
		want   string
	}{
		{"STRING", []string{"'b'", "'aa'", "'a'", "'ab'"}, "a, aa, ab, b"},
		{"INT", []string{"-1", "2", "-5", "300"}, "-5, -1, 2, 300"},
		{"FLOAT", floats, strings.Join(floatWant, ", ")},
	}
	load := func(t *testing.T, db *DB) {
		for i, c := range cases {
			mustExec(t, db, fmt.Sprintf("CREATE RELATION r%d (k %s, v INT, KEY(k))", i, c.kind))
			for j, k := range c.upsert {
				mustExec(t, db, fmt.Sprintf("UPSERT INTO r%d VALUES (%s, %d)", i, k, j))
			}
		}
	}
	check := func(t *testing.T, db *DB, when string) {
		t.Helper()
		for i, c := range cases {
			var keys []string
			for _, row := range mustExec(t, db, fmt.Sprintf("SELECT * FROM r%d", i)).Rows {
				keys = append(keys, row[0].String())
			}
			if got := strings.Join(keys, ", "); got != c.want {
				t.Errorf("%s: %s keys upserted as %s come back as %s, want %s", when, c.kind, strings.Join(c.upsert, ", "), got, c.want)
			}
		}
	}
	t.Run("live", func(t *testing.T) {
		db := memDB(t)
		defer db.Close()
		load(t, db)
		check(t, db, "live")
	})
	t.Run("reopened", func(t *testing.T) {
		dir := t.TempDir()
		db, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		load(t, db)
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if db, err = Open(Options{Dir: dir}); err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		check(t, db, "after a checkpoint and a reopen")
	})
	t.Run("shards=2", func(t *testing.T) {
		db := shardedDB(t, 2)
		load(t, db)
		check(t, db, "on two shards")
	})
}
