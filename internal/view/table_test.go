package view

import (
	"bytes"
	"strings"
	"testing"

	"chronicledb/internal/aggregate"
	"chronicledb/internal/algebra"
	"chronicledb/internal/chronicle"
	"chronicledb/internal/value"
)

// TestJoinSharesOneTable: views joined to one table read their own columns
// of one group per key, folded and published once a round whichever of them
// the round reaches first; and a table that holds a group, pages, or keys
// other columns takes no view.
func TestJoinSharesOneTable(t *testing.T) {
	f := newFixture(t)
	host := minutesPerAcct(t, f)
	most, err := Join(Def{Name: "most", Expr: algebra.NewScan(f.calls), Mode: SummarizeGroupBy, GroupCols: []int{0},
		Aggs: []aggregate.Spec{{Func: aggregate.Max, Col: 1, Name: "top"}, {Func: aggregate.Sum, Col: 1, Name: "again"}}}, host)
	if err != nil {
		t.Fatal(err)
	}
	accts, err := Join(Def{Name: "accts", Expr: algebra.NewScan(f.calls), Mode: SummarizeProject, Cols: []int{0}}, host)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(accts.TableViews(), ","); got != "minutes_per_acct,most,accts" {
		t.Fatalf("table views %s", got)
	}
	// SUM(minutes) is one state under two names: host's and most's.
	if specs := host.sh.l.Specs(); len(specs) != 3 || most.cols[1] != host.cols[0] {
		t.Fatalf("union layout %v, most reads %v", specs, most.cols)
	}
	var rounds [][]chronicle.Row
	for round, call := range [][]value.Tuple{{{value.Str("a"), value.Int(10)}}, {{value.Str("b"), value.Int(5)}, {value.Str("a"), value.Int(20)}}} {
		rows, err := f.calls.Append(f.group.NextSN(), 0, f.nextLSN(), call)
		if err != nil {
			t.Fatal(err)
		}
		rounds = append(rounds, rows)
		// The round reaches the views in any order; the first folds it.
		first := []*View{most, accts, host}[round%3]
		if !first.ApplyCall(uint64(round+1), rows) {
			t.Fatal("the first view of a round did not fold it")
		}
		for _, v := range []*View{host, most, accts} {
			if v != first && v.ApplyCall(uint64(round+1), rows) {
				t.Fatalf("%s folded a round its table had folded", v.Name())
			}
		}
		first.Publish()
	}
	for _, c := range []struct {
		v    *View
		want string
	}{
		{host, "[(a, 30, 2) (b, 5, 1)]"},
		{most, "[(a, 20, 30) (b, 5, 5)]"},
		{accts, "[(a) (b)]"},
	} {
		if got := fmtRows(c.v.Rows()); got != c.want {
			t.Errorf("%s = %s, want %s", c.v.Name(), got, c.want)
		}
		if st := c.v.Stats(); st.Applies != 2 || st.DeltaRows != 3 || st.Publishes != 2 {
			t.Errorf("%s stats %+v: the table's work, once a round", c.v.Name(), st)
		}
	}

	late := Def{Name: "late", Expr: algebra.NewScan(f.calls), Mode: SummarizeGroupBy, GroupCols: []int{0},
		Aggs: []aggregate.Spec{{Func: aggregate.Min, Col: 1, Name: "low"}}}
	if _, err := Join(late, host); err == nil || !strings.Contains(err.Error(), "holds groups") {
		t.Errorf("a view joined a table that holds groups: %v", err)
	}
	empty := minutesPerAcct(t, f)
	other := late
	other.GroupCols = []int{1}
	if _, err := Join(other, empty); err == nil {
		t.Error("a view joined a table keyed by other columns")
	}
	empty.EnablePaging(0, func(BlockRef) ([]byte, error) { return nil, nil }, NewCache(1<<20))
	if _, err := Join(late, empty); err == nil || !strings.Contains(err.Error(), "pages") {
		t.Errorf("a view joined a paged table: %v", err)
	}

	// A dropped view's columns stay; the others read on.
	most.Leave()
	if got := strings.Join(host.TableViews(), ","); got != "minutes_per_acct,accts" {
		t.Errorf("table views after a leave: %s", got)
	}
	if got := fmtRows(host.Rows()); got != "[(a, 30, 2) (b, 5, 1)]" {
		t.Errorf("host after a leave: %s", got)
	}
	// Images are a view's alone: a view sharing its table writes its own
	// columns of each group, the bytes a table of its own gives for the same
	// rows; a shared table takes no restore.
	if err := host.RestoreCheckpoint(minutesPerAcct(t, f).Checkpoint()); err == nil {
		t.Error("a shared table took a restore")
	}
	for _, v := range []*View{host, most, accts} {
		solo, err := New(v.Def())
		if err != nil {
			t.Fatal(err)
		}
		for _, rows := range rounds {
			solo.ApplyRows(rows)
		}
		solo.Publish()
		if got, want := v.Checkpoint(), solo.Checkpoint(); !bytes.Equal(got, want) {
			t.Errorf("%s's image from the shared table differs from its own table's:\n got %x\nwant %x", v.Name(), got, want)
		}
	}
}

// fmtRows renders rows in key order.
func fmtRows(rows []value.Tuple) string {
	parts := make([]string, len(rows))
	for i, r := range rows {
		parts[i] = r.String()
	}
	return "[" + strings.Join(parts, " ") + "]"
}
