package view

import (
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"chronicledb/internal/aggregate"
	"chronicledb/internal/algebra"
	"chronicledb/internal/value"
)

// siblings returns n hash views folding the fixture's calls by account into
// one key directory, as the engine builds them for views over one
// expression: each a different aggregation of the same rows.
func siblings(t testing.TB, f *fixture, d *Dir, n int) []*View {
	t.Helper()
	aggs := []aggregate.Spec{
		{Func: aggregate.Sum, Col: 1, Name: "total"},
		{Func: aggregate.Count, Col: -1, Name: "n"},
		{Func: aggregate.Max, Col: 1, Name: "hi"},
		{Func: aggregate.Min, Col: 1, Name: "lo"},
		{Func: aggregate.Avg, Col: 1, Name: "mean"},
	}
	vs := make([]*View, n)
	for i := range vs {
		// The first two aggregations keep the minutes-per-account row shape
		// (total, n) every member can be checked against.
		v, err := NewIn(Def{
			Name:      fmt.Sprintf("member%d", i),
			Expr:      algebra.NewScan(f.calls),
			Mode:      SummarizeGroupBy,
			GroupCols: []int{0},
			Aggs:      append(aggs[:2:2], aggs[2+i%3]),
		}, d)
		if err != nil {
			t.Fatal(err)
		}
		d.Acquire()
		vs[i] = v
	}
	return vs
}

// TestHashStoreCounts pins what a call costs hash views sharing a key
// directory, in the directory's units, at the benchmark's 20 000 groups and
// five views: one key hash and one directory probe per delta row per call —
// not per view, none for table growth, none at publish — at most 1.01 keys
// read back per probe, hit or miss, and one entry version per distinct group
// per view, however many of the call's rows the group has. Readers are not
// counted (the counts are the writer's), so the lookup pass sums what the
// table's probe reports to each reader.
//
// Mutation-checked: a member that resolves the call's rows itself instead of
// taking the resolution the first member paid for makes five hashes a row.
func TestHashStoreCounts(t *testing.T) {
	const groups, perCall, members = 20000, 1000, 5
	f := newFixture(t)
	d := NewDir("calls_by_acct")
	vs := siblings(t, f, d, members)
	accts := make([]string, groups)
	for i := range accts {
		accts[i] = fmt.Sprintf("acct%05d", i)
	}
	lsn, call := uint64(0), uint64(0)
	// load: new groups, every probe misses and the table doubles eleven
	// times; touch: existing groups, each twice a call, so every view
	// versions a published entry and folds two rows into it.
	for _, pass := range []struct {
		name        string
		perGroup    int
		maxCompares float64
	}{{"load", 1, 0.01}, {"touch", 2, 1.01}} {
		before := d.Stats()
		var versions, touched int64
		for _, v := range vs {
			versions -= v.Stats().Versions
			touched -= v.Stats().Touched
		}
		for lo := 0; lo < groups; lo += perCall {
			lsn++
			call++
			var keys []string
			for range pass.perGroup {
				keys = append(keys, accts[lo:lo+perCall]...)
			}
			rows := sevenRows(lsn, keys...)
			for _, v := range vs {
				v.ApplyCall(call, rows)
			}
			for _, v := range vs {
				v.Publish()
			}
		}
		st := d.Stats()
		for _, v := range vs {
			versions += v.Stats().Versions
			touched += v.Stats().Touched
		}
		rows := int64(groups * pass.perGroup)
		hashes, probes, compares := st.Hashes-before.Hashes, st.Probes-before.Probes, st.KeyCompares-before.KeyCompares
		t.Logf("%s: %d rows into %d views: %d hashes, %d probes, %d keys read back; %d versions, %d entries reached",
			pass.name, rows, members, hashes, probes, compares, versions, touched)
		if hashes != rows || probes != rows || float64(compares) > pass.maxCompares*float64(rows) {
			t.Errorf("%s: want one hash and one probe a row for all %d views, at most %.2f keys read back a probe", pass.name, members, pass.maxCompares)
		}
		if versions != members*groups || touched != members*groups {
			t.Errorf("%s: want one version and one entry reached per group per view (%d)", pass.name, members*groups)
		}
	}
	if slots := len(d.tab.Load().slots); slots != 32768 {
		t.Fatalf("table has %d slots for %d groups, want 32768", slots, groups)
	}
	if d.Len() != groups || d.Members() != members {
		t.Fatalf("directory holds %d keys for %d members", d.Len(), d.Members())
	}
	compares := 0
	for _, a := range accts {
		key := keyOf(value.Str(a))
		_, _, found, n := d.tab.Load().probe(d, tagOf(key), key)
		if !found {
			t.Fatalf("%s missing", a)
		}
		compares += n
	}
	if float64(compares) > 1.01*groups {
		t.Errorf("lookup: %d keys read back over %d probes, want at most 1.01 a probe", compares, groups)
	}
	for _, v := range vs {
		row, ok := v.Lookup(value.Tuple{value.Str(accts[7])})
		if !ok || row[1].AsInt() != 21 || row[2].AsInt() != 3 {
			t.Fatalf("%s: %v %v, want 21 minutes in 3 rows", v.Name(), row, ok)
		}
	}
}

// TestDirMembersOfOtherKeys: a directory's members need not fold one delta,
// nor find their key at one position of it. Three views share d: usage
// groups calls by account, byMinutes groups the very same rows by minutes,
// and swapped groups Π[minutes, acct](calls) by its second column, the
// account. Each call folds into the three in turn, usage and byMinutes the
// same slice, as the engine's plan hands its Scan node's rows to every view
// over the bare chronicle. Each view holds exactly what its reference fold
// (Recompute) holds, and the keys usage and swapped share are held once.
//
// Mutation-checked: resolving with the first member's key columns fails
// swapped; reusing a call's resolution for a member of another table key —
// naming it by call, first row and length alone — fails byMinutes.
func TestDirMembersOfOtherKeys(t *testing.T) {
	f := newFixture(t)
	swappedExpr, err := algebra.NewProject(algebra.NewScan(f.calls), []int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	sum := []aggregate.Spec{{Func: aggregate.Sum, Col: 1, Name: "total"}, {Func: aggregate.Count, Col: -1, Name: "n"}}
	d := NewDir("calls")
	var vs []*View
	for _, def := range []Def{
		{Name: "usage", Expr: algebra.NewScan(f.calls), Mode: SummarizeGroupBy, GroupCols: []int{0}, Aggs: sum},
		{Name: "byMinutes", Expr: algebra.NewScan(f.calls), Mode: SummarizeGroupBy, GroupCols: []int{1},
			Aggs: []aggregate.Spec{{Func: aggregate.Count, Col: -1, Name: "n"}}},
		{Name: "swapped", Expr: swappedExpr, Mode: SummarizeGroupBy, GroupCols: []int{1},
			Aggs: []aggregate.Spec{{Func: aggregate.Sum, Col: 0, Name: "total"}, {Func: aggregate.Count, Col: -1, Name: "n"}}},
	} {
		v, err := NewIn(def, d)
		if err != nil {
			t.Fatal(err)
		}
		d.Acquire()
		vs = append(vs, v)
	}
	accts, minutes := map[string]bool{}, map[int64]bool{}
	for call := uint64(1); call <= 20; call++ {
		tuples := make([]value.Tuple, 30)
		for j := range tuples {
			a, m := fmt.Sprintf("acct%02d", (int(call)*7+j*3)%40), int64((int(call)+j)%9)
			tuples[j] = value.Tuple{value.Str(a), value.Int(m)}
			accts[a], minutes[m] = true, true
		}
		rows, err := f.calls.Append(f.group.NextSN(), 0, f.nextLSN(), tuples)
		if err != nil {
			t.Fatal(err)
		}
		batch := algebra.BatchDelta{f.calls: rows}
		for _, v := range vs {
			delta := rows // the Scan's rows, one slice for the views over it
			if v.Name() == "swapped" {
				delta = algebra.Delta(swappedExpr, batch)
			}
			v.ApplyCall(call, delta)
		}
		for _, v := range vs {
			v.Publish()
		}
	}
	for _, v := range vs {
		want, err := v.Recompute()
		if err != nil {
			t.Fatal(err)
		}
		if got := v.Rows(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s sharing a directory:\n%v\nits reference fold:\n%v", v.Name(), got, want)
		}
	}
	if d.Len() != len(accts)+len(minutes) {
		t.Errorf("the directory holds %d keys, want %d accounts and %d minute values", d.Len(), len(accts), len(minutes))
	}
}

// TestDirScratchShrinks: a resolution's scratch (its ids, group ends, row
// order and row groups, and the directory's id table) keeps what calls of
// one size need — a second 1 000-row call moves none of it — and a 16-row
// call after a 1 000-row one releases what the large call grew, so a
// directory does not keep the largest call it ever resolved.
func TestDirScratchShrinks(t *testing.T) {
	f := newFixture(t)
	d := NewDir("calls_by_acct")
	m := siblings(t, f, d, 1)[0]
	type buffer struct {
		array any
		cap   int
	}
	call := func(c uint64, n int) []buffer {
		accts := make([]string, n)
		for i := range accts {
			accts[i] = fmt.Sprintf("acct%04d", i)
		}
		d.mu.Lock()
		r := d.resolve(c, m, sevenRows(c, accts...))
		d.mu.Unlock()
		if len(r.ids) != n {
			t.Fatalf("call %d resolved %d ids, want %d", c, len(r.ids), n)
		}
		return []buffer{
			{unsafe.SliceData(r.ids), cap(r.ids)},
			{unsafe.SliceData(r.ends), cap(r.ends)},
			{unsafe.SliceData(r.order), cap(r.order)},
			{unsafe.SliceData(r.group), cap(r.group)},
			{unsafe.SliceData(d.groupOf), cap(d.groupOf)},
		}
	}
	grown := call(1, 1000)
	if again := call(2, 1000); !slices.Equal(again, grown) {
		t.Errorf("a second call of one size reallocated:\n first %v\nsecond %v", grown, again)
	}
	const floor = 256 // what algebra.Reuse keeps however little a call needs
	for i, b := range call(3, 16) {
		if b.cap > floor {
			t.Errorf("after a 16-row call, scratch %d keeps %d (%d after the 1 000-row call), want at most %d",
				i, b.cap, grown[i].cap, floor)
		}
	}
}
