package chronicle

import (
	"testing"
	"testing/quick"

	"chronicledb/internal/value"
)

func callSchema() *value.Schema {
	return value.NewSchema(
		value.Column{Name: "acct", Kind: value.KindString},
		value.Column{Name: "minutes", Kind: value.KindInt},
	)
}

func row(acct string, minutes int64) value.Tuple {
	return value.Tuple{value.Str(acct), value.Int(minutes)}
}

func TestNewChronicleValidation(t *testing.T) {
	g := NewGroup("g")
	if _, err := g.NewChronicle("c", nil, RetainAll); err == nil {
		t.Error("nil schema accepted")
	}
	if _, err := g.NewChronicle("c", callSchema(), Retention(-5)); err == nil {
		t.Error("invalid retention accepted")
	}
	if _, err := g.NewChronicle("c", callSchema(), RetainAll); err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := g.NewChronicle("c", callSchema(), RetainAll); err == nil {
		t.Error("duplicate name accepted")
	}
	if len(g.Members()) != 1 || g.Members()[0].Name() != "c" {
		t.Errorf("Members = %v", g.Members())
	}
}

func TestAppendBasics(t *testing.T) {
	g := NewGroup("g")
	c, _ := g.NewChronicle("calls", callSchema(), RetainAll)
	if c.LastSN() != -1 || g.LastSN() != -1 || g.NextSN() != 0 {
		t.Fatal("fresh chronicle should have no sequence numbers")
	}
	rows, err := c.Append(0, 1000, 1, []value.Tuple{row("a", 10)})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].SN != 0 || rows[0].Chronon != 1000 || rows[0].LSN != 1 {
		t.Errorf("rows = %+v", rows)
	}
	if c.Len() != 1 || c.Total() != 1 || c.LastSN() != 0 {
		t.Errorf("Len=%d Total=%d LastSN=%d", c.Len(), c.Total(), c.LastSN())
	}
	// Multiple tuples may share one SN within a single insert.
	if _, err := c.Append(5, 2000, 2, []value.Tuple{row("a", 1), row("b", 2)}); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 3 || c.LastSN() != 5 || g.NextSN() != 6 {
		t.Errorf("after batch: Len=%d LastSN=%d", c.Len(), c.LastSN())
	}
}

func TestAppendRejectsStaleAndBadTuples(t *testing.T) {
	g := NewGroup("g")
	c, _ := g.NewChronicle("calls", callSchema(), RetainAll)
	if _, err := c.Append(3, 0, 1, []value.Tuple{row("a", 1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Append(3, 0, 2, []value.Tuple{row("b", 1)}); err == nil {
		t.Error("equal SN accepted")
	}
	if _, err := c.Append(2, 0, 2, []value.Tuple{row("b", 1)}); err == nil {
		t.Error("smaller SN accepted")
	}
	if _, err := c.Append(9, 0, 2, nil); err == nil {
		t.Error("empty append accepted")
	}
	if _, err := c.Append(9, 0, 2, []value.Tuple{{value.Int(1)}}); err == nil {
		t.Error("schema-violating tuple accepted")
	}
	// A failed append must not advance the group's high-water mark.
	if g.LastSN() != 3 {
		t.Errorf("LastSN = %d after failed appends", g.LastSN())
	}
}

func TestGroupDiscipline(t *testing.T) {
	g := NewGroup("g")
	a, _ := g.NewChronicle("a", callSchema(), RetainAll)
	b, _ := g.NewChronicle("b", callSchema(), RetainAll)
	if _, err := a.Append(0, 0, 1, []value.Tuple{row("x", 1)}); err != nil {
		t.Fatal(err)
	}
	// b's first insert must still exceed the *group* maximum.
	if _, err := b.Append(0, 0, 2, []value.Tuple{row("y", 1)}); err == nil {
		t.Error("group-stale SN accepted on sibling chronicle")
	}
	if _, err := b.Append(1, 0, 2, []value.Tuple{row("y", 1)}); err != nil {
		t.Fatal(err)
	}
	if g.LastSN() != 1 {
		t.Errorf("group LastSN = %d", g.LastSN())
	}
	if _, err := a.Append(2, 0, 3, []value.Tuple{row("z", 1)}); err != nil {
		t.Fatal(err)
	}
}

func TestGroupDisciplineQuick(t *testing.T) {
	// Whatever interleaving of appends across two chronicles of a group,
	// accepted SNs are strictly increasing group-wide.
	f := func(sns []int16, pick []bool) bool {
		g := NewGroup("g")
		a, _ := g.NewChronicle("a", callSchema(), RetainAll)
		b, _ := g.NewChronicle("b", callSchema(), RetainAll)
		last := int64(-1)
		for i, sn := range sns {
			c := a
			if i < len(pick) && pick[i] {
				c = b
			}
			_, err := c.Append(int64(sn), 0, uint64(i), []value.Tuple{row("k", 1)})
			if err == nil {
				if int64(sn) <= last {
					return false // accepted a non-increasing SN
				}
				last = int64(sn)
			} else if int64(sn) > last {
				return false // rejected a valid SN
			}
			if g.LastSN() != last {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRetentionWindow(t *testing.T) {
	g := NewGroup("g")
	c, _ := g.NewChronicle("c", callSchema(), Retention(3))
	for i := 0; i < 10; i++ {
		if _, err := c.Append(int64(i), 0, uint64(i), []value.Tuple{row("a", int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 3 {
		t.Errorf("Len = %d, want 3", c.Len())
	}
	if c.Total() != 10 || c.Dropped() != 7 {
		t.Errorf("Total=%d Dropped=%d", c.Total(), c.Dropped())
	}
	var sns []int64
	c.Scan(func(r Row) bool { sns = append(sns, r.SN); return true })
	if len(sns) != 3 || sns[0] != 7 || sns[2] != 9 {
		t.Errorf("retained SNs = %v, want [7 8 9]", sns)
	}
}

func TestRetainNone(t *testing.T) {
	g := NewGroup("g")
	c, _ := g.NewChronicle("c", callSchema(), RetainNone)
	rows, err := c.Append(0, 0, 1, []value.Tuple{row("a", 1), row("b", 2)})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Errorf("Append must still return rows for view maintenance, got %d", len(rows))
	}
	if c.Len() != 0 || c.Total() != 2 || c.Dropped() != 2 {
		t.Errorf("Len=%d Total=%d Dropped=%d", c.Len(), c.Total(), c.Dropped())
	}
}

func TestScanAndEarlyStop(t *testing.T) {
	g := NewGroup("g")
	c, _ := g.NewChronicle("c", callSchema(), RetainAll)
	for i := 0; i < 100; i++ {
		c.Append(int64(i), int64(i*10), uint64(i), []value.Tuple{row("a", int64(i))})
	}
	count := 0
	c.Scan(func(Row) bool { count++; return count < 5 })
	if count != 5 {
		t.Errorf("early stop visited %d", count)
	}
}

func TestRestoreLastSN(t *testing.T) {
	g := NewGroup("g")
	g.RestoreLastSN(41)
	if g.NextSN() != 42 {
		t.Errorf("NextSN = %d", g.NextSN())
	}
	g.RestoreLastSN(10) // must not regress
	if g.LastSN() != 41 {
		t.Errorf("LastSN regressed to %d", g.LastSN())
	}
}

func TestAppendBatch(t *testing.T) {
	g := NewGroup("g")
	a, _ := g.NewChronicle("a", callSchema(), RetainAll)
	b, _ := g.NewChronicle("b", callSchema(), RetainAll)
	got := map[*Chronicle][]Row{}
	if _, err := g.AppendBatchInto(5, 77, 9, []BatchPart{
		{C: a, Tuples: []value.Tuple{row("x", 1), row("y", 2)}},
		{C: b, Tuples: []value.Tuple{row("z", 3)}},
	}, nil, got); err != nil {
		t.Fatal(err)
	}
	if len(got[a]) != 2 || len(got[b]) != 1 {
		t.Fatalf("batch rows = %v", got)
	}
	if got[a][0].SN != 5 || got[b][0].SN != 5 || got[b][0].Chronon != 77 || got[b][0].LSN != 9 {
		t.Errorf("row metadata = %+v", got[b][0])
	}
	if g.LastSN() != 5 || a.LastSN() != 5 || b.LastSN() != 5 {
		t.Error("high-water marks not advanced")
	}
}

func TestAppendBatchValidation(t *testing.T) {
	g := NewGroup("g")
	a, _ := g.NewChronicle("a", callSchema(), RetainAll)
	other := NewGroup("other")
	foreign, _ := other.NewChronicle("f", callSchema(), RetainAll)
	appendBatch := func(sn int64, lsn uint64, parts []BatchPart) error {
		_, err := g.AppendBatchInto(sn, 0, lsn, parts, nil, map[*Chronicle][]Row{})
		return err
	}

	if err := appendBatch(0, 1, nil); err == nil {
		t.Error("empty batch accepted")
	}
	if err := appendBatch(0, 1, []BatchPart{{C: foreign, Tuples: []value.Tuple{row("x", 1)}}}); err == nil {
		t.Error("foreign chronicle accepted")
	}
	if err := appendBatch(0, 1, []BatchPart{{C: a}}); err == nil {
		t.Error("empty part accepted")
	}
	if err := appendBatch(0, 1, []BatchPart{{C: a, Tuples: []value.Tuple{{value.Int(1)}}}}); err == nil {
		t.Error("schema violation accepted")
	}
	// Nothing was stored by the failed attempts.
	if a.Len() != 0 || g.LastSN() != -1 {
		t.Error("failed batch left state behind")
	}
	if err := appendBatch(3, 1, []BatchPart{{C: a, Tuples: []value.Tuple{row("x", 1)}}}); err != nil {
		t.Fatal(err)
	}
	if err := appendBatch(3, 2, []BatchPart{{C: a, Tuples: []value.Tuple{row("x", 1)}}}); err == nil {
		t.Error("stale SN accepted")
	}
}

func TestRestore(t *testing.T) {
	g := NewGroup("g")
	c, _ := g.NewChronicle("c", callSchema(), RetainAll)
	rows := []Row{
		{SN: 3, Chronon: 30, LSN: 1, Vals: row("a", 1)},
		{SN: 7, Chronon: 70, LSN: 2, Vals: row("b", 2)},
	}
	if err := c.Restore(rows, 5); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 || c.Dropped() != 5 || c.Total() != 7 {
		t.Errorf("Len=%d Dropped=%d Total=%d", c.Len(), c.Dropped(), c.Total())
	}
	if c.LastSN() != 7 || g.LastSN() != 7 {
		t.Errorf("LastSN=%d group=%d", c.LastSN(), g.LastSN())
	}
	// Appends continue past the restored high-water mark.
	if _, err := c.Append(8, 0, 3, []value.Tuple{row("c", 3)}); err != nil {
		t.Fatal(err)
	}
	// Out-of-order restores and schema violations are rejected.
	if err := c.Restore([]Row{{SN: 5, Vals: row("a", 1)}, {SN: 4, Vals: row("b", 2)}}, 0); err == nil {
		t.Error("out-of-order restore accepted")
	}
	if err := c.Restore([]Row{{SN: 9, Vals: value.Tuple{value.Int(1)}}}, 0); err == nil {
		t.Error("schema-violating restore accepted")
	}
	// Restoring an empty window is fine.
	c2, _ := g.NewChronicle("c2", callSchema(), RetainNone)
	if err := c2.Restore(nil, 42); err != nil {
		t.Fatal(err)
	}
	if c2.Dropped() != 42 {
		t.Errorf("Dropped = %d", c2.Dropped())
	}
}

func TestAccessors(t *testing.T) {
	g := NewGroup("g")
	c, _ := g.NewChronicle("c", callSchema(), Retention(7))
	if c.Name() != "c" || c.Group() != g || c.Retention() != Retention(7) {
		t.Error("accessors")
	}
	if c.Schema().Len() != 2 {
		t.Error("schema accessor")
	}
	if g.Name() != "g" {
		t.Error("group name")
	}
	if rows := c.Rows(); len(rows) != 0 {
		t.Errorf("Rows = %v", rows)
	}
}

func TestRetainSpan(t *testing.T) {
	g := NewGroup("g")
	c, _ := g.NewChronicle("c", callSchema(), RetainAll)
	if err := c.SetRetainSpan(-1); err == nil {
		t.Error("negative span accepted")
	}
	if err := c.SetRetainSpan(100); err != nil {
		t.Fatal(err)
	}
	if c.RetainSpan() != 100 {
		t.Errorf("RetainSpan = %d", c.RetainSpan())
	}
	// Chronons 0, 50, 120, 130, 250: span 100 keeps rows within 100 of the
	// newest (exclusive at exactly span distance).
	for i, ch := range []int64{0, 50, 120, 130, 250} {
		if _, err := c.Append(int64(i), ch, uint64(i+1), []value.Tuple{row("a", int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	var chronons []int64
	c.Scan(func(r Row) bool { chronons = append(chronons, r.Chronon); return true })
	// Newest = 250, horizon = 150: rows at 0, 50, 120, 130 are dropped.
	if len(chronons) != 1 || chronons[0] != 250 {
		t.Errorf("retained chronons = %v, want [250]", chronons)
	}
	if c.Dropped() != 4 || c.Total() != 5 {
		t.Errorf("Dropped=%d Total=%d", c.Dropped(), c.Total())
	}
}

func TestRetainSpanWithCountWindow(t *testing.T) {
	g := NewGroup("g")
	c, _ := g.NewChronicle("c", callSchema(), Retention(3))
	c.SetRetainSpan(1000) // generous span: the count limit dominates
	for i := 0; i < 10; i++ {
		c.Append(int64(i), int64(i), uint64(i+1), []value.Tuple{row("a", 1)})
	}
	if c.Len() != 3 {
		t.Errorf("Len = %d (count policy should dominate)", c.Len())
	}
	// Now a tight span dominates the count limit.
	c2, _ := g.NewChronicle("c2", callSchema(), Retention(100))
	c2.SetRetainSpan(2)
	for i := 10; i < 20; i++ {
		c2.Append(int64(i), int64(i*10), uint64(i+1), []value.Tuple{row("a", 1)})
	}
	if c2.Len() != 1 {
		t.Errorf("Len = %d (span policy should dominate: gaps of 10 > span 2)", c2.Len())
	}
}
