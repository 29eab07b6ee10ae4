package view

import (
	"fmt"
	"testing"

	"chronicledb/internal/value"
)

// TestHashStoreCounts pins what a row costs a hash view, in the store's own
// units, at the benchmark's 20 000 groups: one key hash and one table probe
// per row — none for table growth, none at publish — and at most 1.01 key
// comparisons (entry dereferences) per probe, hit or miss. Readers are not
// counted (the counts are the writer's), so the lookup pass sums the
// comparisons the table's probe reports to each reader.
func TestHashStoreCounts(t *testing.T) {
	const groups, perCall = 20000, 1000
	f := newFixture(t)
	v := minutesPerAcct(t, f, StoreHash)
	h := v.store.(*hashStore)
	accts := make([]string, groups)
	for i := range accts {
		accts[i] = fmt.Sprintf("acct%05d", i)
	}
	lsn := uint64(0)
	// load: new groups, every probe misses and the table doubles eleven
	// times; touch: existing groups, every probe hits and every publish
	// installs over a published version.
	for _, pass := range []struct {
		name        string
		maxCompares float64
	}{{"load", 0.01}, {"touch", 1.01}} {
		before := v.Stats()
		for lo := 0; lo < groups; lo += perCall {
			lsn++
			v.ApplyRows(sevenRows(lsn, accts[lo:lo+perCall]...))
			v.Publish()
		}
		st := v.Stats()
		hashes, probes, compares := st.Hashes-before.Hashes, st.Probes-before.Probes, st.KeyCompares-before.KeyCompares
		t.Logf("%s: %d rows, %d hashes, %d probes, %d key comparisons", pass.name, groups, hashes, probes, compares)
		if hashes != groups || probes != groups || float64(compares) > pass.maxCompares*groups {
			t.Errorf("%s: want one hash and one probe a row, at most %.2f key comparisons a probe", pass.name, pass.maxCompares)
		}
	}
	if slots := len(h.tab.Load().slots); slots != 32768 {
		t.Fatalf("table has %d slots for %d groups, want 32768", slots, groups)
	}
	compares := 0
	for _, a := range accts {
		key := keyOf(value.Str(a))
		e, n := h.tab.Load().probe(tagOf(key), key)
		if e == nil {
			t.Fatalf("%s missing", a)
		}
		compares += n
	}
	if float64(compares) > 1.01*groups {
		t.Errorf("lookup: %d key comparisons over %d probes, want at most 1.01 a probe", compares, groups)
	}
}
