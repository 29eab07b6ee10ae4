//go:build viewdebug

package view

import (
	"fmt"
	"testing"

	"chronicledb/internal/value"
)

// TestHashStoreCounts pins what a row costs a hash view, in the store's own
// units, at the benchmark's 20 000 groups: one key hash per row — none for
// table growth, none at publish — and at most 1.01 key comparisons (entry
// dereferences) per table probe, hit or miss, writer or reader. Run with
// -tags viewdebug (make bench-maint does).
func TestHashStoreCounts(t *testing.T) {
	const groups, perCall = 20000, 1000
	f := newFixture(t)
	v := minutesPerAcct(t, f, StoreHash)
	accts := make([]string, groups)
	for i := range accts {
		accts[i] = fmt.Sprintf("acct%05d", i)
	}
	type snap struct{ hashes, probes, compares int64 }
	read := func() snap {
		return snap{counters.hashes.Load(), counters.probes.Load(), counters.keyCompares.Load()}
	}
	pass := func(what string, maxCompares float64, step func(lo, hi int)) {
		t.Helper()
		before := read()
		for lo := 0; lo < groups; lo += perCall {
			step(lo, lo+perCall)
		}
		after := read()
		d := snap{after.hashes - before.hashes, after.probes - before.probes, after.compares - before.compares}
		t.Logf("%s: %d rows, %d hashes, %d probes, %d key comparisons", what, groups, d.hashes, d.probes, d.compares)
		if d.hashes != groups || d.probes != groups {
			t.Errorf("%s: %d hashes and %d probes for %d rows, want one of each per row", what, d.hashes, d.probes, groups)
		}
		if float64(d.compares) > maxCompares*float64(d.probes) {
			t.Errorf("%s: %d key comparisons over %d probes, want at most %.2f a probe", what, d.compares, d.probes, maxCompares)
		}
	}
	lsn := uint64(0)
	fold := func(lo, hi int) {
		lsn++
		v.ApplyRows(sevenRows(lsn, accts[lo:hi]...))
		v.Publish()
	}
	// New groups: every probe misses, the table doubles eleven times.
	pass("load", 0.01, fold)
	if slots := len(v.store.(*hashStore).tab.Load().slots); slots != 32768 {
		t.Fatalf("table has %d slots after the load, want 32768", slots)
	}
	// Existing groups: every probe hits, every publish installs over a
	// published version.
	pass("touch", 1.01, fold)
	pass("lookup", 1.01, func(lo, hi int) {
		for _, a := range accts[lo:hi] {
			if _, ok := v.Lookup(value.Tuple{value.Str(a)}); !ok {
				t.Fatalf("%s missing", a)
			}
		}
	})
}
