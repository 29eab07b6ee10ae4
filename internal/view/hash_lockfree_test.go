package view

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chronicledb/internal/chronicle"
	"chronicledb/internal/value"
)

// TestHashReadsDoNotAcquireViewLock is the lock-freedom guard for hash
// view readers: it holds v.mu exclusively — as maintenance does — and
// requires Lookup, Len, Scan, ScanDesc, ScanRange, and ScanRangeDesc to
// complete anyway. Before PR 8 these took v.mu.RLock and would deadlock
// here; now they read the atomically published table.
func TestHashReadsDoNotAcquireViewLock(t *testing.T) {
	f := newFixture(t)
	v := minutesPerAcct(t, f, StoreHash)
	v.Apply(f.appendCall(t, "acct1", 10))
	v.Apply(f.appendCall(t, "acct2", 20))

	v.mu.Lock()
	defer v.mu.Unlock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if row, ok := v.Lookup(value.Tuple{value.Str("acct1")}); !ok || row[1].AsInt() != 10 {
			t.Errorf("Lookup = %v, %v", row, ok)
		}
		if n := v.Len(); n != 2 {
			t.Errorf("Len = %d, want 2", n)
		}
		rows := 0
		v.Scan(Window{}, func(value.Tuple) bool { rows++; return true })
		if rows != 2 {
			t.Errorf("Scan visited %d rows, want 2", rows)
		}
		rows = 0
		v.Scan(Window{Desc: true}, func(value.Tuple) bool { rows++; return true })
		if rows != 2 {
			t.Errorf("ScanDesc visited %d rows, want 2", rows)
		}
		rows = 0
		v.Scan(Window{Hi: keyOf(value.Str("zzz"))}, func(value.Tuple) bool { rows++; return true })
		if rows != 2 {
			t.Errorf("ScanRange visited %d rows, want 2", rows)
		}
		rows = 0
		v.Scan(Window{Hi: keyOf(value.Str("zzz")), Desc: true}, func(value.Tuple) bool { rows++; return true })
		if rows != 2 {
			t.Errorf("ScanRangeDesc visited %d rows, want 2", rows)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a hash view read blocked on v.mu — the lock-free hash read path regressed")
	}
}

// TestHashConcurrentReadersSeeConsistentEntries hammers a hash view with
// concurrent lock-free readers while maintenance keeps publishing. Every
// entry a reader observes must be internally consistent: SUM(minutes) and
// COUNT(*) move in lockstep (each append adds exactly 7 minutes), so a
// torn read — possible if maintenance mutated a published entry in place
// or recycled one under a live reader — shows up as total != 7*n. Run
// under -race this also checks the publication ordering itself.
func TestHashConcurrentReadersSeeConsistentEntries(t *testing.T) {
	f := newFixture(t)
	v := minutesPerAcct(t, f, StoreHash)
	accts := []string{"a", "b", "c", "d"}
	for _, a := range accts {
		v.Apply(f.appendCall(t, a, 7))
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				acct := accts[(i+r)%len(accts)]
				if row, ok := v.Lookup(value.Tuple{value.Str(acct)}); ok {
					if total, n := row[1].AsInt(), row[2].AsInt(); total != 7*n {
						t.Errorf("torn read: acct %s total=%d n=%d", acct, total, n)
						return
					}
				}
				v.Scan(Window{}, func(row value.Tuple) bool {
					if total, n := row[1].AsInt(), row[2].AsInt(); total != 7*n {
						t.Errorf("torn scan row: %v", row)
						return false
					}
					return true
				})
			}
		}(r)
	}
	for i := 0; i < 2000; i++ {
		v.Apply(f.appendCall(t, accts[i%len(accts)], 7))
	}
	close(stop)
	wg.Wait()

	for _, a := range accts {
		row, ok := v.Lookup(value.Tuple{value.Str(a)})
		if !ok || row[1].AsInt() != 7*row[2].AsInt() {
			t.Fatalf("final state inconsistent for %s: %v %v", a, row, ok)
		}
	}
}

// sevenRows returns one append call's delta: a row of 7 minutes for each
// account, all stamped lsn.
func sevenRows(lsn uint64, accts ...string) []chronicle.Row {
	rows := make([]chronicle.Row, len(accts))
	for i, a := range accts {
		rows[i] = chronicle.Row{SN: int64(lsn), LSN: lsn, Vals: value.Tuple{value.Str(a), value.Int(7)}}
	}
	return rows
}

// TestHashLockFreeThroughGrowth races lock-free readers against a writer
// that takes the table through eleven doublings (16 → 32 768 slots) while it
// keeps re-touching old keys, so every mechanism of the store is live at
// once: tagged slots, pending versions, growth by sweep, shell recycling.
// Call c carries LSN c, inserts newPerCall keys and re-touches oldPerCall, so
// a reader can tell from a scan's LSN exactly what the scan must hold.
//
// Mutation-checked. With publish recycling retired shells while a reader is
// counted, "lookup of X returned Y" and "torn or half-built" both fire, and
// -race reports the write in shells.version against the read in rowOf. With
// install storing the tag before the pointer, the lookup of an in-flight key
// dereferences a nil slot in htab.probe. The two stores are a few cycles
// apart, so the test widens the window: installHook yields the processor
// between them at every 256th install (without it, twenty runs never met the
// window; at every install the test took 18 s under -race).
func TestHashLockFreeThroughGrowth(t *testing.T) {
	const (
		calls      = 260
		newPerCall = 64
		oldPerCall = 16
	)
	f := newFixture(t)
	v := minutesPerAcct(t, f, StoreHash)
	key := func(i int) string { return fmt.Sprintf("k%06d", i) }
	installs := 0 // the writer is this goroutine: no reader runs the hook
	installHook = func() {
		if installs++; installs%256 == 0 {
			runtime.Gosched()
		}
	}
	t.Cleanup(func() { installHook = nil })

	var published atomic.Int64 // calls whose Publish has returned
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				p := published.Load()
				if p == 0 {
					continue
				}
				// A key published in an earlier call is never missed, and
				// what comes back is that key's row, whole.
				k := key(rng.Intn(int(p) * newPerCall))
				row, ok := v.Lookup(value.Tuple{value.Str(k)})
				switch {
				case !ok:
					t.Errorf("published key %s missed (%d calls published)", k, p)
					return
				case row[0].AsString() != k:
					t.Errorf("lookup of %s returned %s", k, row[0].AsString())
					return
				case row[1].AsInt() != 7*row[2].AsInt() || row[2].AsInt() == 0:
					t.Errorf("torn or half-built entry %v", row)
					return
				}
				// A key of the call in flight is there or not yet, but never
				// half-installed: its tag visible means its entry is too.
				k = key(int(p)*newPerCall + rng.Intn(newPerCall))
				if row, ok := v.Lookup(value.Tuple{value.Str(k)}); ok && (row[0].AsString() != k || row[1].AsInt() != 7*row[2].AsInt()) {
					t.Errorf("half-built entry for %s: %v", k, row)
					return
				}
				if i%32 != 0 {
					continue
				}
				var groups, folded int64
				lsn := v.Scan(Window{}, func(row value.Tuple) bool {
					if row[1].AsInt() != 7*row[2].AsInt() {
						t.Errorf("torn scan row %v", row)
					}
					groups++
					folded += row[2].AsInt()
					return true
				})
				if int64(lsn) < p {
					t.Errorf("scan at LSN %d after call %d was published", lsn, p)
					return
				}
				if groups != int64(lsn)*newPerCall || folded != int64(lsn)*(newPerCall+oldPerCall) {
					t.Errorf("scan at LSN %d holds %d groups, %d rows; that publication has %d, %d",
						lsn, groups, folded, int64(lsn)*newPerCall, int64(lsn)*(newPerCall+oldPerCall))
					return
				}
			}
		}(r)
	}

	rng := rand.New(rand.NewSource(99))
	accts := make([]string, 0, newPerCall+oldPerCall)
	for c := 1; c <= calls; c++ {
		accts = accts[:0]
		for j := 0; j < newPerCall; j++ {
			accts = append(accts, key((c-1)*newPerCall+j))
		}
		for j := 0; j < oldPerCall; j++ {
			// The first call has no older keys: it re-touches its own.
			accts = append(accts, key(rng.Intn(max(c-1, 1)*newPerCall)))
		}
		v.ApplyRows(sevenRows(uint64(c), accts...))
		v.Publish()
		published.Store(int64(c))
	}
	close(stop)
	wg.Wait()

	h := v.store.(*hashStore)
	if slots := len(h.tab.Load().slots); slots < 16<<10 {
		t.Fatalf("table ended at %d slots: fewer than ten doublings", slots)
	}
	if v.Len() != calls*newPerCall {
		t.Fatalf("Len = %d, want %d", v.Len(), calls*newPerCall)
	}
}

// TestHashShellsBoundedUnderPermanentReader: a reader that never leaves
// must cost the collector work, not the store memory. Carved shells retired
// under it wait in limbo — one per key at most, however many rounds touch
// the key — later versions go to the collector, and the first publish after
// the reader leaves recycles everything that waited.
func TestHashShellsBoundedUnderPermanentReader(t *testing.T) {
	f := newFixture(t)
	v := minutesPerAcct(t, f, StoreHash)
	sh := &v.shells
	keys := []string{"a", "b", "c", "d"}
	v.ApplyRows(sevenRows(1, keys...))
	v.Publish()

	v.readers.Add(1) // a scan that never returns
	for round := uint64(2); round < 10002; round++ {
		v.ApplyRows(sevenRows(round, "a"))
		v.Publish()
		if len(sh.limbo) != 1 || len(sh.free) != 0 {
			t.Fatalf("round %d under a reader: %d shells in limbo, %d free; want 1, 0", round, len(sh.limbo), len(sh.free))
		}
	}
	// Touching every key strands every carved shell once — the bound is the
	// keys touched, not the rounds.
	for round := uint64(10002); round < 10012; round++ {
		v.ApplyRows(sevenRows(round, keys...))
		v.Publish()
	}
	if len(sh.limbo) != len(keys) || len(sh.free) != 0 {
		t.Fatalf("after touching %d keys under a reader: %d in limbo, %d free", len(keys), len(sh.limbo), len(sh.free))
	}
	waiting := append([]*entry(nil), sh.limbo...)

	v.readers.Add(-1)
	v.ApplyRows(sevenRows(10012, "a"))
	v.Publish()
	if len(sh.limbo) != 0 {
		t.Fatalf("%d shells still in limbo after a reader-free publish", len(sh.limbo))
	}
	for _, s := range waiting {
		if !slices.Contains(sh.free, s) {
			t.Fatal("a shell that waited in limbo was not recycled")
		}
	}
	// Recycled, they serve: the warm path allocates nothing again.
	rows := sevenRows(10013, keys...)
	if n := testing.AllocsPerRun(50, func() { v.ApplyRows(rows); v.Publish() }); n != 0 {
		t.Fatalf("a warm call allocates %.0f objects after the reader left", n)
	}
	for _, k := range keys {
		if row, ok := v.Lookup(value.Tuple{value.Str(k)}); !ok || row[1].AsInt() != 7*row[2].AsInt() {
			t.Fatalf("%s: %v %v", k, row, ok)
		}
	}
}
