package view

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"chronicledb/internal/chronicle"
	"chronicledb/internal/value"
)

// lockedChain is a chainSim that readers' block faults and the writer's
// checkpoints may use at once.
type lockedChain struct {
	mu  sync.Mutex
	sim *chainSim
	n   int
}

func (c *lockedChain) fetch(ref BlockRef) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sim.fetch(ref)
}

// cut checkpoints v's blocks into a new chain file and commits them, the
// first cut in full.
func (c *lockedChain) cut(t *testing.T, v *View) {
	img, pend, _, _, err := v.CheckpointBlocked(c.n == 0)
	if err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	c.n++
	file := fmt.Sprintf("ck%04d", c.n)
	c.sim.files[file] = img
	c.mu.Unlock()
	v.CommitBlockRefs(file, 0, pend)
}

// TestTreeRecyclingUnderReaders races lock-free readers of an ordered view
// against a writer whose every publication recycles the tree nodes and entry
// versions the last call replaced, once no reader is counted. Call c carries
// LSN c, inserts newPerCall keys and re-touches oldPerCall older ones, so a
// reader can tell from the LSN a read returns exactly what it must hold:
// lookups, whole scans and latest-N reads each check their rows against it,
// and a whole-image Checkpoint taken mid-run must restore to one
// publication's state. The paged cases run under a two-block cache with a
// blocked checkpoint every eight calls, so reads fault and evict blocks, and
// the writer's folds fault through the side clone, all the time. The last
// case runs the checkpoint readers alone: the other readers are counted so
// much of the time that few publications recycle, and a walk that forgets
// to count itself is only caught by one that does.
//
// Mutation-checked against publishing reclaim without the reader test, an
// uncounted paged Checkpoint walk, and a clone that inherits the live tree's
// pool (the side clone then retires nodes still in the live tree).
func TestTreeRecyclingUnderReaders(t *testing.T) {
	for _, tc := range []struct {
		name                      string
		paged, checkpointsOnly    bool
		calls, newPerCall, oldPer int
	}{
		{"plain", false, false, 200, 64, 16},
		{"paged", true, false, 96, 32, 16},
		{"paged checkpoints", true, true, 96, 32, 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			newPer, oldPer := tc.newPerCall, tc.oldPer
			key := func(i int) string { return fmt.Sprintf("k%06d", i) }
			f := newFixture(t)
			v := minutesPerAcct(t, f, StoreBTree)
			chain := &lockedChain{sim: newChainSim()}
			var cache *Cache
			if tc.paged {
				cache = NewCache(2 * 256)
				v.EnablePaging(256, chain.fetch, cache)
			}
			// whole checks one publication's rows, read at lsn: groups and
			// folded rows both follow from it.
			whole := func(what string, lsn uint64, groups, folded int64) error {
				if groups != int64(lsn)*int64(newPer) || folded != int64(lsn)*int64(newPer+oldPer) {
					return fmt.Errorf("%s at LSN %d holds %d groups, %d rows; that publication has %d, %d",
						what, lsn, groups, folded, int64(lsn)*int64(newPer), int64(lsn)*int64(newPer+oldPer))
				}
				return nil
			}
			restored := make([]*View, 2)
			for i := range restored {
				restored[i] = minutesPerAcct(t, newFixture(t), StoreBTree)
			}

			var published atomic.Int64
			stop := make(chan struct{})
			errs := make(chan error, 8)
			var wg sync.WaitGroup
			reader := func(r int, step func(rng *rand.Rand, p int64) error) {
				if tc.checkpointsOnly && r < 4 {
					return
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(r)))
					for {
						select {
						case <-stop:
							return
						default:
						}
						p := published.Load()
						if p == 0 {
							runtime.Gosched()
							continue
						}
						if err := step(rng, p); err != nil {
							errs <- err
							return
						}
						runtime.Gosched()
					}
				}()
			}
			// Lookups: a published key is there and whole; a key of the call
			// in flight is there whole or not at all.
			reader(1, func(rng *rand.Rand, p int64) error {
				k := key(rng.Intn(int(p) * newPer))
				row, ok := v.Lookup(value.Tuple{value.Str(k)})
				switch {
				case !ok:
					return fmt.Errorf("published key %s missed (%d calls published)", k, p)
				case row[0].AsString() != k:
					return fmt.Errorf("lookup of %s returned %s", k, row[0].AsString())
				case row[1].AsInt() != 7*row[2].AsInt() || row[2].AsInt() == 0:
					return fmt.Errorf("torn entry %v", row)
				}
				k = key(int(p)*newPer + rng.Intn(newPer))
				if row, ok := v.Lookup(value.Tuple{value.Str(k)}); ok && (row[0].AsString() != k || row[1].AsInt() != 7*row[2].AsInt()) {
					return fmt.Errorf("half-built entry for %s: %v", k, row)
				}
				return nil
			})
			// Latest-N: the newest keys of one publication, newest first.
			reader(2, func(rng *rand.Rand, p int64) error {
				const n = 20
				var got []string
				lsn := v.Scan(Window{Desc: true, Limit: n}, func(row value.Tuple) bool {
					if row[1].AsInt() != 7*row[2].AsInt() {
						got = append(got, "torn")
					}
					got = append(got, row[0].AsString())
					return true
				})
				if int64(lsn) < p {
					return fmt.Errorf("latest-%d at LSN %d after call %d was published", n, lsn, p)
				}
				top := int(lsn) * newPer
				for i, k := range got {
					if want := key(top - 1 - i); k != want {
						return fmt.Errorf("latest-%d at LSN %d: row %d is %s, want %s (%v)", n, lsn, i, k, want, got)
					}
				}
				if len(got) != min(n, top) {
					return fmt.Errorf("latest-%d at LSN %d returned %d rows", n, lsn, len(got))
				}
				return nil
			})
			// Whole scans, in order.
			reader(3, func(rng *rand.Rand, p int64) error {
				var groups, folded int64
				var prev string
				torn := false
				lsn := v.Scan(Window{}, func(row value.Tuple) bool {
					k := row[0].AsString()
					torn = torn || row[1].AsInt() != 7*row[2].AsInt() || k <= prev
					prev = k
					groups++
					folded += row[2].AsInt()
					return true
				})
				if torn {
					return fmt.Errorf("scan at LSN %d met a torn or misordered row", lsn)
				}
				if int64(lsn) < p {
					return fmt.Errorf("scan at LSN %d after call %d was published", lsn, p)
				}
				return whole("scan", lsn, groups, folded)
			})
			// Whole-image checkpoints, restored: one publication's state.
			for i, into := range restored {
				into := into
				reader(4+i, func(rng *rand.Rand, p int64) error {
					img := v.Checkpoint()
					if err := into.RestoreCheckpoint(img); err != nil {
						return fmt.Errorf("checkpoint taken after call %d does not restore: %v", p, err)
					}
					var groups, folded int64
					torn := false
					into.Scan(Window{}, func(row value.Tuple) bool {
						torn = torn || row[1].AsInt() != 7*row[2].AsInt()
						groups++
						folded += row[2].AsInt()
						return true
					})
					lsn := groups / int64(newPer)
					if torn || lsn < p {
						return fmt.Errorf("checkpoint taken after call %d restores %d groups (torn: %v)", p, groups, torn)
					}
					return whole("checkpoint", uint64(lsn), groups, folded)
				})
			}

			rng := rand.New(rand.NewSource(99))
			accts := make([]string, 0, newPer+oldPer)
			for c := 1; c <= tc.calls; c++ {
				accts = accts[:0]
				for j := 0; j < newPer; j++ {
					accts = append(accts, key((c-1)*newPer+j))
				}
				for j := 0; j < oldPer; j++ {
					accts = append(accts, key(rng.Intn(max(c-1, 1)*newPer)))
				}
				v.ApplyRows(sevenRows(uint64(c), accts...))
				v.Publish()
				published.Store(int64(c))
				if tc.paged && c%8 == 0 {
					chain.cut(t, v)
					cache.Maintain()
				}
			}
			close(stop)
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			if held, bound := v.store.(*treeStore).t.Pool(); bound == 0 || held > bound {
				t.Errorf("the live tree's pool holds %d nodes, bound %d: nothing was recycled, or too much", held, bound)
			}
			var groups, folded int64
			lsn := v.Scan(Window{}, func(row value.Tuple) bool { groups++; folded += row[2].AsInt(); return true })
			if err := whole("final scan", lsn, groups, folded); err != nil || lsn != uint64(tc.calls) {
				t.Fatalf("final scan at LSN %d: %v", lsn, err)
			}
			if tc.paged && cache.Evictions() == 0 {
				t.Fatal("nothing was evicted: the paged case never faulted")
			}
		})
	}
}

// TestTreePoolBoundedUnderPermanentReader: under a reader that never leaves,
// an ordered view recycles nothing, and what it keeps for reuse stays within
// the high-water mark it had reached before the reader came: tree nodes and
// free shells within the most one publication retired, limbo within the
// carved shells of the keys touched. The first publication after the reader
// leaves recycles again, and warm calls allocate only the snapshot.
func TestTreePoolBoundedUnderPermanentReader(t *testing.T) {
	const groups, callK, sets = 4000, 64, 4
	f := newFixture(t)
	v := minutesPerAcct(t, f, StoreBTree)
	tree := v.store.(*treeStore).t
	key := func(i int) string { return fmt.Sprintf("k%06d", i) }
	all := make([]string, groups)
	for i := range all {
		all[i] = key(i)
	}
	v.ApplyRows(sevenRows(1, all...))
	v.Publish()
	// sets fixed calls of callK keys each, strided across the tree; every
	// round is one of them, so rounds retire the same nodes over and over.
	calls := make([][]string, sets)
	for s := range calls {
		for j := 0; j < callK; j++ {
			calls[s] = append(calls[s], key((s*callK+j)*61%groups))
		}
	}
	rows := make([][]chronicle.Row, sets)
	for s := range rows {
		rows[s] = sevenRows(0, calls[s]...)
	}
	lsn := uint64(1)
	round := func() {
		lsn++
		call := rows[lsn%sets]
		for i := range call {
			call[i].SN, call[i].LSN = int64(lsn), lsn
		}
		v.ApplyRows(call)
		v.Publish()
	}
	for i := 0; i < 4*sets; i++ {
		round()
	}
	_, bound := tree.Pool()
	most := v.shells.most
	if bound == 0 || most != callK {
		t.Fatalf("after the warm rounds the tree's bound is %d and the shells' %d; want > 0 and %d", bound, most, callK)
	}

	v.readers.Add(1) // a scan that never returns
	for i := 0; i < 10000; i++ {
		round()
		held, b := tree.Pool()
		sh := &v.shells
		switch {
		case b != bound || held > bound:
			t.Fatalf("round %d under a reader: the tree holds %d nodes, bound %d; want at most %d, bound unchanged", i, held, b, bound)
		case len(sh.free) > most || len(sh.limbo) > sets*callK || len(sh.retired) != 0:
			t.Fatalf("round %d under a reader: %d free shells (bound %d), %d in limbo (keys touched %d), %d retired",
				i, len(sh.free), most, len(sh.limbo), sets*callK, len(sh.retired))
		}
	}
	v.readers.Add(-1)
	round()
	if held, _ := tree.Pool(); held == 0 || len(v.shells.limbo) != 0 {
		t.Fatalf("after the reader left: %d nodes held, %d shells in limbo; want some, none", held, len(v.shells.limbo))
	}
	for i := 0; i < sets; i++ {
		round() // every set's nodes recycled once more
	}
	// A warm call allocates the published tree's header and the snapshot,
	// nothing per row.
	if n := testing.AllocsPerRun(50, round); n > 2 {
		t.Fatalf("a warm call allocates %.0f objects after the reader left, want at most 2", n)
	}
	for _, k := range all[:50] {
		if row, ok := v.Lookup(value.Tuple{value.Str(k)}); !ok || row[1].AsInt() != 7*row[2].AsInt() {
			t.Fatalf("%s: %v %v", k, row, ok)
		}
	}
}
