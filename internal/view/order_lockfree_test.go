package view

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

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
func (c *lockedChain) cut(t *testing.T, v *View, first bool) {
	img, pend, _, _, err := v.CheckpointBlocked(first)
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

// orderSchedule is a writer's plan the readers can check against: call c
// (LSN c) adds newPer keys, drawn at random so the order grows
// everywhere, not at its end, and re-touches older ones. rows[k] lists the
// calls that folded a row into key k, once per row.
type orderSchedule struct {
	calls [][]string // the accounts of call c, at index c-1
	keys  []string   // every key, ascending
	born  map[string]int
	rows  map[string][]int
}

func newOrderSchedule(calls, newPer, oldPer int) *orderSchedule {
	s := &orderSchedule{born: map[string]int{}, rows: map[string][]int{}}
	rng := rand.New(rand.NewSource(7))
	var all []string
	for c := 1; c <= calls; c++ {
		var accts []string
		for len(accts) < newPer {
			k := fmt.Sprintf("k%07d", rng.Intn(10_000_000))
			if _, dup := s.born[k]; !dup {
				s.born[k] = c
				accts = append(accts, k)
			}
		}
		for j := 0; j < oldPer && len(all) > 0; j++ {
			accts = append(accts, all[rng.Intn(len(all))])
		}
		all = append(all, accts[:newPer]...)
		for _, k := range accts {
			s.rows[k] = append(s.rows[k], c)
		}
		s.calls = append(s.calls, accts)
	}
	s.keys = slices.Sorted(func(yield func(string) bool) {
		for k := range s.born {
			if !yield(k) {
				return
			}
		}
	})
	return s
}

// want returns the rows of the publication at lsn whose keys lie in [lo, hi)
// ("" open), each "key:n", in the window's direction, at most limit of them.
func (s *orderSchedule) want(lsn uint64, lo, hi string, desc bool, limit int) []string {
	i := sort.SearchStrings(s.keys, lo)
	j := len(s.keys)
	if hi != "" {
		j = sort.SearchStrings(s.keys, hi)
	}
	var out []string
	for n := i; n < j; n++ {
		at := n
		if desc {
			at = j - 1 - (n - i)
		}
		k := s.keys[at]
		if s.born[k] > int(lsn) {
			continue
		}
		rows := sort.SearchInts(s.rows[k], int(lsn)+1)
		out = append(out, fmt.Sprintf("%s:%d", k, rows))
		if len(out) == limit {
			break
		}
	}
	return out
}

// TestDirOrderUnderReaders races lock-free readers of three views sharing one
// key directory against a writer that grows the directory's order with keys
// drawn at random, while the members fold and publish each call at different
// points of it: the first publishes before the others fold, the second folds,
// the third folds and publishes, then the second publishes. Readers walk
// ranges and latest-N of each member, and each walk must return the rows of
// exactly one of that member's publications — the one at the LSN it reports:
// every key born by then, in order, each with exactly the rows folded into it
// by then, and no other key, although a sibling may have ordered and
// published keys the member has not. The paged case runs every member under
// one cache of a few blocks with a blocked checkpoint every eight calls, so
// walks fault and evict blocks under the writer; the checkpoints case adds
// whole-image checkpoints of an unpaged member (a paged one checkpoints
// blocked), restored into a view of its own, which must hold one publication
// too.
//
// Mutation-checked: a walk that skips the publish-sequence check returns
// rows of two publications; the order linking a new key before its level-0
// links are written loses keys a member has published; an eviction that
// clears entries before raising nonResident (with a yield between the two to
// open the window) makes a walk miss a block's keys.
func TestDirOrderUnderReaders(t *testing.T) {
	for _, tc := range []struct {
		name                  string
		paged, checkpoints    bool
		calls, newPer, oldPer int
	}{
		{"plain", false, false, 160, 48, 16},
		{"paged", true, false, 64, 24, 8},
		{"checkpoints", false, true, 64, 24, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newOrderSchedule(tc.calls, tc.newPer, tc.oldPer)
			f := newFixture(t)
			d := NewDir("calls_by_acct", []int{0})
			vs := siblings(t, f, d, 3)
			chain := &lockedChain{sim: newChainSim()}
			var cache *Cache
			if tc.paged {
				cache = NewCache(3 * 1024)
				for _, v := range vs {
					v.EnablePaging(1024, chain.fetch, cache)
				}
			}
			published := make([]atomic.Int64, len(vs))

			// check compares a walk of member m that read rows at lsn with
			// what that publication holds.
			check := func(m int, what string, lsn uint64, p int64, got, want []string) error {
				switch {
				case int64(lsn) < p:
					return fmt.Errorf("%s: %s at LSN %d after call %d was published", vs[m].Name(), what, lsn, p)
				case !slices.Equal(got, want):
					return fmt.Errorf("%s: %s at LSN %d:\n got %v\nwant %v", vs[m].Name(), what, lsn, got, want)
				}
				return nil
			}
			walk := func(v *View, w Window) (uint64, []string) {
				var got []string
				lsn := v.Scan(w, func(row value.Tuple) bool {
					k, n := row[0].AsString(), row[2].AsInt()
					if row[1].AsInt() != 7*n {
						k += " torn"
					}
					got = append(got, fmt.Sprintf("%s:%d", k, n))
					return true
				})
				return lsn, got
			}

			stop := make(chan struct{})
			errs := make(chan error, 16)
			var wg sync.WaitGroup
			reader := func(r int, step func(rng *rand.Rand, m int, p int64) error) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(r)))
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						m := (r + i) % len(vs)
						p := published[m].Load()
						if p == 0 {
							runtime.Gosched()
							continue
						}
						if err := step(rng, m, p); err != nil {
							errs <- err
							return
						}
					}
				}()
			}
			// Ranges: a window between two keys of the schedule, either way.
			reader(1, func(rng *rand.Rand, m int, p int64) error {
				lo := s.keys[rng.Intn(len(s.keys))]
				hi := s.keys[rng.Intn(len(s.keys))]
				if lo > hi {
					lo, hi = hi, lo
				}
				desc := rng.Intn(2) == 0
				lsn, got := walk(vs[m], Window{Lo: keyOf(value.Str(lo)), Hi: keyOf(value.Str(hi)), Desc: desc})
				return check(m, fmt.Sprintf("range [%s, %s) desc=%v", lo, hi, desc), lsn, p, got, s.want(lsn, lo, hi, desc, 0))
			})
			// Latest-N and first-N: the ends of the order.
			reader(2, func(rng *rand.Rand, m int, p int64) error {
				n, desc := 1+rng.Intn(24), rng.Intn(4) != 0
				lsn, got := walk(vs[m], Window{Desc: desc, Limit: n})
				return check(m, fmt.Sprintf("limit %d desc=%v", n, desc), lsn, p, got, s.want(lsn, "", "", desc, n))
			})
			// Whole scans.
			reader(3, func(rng *rand.Rand, m int, p int64) error {
				lsn, got := walk(vs[m], Window{})
				return check(m, "scan", lsn, p, got, s.want(lsn, "", "", false, 0))
			})
			if tc.checkpoints {
				// Each member's image restores into a view of the same
				// definition over a directory of its own.
				into := make([]*View, len(vs))
				for m := range into {
					into[m] = siblings(t, newFixture(t), NewDir("restored", []int{0}), m+1)[m]
				}
				reader(4, func(rng *rand.Rand, m int, p int64) error {
					if err := into[m].RestoreCheckpoint(vs[m].Checkpoint()); err != nil {
						return fmt.Errorf("%s: checkpoint after call %d does not restore: %v", vs[m].Name(), p, err)
					}
					// The image names no LSN: find the publication it holds.
					_, got := walk(into[m], Window{})
					for lsn := uint64(p); lsn <= uint64(tc.calls); lsn++ {
						if slices.Equal(got, s.want(lsn, "", "", false, 0)) {
							return nil
						}
					}
					return fmt.Errorf("%s: checkpoint after call %d holds no single publication (%d rows)", vs[m].Name(), p, len(got))
				})
			}

			for c := 1; c <= tc.calls; c++ {
				rows := sevenRows(uint64(c), s.calls[c-1]...)
				call := uint64(c)
				vs[0].ApplyCall(call, rows)
				vs[0].Publish()
				published[0].Store(int64(c))
				vs[1].ApplyCall(call, rows)
				vs[2].ApplyCall(call, rows)
				vs[2].Publish()
				published[2].Store(int64(c))
				vs[1].Publish()
				published[1].Store(int64(c))
				if tc.paged && c%8 == 0 {
					for _, v := range vs {
						chain.cut(t, v, c == 8)
					}
					cache.Maintain()
				}
			}
			close(stop)
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			for m, v := range vs {
				lsn, got := walk(vs[m], Window{})
				if err := check(m, "final scan", lsn, int64(tc.calls), got, s.want(uint64(tc.calls), "", "", false, 0)); err != nil {
					t.Fatal(err)
				}
				if v.Len() != len(s.keys) {
					t.Fatalf("%s: Len %d, want %d", v.Name(), v.Len(), len(s.keys))
				}
			}
			if tc.paged && cache.Evictions() == 0 {
				t.Fatal("nothing was evicted: the paged case never faulted")
			}
		})
	}
}
