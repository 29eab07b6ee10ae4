package view

import (
	"fmt"
	"math/rand"
	"testing"

	"chronicledb/internal/algebra"
	"chronicledb/internal/keyenc"
	"chronicledb/internal/value"
)

// acctName spreads test groups across the key space with stable width.
func acctName(i int) string { return fmt.Sprintf("acct%04d", i) }

// chainSim is an in-memory stand-in for the checkpoint chain: checkpoint
// images keyed by file name, served back through a FetchFunc.
type chainSim struct {
	files   map[string][]byte
	fetches int
}

func newChainSim() *chainSim { return &chainSim{files: map[string][]byte{}} }

func (c *chainSim) fetch(ref BlockRef) ([]byte, error) {
	data, ok := c.files[ref.File]
	if !ok {
		return nil, fmt.Errorf("no such chain file %q", ref.File)
	}
	if ref.Off < 0 || ref.Off+ref.Len > int64(len(data)) {
		return nil, fmt.Errorf("ref %s@%d+%d out of range (%d)", ref.File, ref.Off, ref.Len, len(data))
	}
	c.fetches++
	return data[ref.Off : ref.Off+ref.Len], nil
}

// checkpointTo runs a blocked checkpoint, stores the image as a chain
// file, and commits the refs — the storage layer's write/flip/commit
// sequence in miniature.
func (c *chainSim) checkpointTo(t *testing.T, v *View, file string, full bool) (dirty, total int) {
	t.Helper()
	img, pend, dirty, total, err := v.CheckpointBlocked(full)
	if err != nil {
		t.Fatal(err)
	}
	c.files[file] = img
	v.CommitBlockRefs(file, 0, pend)
	return dirty, total
}

// pagedView builds a paged minutes-per-account view with a tiny block
// size so a few hundred rows span many blocks.
func pagedView(t *testing.T, f *fixture, sim *chainSim, blockBytes int64, cache *Cache) *View {
	t.Helper()
	v := minutesPerAcct(t, f)
	v.EnablePaging(blockBytes, sim.fetch, cache)
	if !v.Paged() {
		t.Fatal("EnablePaging did not take")
	}
	return v
}

func TestPagedCheckpointDirtyTracking(t *testing.T) {
	f := newFixture(t)
	sim := newChainSim()
	v := pagedView(t, f, sim, 256, NewCache(0))
	for i := 0; i < 200; i++ {
		apply(v, f.appendCall(t, acctName(i), 5))
	}
	dirty, total := sim.checkpointTo(t, v, "ck1", true)
	if total < 4 {
		t.Fatalf("expected the 200-group view to split into several 256B blocks, got %d", total)
	}
	if dirty == 0 {
		t.Fatal("first checkpoint saw no dirty blocks")
	}
	if gotTotal, gotDirty, _ := v.BlockStats(); gotDirty != 0 || gotTotal != total {
		t.Fatalf("after commit: total=%d dirty=%d, want %d/0", gotTotal, gotDirty, total)
	}

	// Touch one group: exactly one block goes dirty.
	apply(v, f.appendCall(t, acctName(7), 5))
	if _, gotDirty, _ := v.BlockStats(); gotDirty != 1 {
		t.Fatalf("one-group write dirtied %d blocks, want 1", gotDirty)
	}
	dirty, _ = sim.checkpointTo(t, v, "ck2", false)
	if dirty != 1 {
		t.Fatalf("incremental checkpoint re-encoded %d blocks, want 1", dirty)
	}

	// All state intact.
	for i := 0; i < 200; i++ {
		want := int64(5)
		if i == 7 {
			want = 10
		}
		row, ok := v.Lookup(value.Tuple{value.Str(acctName(i))})
		if !ok || row[1].AsInt() != want {
			t.Fatalf("acct %d: %v %v, want total %d", i, row, ok, want)
		}
	}
}

func TestPagedEvictAndFault(t *testing.T) {
	f := newFixture(t)
	sim := newChainSim()
	cache := NewCache(2 << 10) // far smaller than the view's ~200 groups
	v := pagedView(t, f, sim, 256, cache)
	const groups = 300
	for i := 0; i < groups; i++ {
		apply(v, f.appendCall(t, acctName(i), int64(i%9+1)))
	}
	sim.checkpointTo(t, v, "ck1", true)
	cache.maintain()

	if cache.UsedBytes() > cache.Budget() {
		t.Fatalf("resident bytes %d exceed budget %d after maintain", cache.UsedBytes(), cache.Budget())
	}
	if cache.Evictions() == 0 {
		t.Fatal("no evictions despite budget pressure")
	}
	total, _, resident := v.BlockStats()
	if resident >= total {
		t.Fatalf("no block went cold: %d/%d resident", resident, total)
	}
	if v.Len() != groups {
		t.Fatalf("Len = %d after eviction, want %d (logical count must include cold blocks)", v.Len(), groups)
	}

	// Every key still readable — cold blocks fault back in.
	misses0 := cache.Misses()
	for i := 0; i < groups; i++ {
		row, ok := v.Lookup(value.Tuple{value.Str(acctName(i))})
		if !ok || row[1].AsInt() != int64(i%9+1) {
			t.Fatalf("acct %d after eviction: %v %v", i, row, ok)
		}
	}
	if cache.Misses() == misses0 {
		t.Fatal("no block faults while reading evicted keys")
	}
	if cache.UsedBytes() > cache.Budget() {
		t.Fatalf("resident bytes %d exceed budget %d after fault storm", cache.UsedBytes(), cache.Budget())
	}

	// A full scan sees every row exactly once (transient materialization
	// through the COW snapshot).
	seen := 0
	v.Scan(Window{}, func(value.Tuple) bool { seen++; return true })
	if seen != groups {
		t.Fatalf("Scan visited %d rows, want %d", seen, groups)
	}

	// Writes to evicted keys fault the block in and stay correct.
	apply(v, f.appendCall(t, acctName(0), 100))
	row, ok := v.Lookup(value.Tuple{value.Str(acctName(0))})
	if !ok || row[1].AsInt() != int64(0%9+1)+100 {
		t.Fatalf("write-after-evict: %v %v", row, ok)
	}
}

func TestPagedRestoreLazy(t *testing.T) {
	f := newFixture(t)
	sim := newChainSim()
	v := pagedView(t, f, sim, 256, NewCache(0))
	const groups = 120
	for i := 0; i < groups; i++ {
		apply(v, f.appendCall(t, acctName(i), 3))
	}
	img, pend, _, total, err := v.CheckpointBlocked(true)
	if err != nil {
		t.Fatal(err)
	}
	sim.files["ck1"] = img
	v.CommitBlockRefs("ck1", 0, pend)

	// Fresh view restores lazily: index only, zero block decodes.
	f2 := newFixture(t)
	v2 := pagedView(t, f2, sim, 256, NewCache(0))
	sim.fetches = 0
	if err := v2.RestoreBlocked(img, "ck1", 0); err != nil {
		t.Fatal(err)
	}
	if sim.fetches != 0 {
		t.Fatalf("lazy restore fetched %d blocks, want 0", sim.fetches)
	}
	if v2.Len() != groups {
		t.Fatalf("restored Len = %d, want %d", v2.Len(), groups)
	}
	gotTotal, gotDirty, gotResident := v2.BlockStats()
	if gotTotal != total || gotDirty != 0 || gotResident != 0 {
		t.Fatalf("restored stats total=%d dirty=%d resident=%d, want %d/0/0", gotTotal, gotDirty, gotResident, total)
	}
	// First lookup faults exactly the covering block.
	row, ok := v2.Lookup(value.Tuple{value.Str(acctName(55))})
	if !ok || row[1].AsInt() != 3 {
		t.Fatalf("lazy lookup: %v %v", row, ok)
	}
	if sim.fetches != 1 {
		t.Fatalf("lookup faulted %d blocks, want 1", sim.fetches)
	}
	// Full scan faults the rest and matches the source view.
	if got, want := fmt.Sprint(v2.Rows()), fmt.Sprint(v.Rows()); got != want {
		t.Fatalf("restored rows diverge:\n got %s\nwant %s", got, want)
	}
	// A view that does not page has no index to splice the image into.
	if err := minutesPerAcct(t, newFixture(t)).RestoreBlocked(img, "ck1", 0); err == nil {
		t.Fatal("a blocked image restored into a view that does not page")
	}
}

func TestBlockSplitBoundaries(t *testing.T) {
	f := newFixture(t)
	sim := newChainSim()
	v := pagedView(t, f, sim, 128, NewCache(0)) // tiny blocks force splits
	for i := 0; i < 100; i++ {
		apply(v, f.appendCall(t, acctName(i), 1))
	}
	_, total := sim.checkpointTo(t, v, "ck1", true)
	if total < 10 {
		t.Fatalf("128B blocks over 100 groups should split heavily, got %d blocks", total)
	}
	// Grow one key range until its block splits again on checkpoint.
	for i := 0; i < 100; i++ {
		apply(v, f.appendCall(t, fmt.Sprintf("%s-sub%03d", acctName(42), i), 1))
	}
	_, total2 := sim.checkpointTo(t, v, "ck2", false)
	if total2 <= total {
		t.Fatalf("dense inserts did not split: %d → %d blocks", total, total2)
	}
	for i := 0; i < 100; i++ {
		if _, ok := v.Lookup(value.Tuple{value.Str(acctName(i))}); !ok {
			t.Fatalf("acct %d lost after split", i)
		}
		if _, ok := v.Lookup(value.Tuple{value.Str(fmt.Sprintf("%s-sub%03d", acctName(42), i))}); !ok {
			t.Fatalf("sub key %d lost after split", i)
		}
	}
}

func TestPagedProjectionView(t *testing.T) {
	f := newFixture(t)
	sim := newChainSim()
	v, err := New(Def{
		Name: "accts",
		Expr: algebra.NewScan(f.calls),
		Mode: SummarizeProject,
		Cols: []int{0},
	})
	if err != nil {
		t.Fatal(err)
	}
	v.EnablePaging(128, sim.fetch, NewCache(0))
	for i := 0; i < 60; i++ {
		apply(v, f.appendCall(t, acctName(i%20), 1))
	}
	sim.checkpointTo(t, v, "ck1", true)
	f2 := newFixture(t)
	v2, err := New(Def{Name: "accts", Expr: algebra.NewScan(f2.calls), Mode: SummarizeProject, Cols: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	v2.EnablePaging(128, sim.fetch, NewCache(0))
	img, pend, _, _, err := v.CheckpointBlocked(true)
	if err != nil {
		t.Fatal(err)
	}
	sim.files["ck2"] = img
	v.CommitBlockRefs("ck2", 0, pend)
	if err := v2.RestoreBlocked(img, "ck2", 0); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(v2.Rows()), fmt.Sprint(v.Rows()); got != want {
		t.Fatalf("projection restore diverges:\n got %s\nwant %s", got, want)
	}
}

func TestBlockedDeltaMergeLazy(t *testing.T) {
	f := newFixture(t)
	sim := newChainSim()
	v := pagedView(t, f, sim, 256, NewCache(0))
	const groups = 150
	for i := 0; i < groups; i++ {
		apply(v, f.appendCall(t, acctName(i), 2))
	}
	full, pend, _, fullTotal, err := v.CheckpointBlocked(true)
	if err != nil {
		t.Fatal(err)
	}
	sim.files["ck1"] = full
	v.CommitBlockRefs("ck1", 0, pend)

	// Dirty two separated ranges: a single-group touch, and a burst of new
	// groups clustered after acct0100 so their block splits at the cut.
	apply(v, f.appendCall(t, acctName(3), 2))
	for j := 0; j < 30; j++ {
		apply(v, f.appendCall(t, fmt.Sprintf("acct0100x%02d", j), 1))
	}
	delta, dpend, dirty, total, err := v.CheckpointBlocked(false)
	if err != nil {
		t.Fatal(err)
	}
	if dirty < 2 {
		t.Fatalf("delta saw %d dirty blocks, want >= 2", dirty)
	}
	if total <= fullTotal {
		t.Fatalf("split burst did not grow the block list: %d vs %d", total, fullTotal)
	}
	// The whole point: a delta carries no records for clean blocks.
	if len(delta) >= len(full)/2 {
		t.Fatalf("delta image %dB not much smaller than full %dB", len(delta), len(full))
	}
	sim.files["ck2"] = delta
	v.CommitBlockRefs("ck2", 0, dpend)
	if _, gotDirty, _ := v.BlockStats(); gotDirty != 0 {
		t.Fatalf("%d blocks still dirty after delta commit", gotDirty)
	}

	// Lazy restore: base image, then the delta merges in with no fetches.
	f2 := newFixture(t)
	v2 := pagedView(t, f2, sim, 256, NewCache(0))
	if err := v2.RestoreBlocked(full, "ck1", 0); err != nil {
		t.Fatal(err)
	}
	sim.fetches = 0
	if err := v2.RestoreBlocked(delta, "ck2", 0); err != nil {
		t.Fatal(err)
	}
	if sim.fetches != 0 {
		t.Fatalf("delta merge fetched %d blocks, want 0", sim.fetches)
	}
	gotTotal, gotDirty, gotResident := v2.BlockStats()
	if gotTotal != total || gotDirty != 0 || gotResident != 0 {
		t.Fatalf("merged stats total=%d dirty=%d resident=%d, want %d/0/0", gotTotal, gotDirty, gotResident, total)
	}
	if got, want := fmt.Sprint(v2.Rows()), fmt.Sprint(v.Rows()); got != want {
		t.Fatalf("delta merge diverges:\n got %s\nwant %s", got, want)
	}
}

func TestBlockedDeltaFirstImage(t *testing.T) {
	// A view created after the last full cut has never committed a block:
	// its first delta is a single -∞..+∞ run and must merge into a fresh
	// (or empty) index on restore.
	f := newFixture(t)
	sim := newChainSim()
	v := pagedView(t, f, sim, 256, NewCache(0))
	for i := 0; i < 40; i++ {
		apply(v, f.appendCall(t, acctName(i), 4))
	}
	delta, dpend, dirty, _, err := v.CheckpointBlocked(false)
	if err != nil {
		t.Fatal(err)
	}
	if dirty == 0 {
		t.Fatal("first delta saw no dirty blocks")
	}
	if off, _ := v.checkHeader(delta, blockedVersion); delta[off] != 1 || delta[off+1] != 0 {
		t.Fatalf("first delta is not one run up to +∞: % x", delta[off:off+2])
	}
	sim.files["ck1"] = delta
	v.CommitBlockRefs("ck1", 0, dpend)

	f2 := newFixture(t)
	v2 := pagedView(t, f2, sim, 256, NewCache(0))
	if err := v2.RestoreBlocked(delta, "ck1", 0); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(v2.Rows()), fmt.Sprint(v.Rows()); got != want {
		t.Fatalf("first-image delta diverges:\n got %s\nwant %s", got, want)
	}
}

// TestBlockedChainRestoresSource: the chain a paged view writes restores to
// the view. Over 100 groups, a seeded loop folds updates to existing groups
// and bursts of new groups clustered after one key (which split its block at
// the next cut), evicts under a tiny cache, and cuts: incremental, with a
// full cut every fourth, after which the older chain files are deleted. After
// every cut the live chain — latest full cut onward — restores lazily into a
// fresh paged view whose rows must equal the source's, row for row; and a
// replica that has restored every image so far, and has a row of its own
// written into it before each full image, must equal the source too: a full
// image replaces a non-empty index.
func TestBlockedChainRestoresSource(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			f, fr := newFixture(t), newFixture(t)
			sim := newChainSim()
			cache := NewCache(1 << 10)
			v := pagedView(t, f, sim, 256, cache)
			replica := pagedView(t, fr, sim, 256, NewCache(1<<10))
			var keys []string
			for i := 0; i < 100; i++ {
				keys = append(keys, acctName(i))
				apply(v, f.appendCall(t, keys[i], 1))
			}
			var chain []string
			copied := 0
			for cut := 1; cut <= 16; cut++ {
				for n := rng.Intn(40); n > 0; n-- {
					if rng.Intn(4) == 0 {
						at := keys[rng.Intn(len(keys))]
						for j := rng.Intn(12); j >= 0; j-- {
							keys = append(keys, fmt.Sprintf("%s/%02d%02d", at, cut, j))
							apply(v, f.appendCall(t, keys[len(keys)-1], 1))
						}
					} else {
						apply(v, f.appendCall(t, keys[rng.Intn(len(keys))], int64(rng.Intn(9)+1)))
					}
					if rng.Intn(8) == 0 {
						cache.Maintain()
					}
				}
				file, full := fmt.Sprintf("ck%02d", cut), cut%4 == 0
				fetches := sim.fetches
				sim.checkpointTo(t, v, file, full)
				if full {
					if sim.fetches > fetches {
						copied++
					}
					apply(replica, fr.appendCall(t, "zzz-not-in-the-source", 1))
					for _, old := range chain {
						delete(sim.files, old)
					}
					chain = chain[:0]
				}
				chain = append(chain, file)
				if err := replica.RestoreBlocked(sim.files[file], file, 0); err != nil {
					t.Fatalf("cut %d: replica: %v", cut, err)
				}
				r := pagedView(t, newFixture(t), sim, 256, NewCache(1<<10))
				for _, c := range chain {
					if err := r.RestoreBlocked(sim.files[c], c, 0); err != nil {
						t.Fatalf("cut %d: restoring %s: %v", cut, c, err)
					}
				}
				want := fmt.Sprint(v.Rows())
				for name, got := range map[string]*View{"chain": r, "replica": replica} {
					if fmt.Sprint(got.Rows()) != want || got.Len() != v.Len() {
						t.Fatalf("cut %d (%v): the %s restore of %v has %d rows, the source %d:\n got %v\nwant %s",
							cut, full, name, chain, got.Len(), v.Len(), got.Rows(), want)
					}
				}
				cache.Maintain()
			}
			if total, _, _ := v.BlockStats(); total < 16 || copied == 0 || cache.Evictions() == 0 {
				t.Errorf("%d blocks, %d full cuts copied a cold block forward, %d evictions: the loop never split or went cold",
					total, copied, cache.Evictions())
			}
		})
	}
}

// TestPagedFaultInsideCall: a block fault publishes, and inside an append
// call the live tree holds rows no reader may see yet. A reader that faults
// a cold block between two folds of one call must get that block's rows —
// and still none of the call's, nor a later LSN; a fold that faults a cold
// block must leave it readable at its content from before the call; and the
// view gives up no block while the call is open.
func TestPagedFaultInsideCall(t *testing.T) {
	f := newFixture(t)
	sim := newChainSim()
	cache := NewCache(1) // a 1-byte budget: every clean block is evictable
	v := pagedView(t, f, sim, 256, cache)
	const groups = 120
	for i := 0; i < groups; i++ {
		apply(v, f.appendCall(t, acctName(i), 5))
	}
	sim.checkpointTo(t, v, "ck1", true)
	cache.Maintain()
	total, _, resident := v.BlockStats()
	if total < 4 || resident != 0 {
		t.Fatalf("want several blocks, all evicted; have %d with %d resident", total, resident)
	}
	lookup := func(i int) int64 {
		t.Helper()
		row, ok := v.Lookup(value.Tuple{value.Str(acctName(i))})
		if !ok {
			t.Fatalf("acct %d not found", i)
		}
		return row[1].AsInt()
	}
	lsn0 := v.Scan(Window{}, func(value.Tuple) bool { return false })
	cache.Maintain()

	// The call: two folds into the first block (which the write faults in),
	// with reads in between.
	v.ApplyRows(algebra.Delta(v.Def().Expr, f.appendCall(t, acctName(0), 100)))
	if got := lookup(0); got != 5 {
		t.Errorf("block faulted by the fold: acct 0 reads %d inside the call, want the published 5", got)
	}
	if got := lookup(groups - 1); got != 5 { // a reader's fault, far from the write
		t.Errorf("block faulted by a reader: acct %d reads %d, want 5", groups-1, got)
	}
	v.ApplyRows(algebra.Delta(v.Def().Expr, f.appendCall(t, acctName(1), 100)))
	var sum int64
	if lsn := v.Scan(Window{}, func(row value.Tuple) bool { sum += row[1].AsInt(); return true }); lsn != lsn0 || sum != 5*groups {
		t.Errorf("scan inside the call: total %d at LSN %d, want %d at %d", sum, lsn, 5*groups, lsn0)
	}
	cache.Maintain() // far over budget, but the call is open
	if _, _, resident := v.BlockStats(); resident != total {
		t.Errorf("inside the call %d of %d blocks are resident: the view gave one up", resident, total)
	}

	v.Publish()
	if a, b := lookup(0), lookup(1); a != 105 || b != 105 {
		t.Errorf("after Publish: accts 0 and 1 read %d and %d, want 105 each", a, b)
	}
	sum = 0
	if lsn := v.Scan(Window{}, func(row value.Tuple) bool { sum += row[1].AsInt(); return true }); lsn != lsn0+2 || sum != 5*groups+200 {
		t.Errorf("scan after Publish: total %d at LSN %d, want %d at %d", sum, lsn, 5*groups+200, lsn0+2)
	}
	if cache.Evictions() == 0 {
		t.Error("nothing was ever evicted")
	}
}

// coldCopy checkpoints src in full and restores the image into a fresh paged
// view under cache: every block of the copy starts cold.
func coldCopy(t *testing.T, src *View, sim *chainSim, file string, blockBytes int64, cache *Cache) *View {
	t.Helper()
	sim.checkpointTo(t, src, file, true)
	v := pagedView(t, newFixture(t), sim, blockBytes, cache)
	if err := v.RestoreBlocked(sim.files[file], file, 0); err != nil {
		t.Fatal(err)
	}
	return v
}

// residentBlocks lists the indexes of the view's resident blocks.
func residentBlocks(v *View) (out []int) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	for i, b := range v.pg.Load().blocks {
		if b.resident {
			out = append(out, i)
		}
	}
	return out
}

// TestPagedScanFaultsOnlyItsWindow: a read of a paged view faults the blocks
// its window plans and no other. Every case starts from a copy with all
// blocks cold under an unbounded cache, so the blocks resident afterwards are
// the blocks the read faulted. Key-bounded windows are checked against the
// overlap of the window with the block separators, worked out here from the
// separators alone; limit windows against the fewest blocks, from the walk's
// starting end, whose entry counts reach the limit; and every answer against
// the same Scan of the resident source view.
func TestPagedScanFaultsOnlyItsWindow(t *testing.T) {
	f := newFixture(t)
	sim := newChainSim()
	src := pagedView(t, f, sim, 256, NewCache(0))
	const groups = 400
	for i := 0; i < groups; i++ {
		apply(src, f.appendCall(t, acctName(i), int64(i)))
	}
	key := func(i int) []byte { return keyOf(value.Str(acctName(i))) }
	succ := func(k []byte) []byte { s, _ := keyenc.PrefixSuccessor(nil, k); return s }
	every7th := func(t value.Tuple) bool { return t[1].AsInt()%7 == 0 }

	for name, w := range map[string]Window{
		"point as a range":    {Lo: key(123), Hi: succ(key(123))},
		"inside one block":    {Lo: key(200), Hi: key(203)},
		"across blocks":       {Lo: key(90), Hi: key(170)},
		"across blocks, desc": {Lo: key(90), Hi: key(170), Desc: true},
		"open above":          {Lo: key(380)},
		"open below, desc":    {Hi: key(15), Desc: true},
		"prefix":              {Lo: keyOf(value.Str("acct03"))[:7], Hi: succ(keyOf(value.Str("acct03"))[:7])},
		"empty":               {Lo: key(300), Hi: key(100)},
		"range with a limit":  {Lo: key(50), Hi: key(350), Limit: 5},
		"latest 20":           {Desc: true, Limit: 20},
		"first 20":            {Limit: 20},
		"latest 3 kept":       {Desc: true, Limit: 3, Keep: every7th},
		"first 8 kept":        {Limit: 8, Keep: every7th},
		"whole view":          {},
	} {
		t.Run(name, func(t *testing.T) {
			cache := NewCache(0)
			v := coldCopy(t, src, sim, "ck", 256, cache)
			v.mu.RLock()
			blocks := v.pg.Load().blocks
			v.mu.RUnlock()

			var got, want []string
			lsn := v.Scan(w, func(row value.Tuple) bool { got = append(got, fmt.Sprint(row)); return true })
			wantLSN := src.Scan(w, func(row value.Tuple) bool { want = append(want, fmt.Sprint(row)); return true })
			if fmt.Sprint(got) != fmt.Sprint(want) || lsn != 0 && lsn != wantLSN {
				t.Fatalf("paged answer %v (LSN %d)\nresident answer %v (LSN %d)", got, lsn, want, wantLSN)
			}

			// overlap: the blocks holding any key of [Lo, Hi).
			var overlap []int
			for i, b := range blocks {
				endsAboveLo := i+1 == len(blocks) || len(w.Lo) == 0 || string(blocks[i+1].lo) > string(w.Lo)
				startsBelowHi := len(w.Hi) == 0 || string(b.lo) < string(w.Hi)
				if endsAboveLo && startsBelowHi && (len(w.Lo) == 0 || len(w.Hi) == 0 || string(w.Lo) < string(w.Hi)) {
					overlap = append(overlap, i)
				}
			}
			faulted := residentBlocks(v)
			if int64(len(faulted)) != cache.Misses() {
				t.Errorf("%d blocks resident after %d faults: a block was faulted twice", len(faulted), cache.Misses())
			}
			switch {
			case w.Limit == 0:
				if fmt.Sprint(faulted) != fmt.Sprint(overlap) {
					t.Errorf("faulted blocks %v, the window overlaps %v of %d", faulted, overlap, len(blocks))
				}
			case w.Keep == nil:
				// The fewest blocks from the starting end that hold Limit
				// entries — one more when the window starts inside its first
				// block and that block's count promised rows it did not have.
				fewest, sum := 0, 0
				for k := range overlap {
					i := overlap[k]
					if w.Desc {
						i = overlap[len(overlap)-1-k]
					}
					if sum >= w.Limit {
						break
					}
					sum += blocks[i].n
					fewest++
				}
				if len(faulted) < fewest || len(faulted) > fewest+1 {
					t.Errorf("faulted %d blocks %v for a limit of %d; the counts say %d", len(faulted), faulted, w.Limit, fewest)
				}
				fallthrough
			default:
				// Contiguous from the starting end and inside the overlap,
				// and — the point of planning — not the whole view.
				for k, i := range faulted {
					want := overlap[k]
					if w.Desc {
						want = overlap[len(overlap)-len(faulted)+k]
					}
					if i != want {
						t.Fatalf("faulted blocks %v are not the starting end of the overlap %v", faulted, overlap)
					}
				}
				if len(faulted)*2 > len(blocks) {
					t.Errorf("a limit of %d faulted %d of %d blocks", w.Limit, len(faulted), len(blocks))
				}
			}
			if p, total := v.PlannedBlocks(w); total != len(blocks) || w.Keep == nil && p > len(faulted) {
				t.Errorf("PlannedBlocks = %d of %d; the read faulted %d of %d", p, total, len(faulted), len(blocks))
			}
		})
	}
}

// TestClockSeesLookupHits is the bug guard for the reference bit: a lookup
// answered from the published snapshot must mark the block it read, or the
// sweep is first-in-first-out under a read-only load and evicts the most-read
// block as readily as the least. The view is four times the cache; three
// lookups in five go to a hot set of blocks that fits the cache with room to
// spare, the rest walk the cold set. With the bit set on hits the hot set
// stays resident — its lookups all hit — so the hit ratio is the hot share
// (plus the odd cold hit); without it every lap of the hand throws the hot
// blocks out.
func TestClockSeesLookupHits(t *testing.T) {
	f := newFixture(t)
	sim := newChainSim()
	src := pagedView(t, f, sim, 512, NewCache(0))
	const groups = 2000
	for i := 0; i < groups; i++ {
		apply(src, f.appendCall(t, acctName(i), 1))
	}
	sim.checkpointTo(t, src, "sizing", true)
	var viewBytes int64
	src.mu.RLock()
	blocks := src.pg.Load().blocks
	for _, b := range blocks {
		viewBytes += b.bytes
	}
	src.mu.RUnlock()
	cache := NewCache(viewBytes / 4)
	v := coldCopy(t, src, sim, "ck", 512, cache)

	// The hot set: the groups of the first tenth of the blocks (the cache
	// holds a quarter of them).
	hotGroups := 0
	for _, b := range blocks[:len(blocks)/10] {
		hotGroups += b.n
	}
	rng := rand.New(rand.NewSource(20))
	lookup := func(i int) {
		if _, ok := v.Lookup(value.Tuple{value.Str(acctName(i))}); !ok {
			t.Fatalf("acct %d not found", i)
		}
	}
	const (
		lookups  = 20000
		hotShare = 0.6
	)
	mix := func(n int) {
		for i := 0; i < n; i++ {
			if rng.Float64() < hotShare {
				lookup(rng.Intn(hotGroups))
			} else {
				lookup(hotGroups + rng.Intn(groups-hotGroups))
			}
		}
	}
	mix(lookups / 10) // warm-up: the hot set comes in
	h0, m0 := cache.Hits(), cache.Misses()
	mix(lookups)
	hits, misses := cache.Hits()-h0, cache.Misses()-m0
	ratio := float64(hits) / float64(hits+misses)
	t.Logf("%d blocks, cache of %d bytes for %d; %d hits, %d misses, %d evictions: hit ratio %.3f",
		len(blocks), cache.Budget(), viewBytes, hits, misses, cache.Evictions(), ratio)
	if ratio < hotShare-0.05 {
		t.Errorf("hit ratio %.3f with %.0f%% of the lookups in a hot set that fits the cache: the sweep does not see hits", ratio, 100*hotShare)
	}
	if cache.Evictions() == 0 {
		t.Error("nothing was evicted: the cold set never pressed on the cache")
	}

	// A scan of the whole view faults everything and references nothing: the
	// hot set is still there when the sweep has taken the rest back.
	v.Scan(Window{}, func(value.Tuple) bool { return true })
	m0 = cache.Misses()
	for i := 0; i < hotGroups; i++ {
		lookup(i)
	}
	if got := cache.Misses() - m0; got > int64(len(blocks)/10)/4 {
		t.Errorf("after a full scan %d of the hot set's %d blocks had to be faulted again: the scan erased the CLOCK's recency", got, len(blocks)/10)
	}
}

// TestPagedAccountedBytes pins what a paged view charges its cache for
// groups it has not checkpointed yet: the insert-time estimate, key + 8 + 10
// per aggregation. read-http sizes its block cache at half its view's
// accounted bytes, so a changed estimate changes that workload.
func TestPagedAccountedBytes(t *testing.T) {
	const groups, want = 20_000, 790_000
	f := newFixture(t)
	cache := NewCache(0)
	v := pagedView(t, f, newChainSim(), DefaultBlockBytes, cache)
	tuples := make([]value.Tuple, groups)
	for i := range tuples {
		tuples[i] = value.Tuple{value.Str(acctName(i)), value.Int(1)}
	}
	rows, err := f.calls.Append(f.group.NextSN(), 0, f.nextLSN(), tuples)
	if err != nil {
		t.Fatal(err)
	}
	apply(v, algebra.BatchDelta{f.calls: rows})
	if v.Len() != groups {
		t.Fatalf("the view holds %d groups, want %d", v.Len(), groups)
	}
	if got := cache.UsedBytes(); got != want {
		t.Errorf("%d groups are accounted at %d bytes, want %d", groups, got, want)
	}
}
