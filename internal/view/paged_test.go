package view

import (
	"fmt"
	"testing"

	"chronicledb/internal/algebra"
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
	v := minutesPerAcct(t, f, StoreBTree)
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
		v.Apply(f.appendCall(t, acctName(i), 5))
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
	v.Apply(f.appendCall(t, acctName(7), 5))
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
		v.Apply(f.appendCall(t, acctName(i), int64(i%9+1)))
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
	v.Scan(func(value.Tuple) bool { seen++; return true })
	if seen != groups {
		t.Fatalf("Scan visited %d rows, want %d", seen, groups)
	}

	// Writes to evicted keys fault the block in and stay correct.
	v.Apply(f.appendCall(t, acctName(0), 100))
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
		v.Apply(f.appendCall(t, acctName(i), 3))
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
	if err := v2.RestoreBlocked(img, "ck1", 0, sim.fetch); err != nil {
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
}

func TestPagedRestoreEagerUnpaged(t *testing.T) {
	f := newFixture(t)
	sim := newChainSim()
	v := pagedView(t, f, sim, 256, NewCache(0))
	for i := 0; i < 80; i++ {
		v.Apply(f.appendCall(t, acctName(i), 3))
	}
	img, pend, _, _, err := v.CheckpointBlocked(true)
	if err != nil {
		t.Fatal(err)
	}
	sim.files["ck1"] = img
	v.CommitBlockRefs("ck1", 0, pend)

	// Unpaged view (paging disabled on reopen) restores eagerly.
	f2 := newFixture(t)
	v2 := minutesPerAcct(t, f2, StoreBTree)
	if err := v2.RestoreBlocked(img, "ck1", 0, sim.fetch); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(v2.Rows()), fmt.Sprint(v.Rows()); got != want {
		t.Fatalf("eager restore diverges:\n got %s\nwant %s", got, want)
	}
}

func TestPagedIncrementalRestoreMixedRefs(t *testing.T) {
	// Incremental images hold refs into older chain files; a restore from
	// the newest image must resolve blocks across files.
	f := newFixture(t)
	sim := newChainSim()
	v := pagedView(t, f, sim, 256, NewCache(0))
	for i := 0; i < 150; i++ {
		v.Apply(f.appendCall(t, acctName(i), 2))
	}
	sim.checkpointTo(t, v, "ck1", true)
	v.Apply(f.appendCall(t, acctName(3), 2))
	img, pend, dirty, _, err := v.CheckpointBlocked(false)
	if err != nil {
		t.Fatal(err)
	}
	if dirty != 1 {
		t.Fatalf("dirty = %d, want 1", dirty)
	}
	sim.files["ck2"] = img
	v.CommitBlockRefs("ck2", 0, pend)

	f2 := newFixture(t)
	v2 := pagedView(t, f2, sim, 256, NewCache(0))
	if err := v2.RestoreBlocked(img, "ck2", 0, sim.fetch); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(v2.Rows()), fmt.Sprint(v.Rows()); got != want {
		t.Fatalf("mixed-ref restore diverges:\n got %s\nwant %s", got, want)
	}
}

func TestBlockSplitBoundaries(t *testing.T) {
	f := newFixture(t)
	sim := newChainSim()
	v := pagedView(t, f, sim, 128, NewCache(0)) // tiny blocks force splits
	for i := 0; i < 100; i++ {
		v.Apply(f.appendCall(t, acctName(i), 1))
	}
	_, total := sim.checkpointTo(t, v, "ck1", true)
	if total < 10 {
		t.Fatalf("128B blocks over 100 groups should split heavily, got %d blocks", total)
	}
	// Grow one key range until its block splits again on checkpoint.
	for i := 0; i < 100; i++ {
		v.Apply(f.appendCall(t, fmt.Sprintf("%s-sub%03d", acctName(42), i), 1))
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
	}, StoreBTree)
	if err != nil {
		t.Fatal(err)
	}
	v.EnablePaging(128, sim.fetch, NewCache(0))
	for i := 0; i < 60; i++ {
		v.Apply(f.appendCall(t, acctName(i%20), 1))
	}
	sim.checkpointTo(t, v, "ck1", true)
	f2 := newFixture(t)
	v2, err := New(Def{Name: "accts", Expr: algebra.NewScan(f2.calls), Mode: SummarizeProject, Cols: []int{0}}, StoreBTree)
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
	if err := v2.RestoreBlocked(img, "ck2", 0, sim.fetch); err != nil {
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
		v.Apply(f.appendCall(t, acctName(i), 2))
	}
	full, pend, _, fullTotal, err := v.CheckpointBlocked(true)
	if err != nil {
		t.Fatal(err)
	}
	sim.files["ck1"] = full
	v.CommitBlockRefs("ck1", 0, pend)

	// Dirty two separated ranges: a single-group touch, and a burst of new
	// groups clustered after acct0100 so their block splits at the cut.
	v.Apply(f.appendCall(t, acctName(3), 2))
	for j := 0; j < 30; j++ {
		v.Apply(f.appendCall(t, fmt.Sprintf("acct0100x%02d", j), 1))
	}
	delta, dpend, dirty, total, err := v.CheckpointBlockedDelta()
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
	if err := v2.RestoreBlocked(full, "ck1", 0, sim.fetch); err != nil {
		t.Fatal(err)
	}
	sim.fetches = 0
	if err := v2.RestoreBlockedDelta(delta, "ck2", 0); err != nil {
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

func TestBlockedDeltaMergeEager(t *testing.T) {
	f := newFixture(t)
	sim := newChainSim()
	v := pagedView(t, f, sim, 256, NewCache(0))
	for i := 0; i < 80; i++ {
		v.Apply(f.appendCall(t, acctName(i), 3))
	}
	full, pend, _, _, err := v.CheckpointBlocked(true)
	if err != nil {
		t.Fatal(err)
	}
	sim.files["ck1"] = full
	v.CommitBlockRefs("ck1", 0, pend)
	v.Apply(f.appendCall(t, acctName(42), 3))
	delta, dpend, _, _, err := v.CheckpointBlockedDelta()
	if err != nil {
		t.Fatal(err)
	}
	sim.files["ck2"] = delta
	v.CommitBlockRefs("ck2", 0, dpend)

	// Unpaged reopen: eager base restore, then the delta replaces the
	// covered range in the live store.
	f2 := newFixture(t)
	v2 := minutesPerAcct(t, f2, StoreBTree)
	if err := v2.RestoreBlocked(full, "ck1", 0, sim.fetch); err != nil {
		t.Fatal(err)
	}
	if err := v2.RestoreBlockedDelta(delta, "ck2", 0); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(v2.Rows()), fmt.Sprint(v.Rows()); got != want {
		t.Fatalf("eager delta merge diverges:\n got %s\nwant %s", got, want)
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
		v.Apply(f.appendCall(t, acctName(i), 4))
	}
	delta, dpend, dirty, _, err := v.CheckpointBlockedDelta()
	if err != nil {
		t.Fatal(err)
	}
	if dirty == 0 {
		t.Fatal("first delta saw no dirty blocks")
	}
	sim.files["ck1"] = delta
	v.CommitBlockRefs("ck1", 0, dpend)

	f2 := newFixture(t)
	v2 := pagedView(t, f2, sim, 256, NewCache(0))
	if err := v2.RestoreBlockedDelta(delta, "ck1", 0); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(v2.Rows()), fmt.Sprint(v.Rows()); got != want {
		t.Fatalf("first-image delta diverges:\n got %s\nwant %s", got, want)
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
		v.Apply(f.appendCall(t, acctName(i), 5))
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
	lsn0 := v.ScanAt(func(value.Tuple) bool { return false })
	cache.Maintain()

	// The call: two folds into the first block (which the write faults in),
	// with reads in between.
	v.ApplyRows(v.Delta(f.appendCall(t, acctName(0), 100)))
	if got := lookup(0); got != 5 {
		t.Errorf("block faulted by the fold: acct 0 reads %d inside the call, want the published 5", got)
	}
	if got := lookup(groups - 1); got != 5 { // a reader's fault, far from the write
		t.Errorf("block faulted by a reader: acct %d reads %d, want 5", groups-1, got)
	}
	v.ApplyRows(v.Delta(f.appendCall(t, acctName(1), 100)))
	var sum int64
	if lsn := v.ScanAt(func(row value.Tuple) bool { sum += row[1].AsInt(); return true }); lsn != lsn0 || sum != 5*groups {
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
	if lsn := v.ScanAt(func(row value.Tuple) bool { sum += row[1].AsInt(); return true }); lsn != lsn0+2 || sum != 5*groups+200 {
		t.Errorf("scan after Publish: total %d at LSN %d, want %d at %d", sum, lsn, 5*groups+200, lsn0+2)
	}
	if cache.Evictions() == 0 {
		t.Error("nothing was ever evicted")
	}
}
