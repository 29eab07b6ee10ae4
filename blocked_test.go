package chronicledb

import (
	"fmt"
	"testing"
)

// blockedDDL pins the view store to BTREE: only B-tree views page.
const blockedDDL = `
	CREATE CHRONICLE items (k STRING, n INT);
	CREATE VIEW totals AS SELECT k, SUM(n) AS total, COUNT(*) AS cnt FROM items GROUP BY k WITH STORE BTREE;
`

func blockedKey(i int) string { return fmt.Sprintf("key%05d", i) }

// TestBlockedViewCheckpointAndReopen: the tentpole end-to-end. A B-tree
// view under the segmented layout checkpoints in blocks (only dirty blocks
// re-serialize), recovers lazily through the block index, and pages cold
// blocks back in under a bounded cache.
func TestBlockedViewCheckpointAndReopen(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, WALSegmentBytes: 4096, ViewBlockBytes: 256, ViewCacheBytes: 8 << 10}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, blockedDDL)
	const groups = 400
	for i := 0; i < groups; i++ {
		if _, err := db.Append("items", Tuple{Str(blockedKey(i)), Int(int64(i%7 + 1))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	w := db.WALStats()
	if !w.ViewCacheEnabled || w.ViewCacheBudget != 8<<10 {
		t.Fatalf("view cache gauges off: %+v", w)
	}
	if w.CkptTotalBlocks < 8 {
		t.Fatalf("400 groups at 256B blocks yielded %d blocks", w.CkptTotalBlocks)
	}
	if w.CkptDirtyBlocks == 0 {
		t.Fatal("first checkpoint saw no dirty blocks")
	}

	// A single-group write dirties at most one block; the next incremental
	// checkpoint must re-serialize only that.
	if _, err := db.Append("items", Tuple{Str(blockedKey(3)), Int(100)}); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	w = db.WALStats()
	if w.CkptDirtyBlocks != 1 {
		t.Fatalf("incremental cut re-serialized %d blocks, want 1", w.CkptDirtyBlocks)
	}
	if w.CkptTotalBlocks < 8 {
		t.Fatalf("incremental cut reports %d total blocks", w.CkptTotalBlocks)
	}

	// The view exceeds the cache budget; the resident set must stay within
	// it while every key remains readable.
	for i := 0; i < groups; i++ {
		want := int64(i%7 + 1)
		if i == 3 {
			want += 100
		}
		row, ok, err := db.Lookup("totals", Str(blockedKey(i)))
		if err != nil || !ok || row[1].AsInt() != want {
			t.Fatalf("key %d: %v %v %v, want total %d", i, row, ok, err, want)
		}
	}
	w = db.WALStats()
	if w.ViewCacheBytes > w.ViewCacheBudget {
		t.Fatalf("resident %d bytes exceeds budget %d", w.ViewCacheBytes, w.ViewCacheBudget)
	}
	if w.ViewCacheEvictions == 0 {
		t.Fatal("no evictions despite view exceeding the budget")
	}
	// The gauges surface through SHOW STATS too.
	res := mustExec(t, db, `SHOW STATS`)
	stats := map[string]int64{}
	for _, r := range res.Rows {
		stats[r[0].AsString()] = r[1].AsInt()
	}
	for _, name := range []string{"view_cache_hits", "view_cache_misses", "view_cache_evictions", "view_cache_bytes", "view_cache_budget", "ckpt_dirty_blocks", "ckpt_total_blocks"} {
		if _, ok := stats[name]; !ok {
			t.Fatalf("SHOW STATS missing %s", name)
		}
	}
	if stats["view_cache_evictions"] == 0 || stats["ckpt_total_blocks"] < 8 {
		t.Fatalf("SHOW STATS gauges stale: %v", stats)
	}
	db.Close()

	// Reopen: recovery restores the block index lazily, then reads fault
	// blocks back from the chain.
	db2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < groups; i++ {
		want := int64(i%7 + 1)
		if i == 3 {
			want += 100
		}
		row, ok, err := db2.Lookup("totals", Str(blockedKey(i)))
		if err != nil || !ok || row[1].AsInt() != want {
			t.Fatalf("reopened key %d: %v %v %v, want total %d", i, row, ok, err, want)
		}
	}
	if w := db2.WALStats(); w.ViewCacheMisses == 0 {
		t.Fatal("reopened reads never faulted a block — lazy restore did not happen")
	}
	// Range scans over a recovered paged view stay ordered and complete.
	rows, err := db2.LookupRange("totals", Tuple{Str(blockedKey(10))}, Tuple{Str(blockedKey(20))})
	if err != nil || len(rows) != 10 {
		t.Fatalf("LookupRange = %d rows, %v; want 10", len(rows), err)
	}
	for j, r := range rows {
		if r[0].AsString() != blockedKey(10+j) {
			t.Fatalf("range row %d = %v", j, r)
		}
	}
	// Writes continue post-recovery (faulting their covering block).
	if _, err := db2.Append("items", Tuple{Str(blockedKey(0)), Int(50)}); err != nil {
		t.Fatal(err)
	}
	if row, ok, _ := db2.Lookup("totals", Str(blockedKey(0))); !ok || row[1].AsInt() != int64(0%7+1)+50 {
		t.Fatalf("post-recovery write: %v %v", row, ok)
	}
	db2.Close()

	// Reopen at another block target: the chain's blocks keep the
	// boundaries they were cut with, restore lazily and serve reads.
	optsBig := opts
	optsBig.ViewBlockBytes = 4096
	db3, err := Open(optsBig)
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	row, ok, err := db3.Lookup("totals", Str(blockedKey(0)))
	if err != nil || !ok || row[1].AsInt() != int64(0%7+1)+50 {
		t.Fatalf("reopen at another block size: %v %v %v", row, ok, err)
	}
	if w := db3.WALStats(); w.ViewCacheMisses == 0 {
		t.Fatal("reopen at another block size restored eagerly")
	}
}
