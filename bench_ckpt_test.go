package chronicledb

import "testing"

// ckptGuardDB opens a durable DB with small blocks and loads a B-tree view
// of n groups, then cuts a full baseline checkpoint so every block is
// clean. dirtySet re-appends the same contiguous key range.
func ckptGuardDB(tb testing.TB, n int, cacheBytes int64) *DB {
	tb.Helper()
	db, err := Open(Options{Dir: tb.TempDir(), ViewBlockBytes: 1024, ViewCacheBytes: cacheBytes})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { db.Close() })
	if _, err := db.Exec(blockedDDL); err != nil {
		tb.Fatal(err)
	}
	tuples := make([]Tuple, n)
	for i := range tuples {
		tuples[i] = Tuple{Str(blockedKey(i)), Int(1)}
	}
	if _, _, err := db.AppendRows("items", tuples); err != nil {
		tb.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		tb.Fatal(err)
	}
	return db
}

func dirtySet(tb testing.TB, db *DB, n int) {
	tb.Helper()
	tuples := make([]Tuple, n)
	for i := range tuples {
		tuples[i] = Tuple{Str(blockedKey(i)), Int(1)}
	}
	if _, _, err := db.AppendRows("items", tuples); err != nil {
		tb.Fatal(err)
	}
}

// TestCheckpointBlockGuards pins the structural claims behind E21 without
// timing flakiness (`make bench-ckpt`):
//
//   - an incremental cut after a fixed-size clustered dirty set
//     re-serializes the same small block count at 4x the cardinality —
//     checkpoint cost tracks the dirty set, not the view;
//   - a hot-key lookup on a paged view stays on the lock-free snapshot
//     path: same allocation budget as the unpaged read guard.
func TestCheckpointBlockGuards(t *testing.T) {
	const dirtyN = 64
	var dirtyAt [2]int64
	for i, n := range []int{2_000, 8_000} {
		db := ckptGuardDB(t, n, 0)
		base := db.WALStats()
		dirtySet(t, db, dirtyN)
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		w := db.WALStats()
		if w.CkptTotalBlocks <= base.CkptTotalBlocks/2 || w.CkptTotalBlocks < int64(n)/100 {
			t.Fatalf("n=%d: implausible total blocks %d (baseline %d)", n, w.CkptTotalBlocks, base.CkptTotalBlocks)
		}
		dirtyAt[i] = w.CkptDirtyBlocks
		t.Logf("n=%d: incremental cut re-serialized %d of %d blocks", n, w.CkptDirtyBlocks, w.CkptTotalBlocks)
	}
	if dirtyAt[0] == 0 || dirtyAt[1] == 0 {
		t.Fatalf("dirty set produced no dirty blocks: %v", dirtyAt)
	}
	// The same dirty key range must cost the same blocks at 4x the rows
	// (+1 tolerates a boundary straddle after different split histories).
	if dirtyAt[1] > dirtyAt[0]+1 {
		t.Errorf("dirty blocks grew with cardinality: %d @2k vs %d @8k — checkpoint cost is no longer ∝ dirty set", dirtyAt[0], dirtyAt[1])
	}

	t.Run("paged-hot-lookup-allocs", func(t *testing.T) {
		if raceEnabledInternal {
			t.Skip("allocation counts are not meaningful under -race")
		}
		db := ckptGuardDB(t, 2_000, 64<<10)
		key := Str(blockedKey(7))
		if _, ok, err := db.Lookup("totals", key); err != nil || !ok {
			t.Fatal(ok, err) // fault the covering block in once
		}
		got := testing.AllocsPerRun(1000, func() {
			if _, ok, err := db.Lookup("totals", key); err != nil || !ok {
				t.Fatal(ok, err)
			}
		})
		// Same budget as the unpaged lock-free lookup guard
		// (TestReadAllocGuards): residency checks must not add allocations.
		if got > 6 {
			t.Errorf("paged hot lookup: %.1f allocs/op, budget 6 — the cache check left the lock-free path", got)
		} else {
			t.Logf("paged hot lookup: %.1f allocs/op (budget 6)", got)
		}
	})
}

// BenchmarkBlockedCheckpoint times one incremental cut after a fixed
// 64-group dirty set on an 8k-group blocked view (`make bench-ckpt`) —
// the E21 fast path: dirty blocks re-encode in runs, clean blocks write
// nothing.
func BenchmarkBlockedCheckpoint(b *testing.B) {
	db := ckptGuardDB(b, 8_000, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dirtySet(b, db, 64)
		b.StartTimer()
		if err := db.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
	w := db.WALStats()
	b.ReportMetric(float64(w.CkptDirtyBlocks), "dirty-blocks")
	b.ReportMetric(float64(w.CkptTotalBlocks), "total-blocks")
	if w.CkptDirtyBlocks == 0 {
		b.Fatal("incremental cut saw no dirty blocks")
	}
}
