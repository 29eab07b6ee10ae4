//go:build viewdebug

package view

import (
	"runtime"
	"sync/atomic"
)

// With the viewdebug build tag the hash store counts what its structural
// guarantees are stated in — key hashes, table probes, and key comparisons
// (each one an entry dereference) — for TestHashStoreCounts, and yields the
// processor between the two stores that publish a new slot, so that
// TestHashLockFreeThroughGrowth meets the half-published slot the store
// order exists for. Neither is a statistic or an option: no shipped binary
// carries them.
var counters struct {
	hashes, probes, keyCompares atomic.Int64
}

func noteHash()       { counters.hashes.Add(1) }
func noteProbe()      { counters.probes.Add(1) }
func noteKeyCompare() { counters.keyCompares.Add(1) }
func installGap()     { runtime.Gosched() }
