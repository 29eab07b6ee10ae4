package view

import (
	"sync"
	"sync/atomic"
)

// Cache is the process-wide bounded block cache shared by every paged
// view (across shard engines — the shards share one budget). It tracks
// which blocks are resident and approximately how many bytes they pin,
// and evicts cold clean blocks with a CLOCK sweep once the budget is
// exceeded, so total view state can exceed RAM while the resident set
// stays bounded.
//
// Lock ordering: a view's mu may be held when taking c.mu (page-in
// registers residency), never the reverse — maintain picks a victim under
// c.mu, releases it, and only then calls the owning view's evictBlock,
// which re-verifies the block is still resident, clean, and evictable
// under that view's mu.
type Cache struct {
	budget int64 // resident-byte budget; <= 0 means unbounded

	mu    sync.Mutex
	slots []cslot
	idx   map[*blockMeta]int
	hand  int

	used      atomic.Int64 // Σ bytes of resident blocks
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

type cslot struct {
	v *View
	b *blockMeta
}

// NewCache returns a block cache with the given resident-byte budget;
// budget <= 0 disables eviction (track-only).
func NewCache(budget int64) *Cache {
	return &Cache{budget: budget, idx: make(map[*blockMeta]int)}
}

// Budget returns the configured resident-byte budget (0 = unbounded).
func (c *Cache) Budget() int64 {
	if c.budget < 0 {
		return 0
	}
	return c.budget
}

// UsedBytes returns the bytes currently pinned by resident blocks.
func (c *Cache) UsedBytes() int64 { return c.used.Load() }

// Hits returns block-cache hits (paged reads served from memory).
func (c *Cache) Hits() int64 { return c.hits.Load() }

// Misses returns block-cache misses (block faults from the chain).
func (c *Cache) Misses() int64 { return c.misses.Load() }

// Evictions returns how many blocks the CLOCK sweep has evicted.
func (c *Cache) Evictions() int64 { return c.evictions.Load() }

// addResident registers a block that just became resident, charging its
// current byte estimate. Callers hold the owning view's mu.
func (c *Cache) addResident(v *View, b *blockMeta) {
	c.mu.Lock()
	if _, ok := c.idx[b]; !ok {
		c.idx[b] = len(c.slots)
		c.slots = append(c.slots, cslot{v: v, b: b})
		c.used.Add(b.bytes)
	}
	c.mu.Unlock()
}

// grow charges delta bytes against the budget (an insert into an
// already-resident block).
func (c *Cache) grow(delta int64) { c.used.Add(delta) }

// updateBytes re-points a resident block's charge at its exact re-encoded
// size (checkpoint encode recomputes it). Callers hold the view's mu.
func (c *Cache) updateBytes(b *blockMeta, bytes int64) {
	c.used.Add(bytes - b.bytes)
	b.bytes = bytes
}

// removeLocked drops slot i, fixing up the swapped-in index.
func (c *Cache) removeLocked(i int) {
	delete(c.idx, c.slots[i].b)
	last := len(c.slots) - 1
	if i != last {
		c.slots[i] = c.slots[last]
		c.idx[c.slots[i].b] = i
	}
	c.slots = c.slots[:last]
	if i+1 == c.hand {
		// i is the slot the hand just passed — the sweep's own victim. The
		// block swapped into it has not been looked at this lap; step back so
		// it is, or a long run of evictions skips every other candidate and
		// comes around to the referenced blocks it spared.
		c.hand = i
	}
	if c.hand > last {
		c.hand = 0
	}
}

// dropResident unregisters a block that is no longer resident (eviction,
// or replacement during restore/split). Callers hold the view's mu.
func (c *Cache) dropResident(b *blockMeta) {
	c.mu.Lock()
	if i, ok := c.idx[b]; ok {
		c.used.Add(-b.bytes)
		c.removeLocked(i)
	}
	c.mu.Unlock()
}

// replaceBlock swaps a resident block for the sub-blocks a checkpoint
// re-cut split it into. Callers hold the view's mu; subs are resident.
func (c *Cache) replaceBlock(v *View, old *blockMeta, subs []*blockMeta) {
	c.mu.Lock()
	if i, ok := c.idx[old]; ok {
		c.used.Add(-old.bytes)
		c.removeLocked(i)
	}
	for _, b := range subs {
		if _, ok := c.idx[b]; !ok {
			c.idx[b] = len(c.slots)
			c.slots = append(c.slots, cslot{v: v, b: b})
			c.used.Add(b.bytes)
		}
	}
	c.mu.Unlock()
}

// dropView unregisters every block of a view (DropView, restore).
// Callers hold the view's mu.
func (c *Cache) dropView(v *View) {
	c.mu.Lock()
	for i := 0; i < len(c.slots); {
		if c.slots[i].v == v {
			c.used.Add(-c.slots[i].b.bytes)
			c.removeLocked(i)
			continue // a new slot was swapped into i
		}
		i++
	}
	c.mu.Unlock()
}

// Maintain runs the eviction sweep on demand. Checkpoint commit calls it:
// blocks that piled up during a write burst are dirty and unevictable
// until the cut makes them clean, so without this the resident set would
// stay over budget until the next read fault happened to trigger a sweep.
func (c *Cache) Maintain() { c.maintain() }

// maintain runs the CLOCK sweep until residency fits the budget or no
// block is evictable (dirty blocks are pinned until the next checkpoint).
// Callers must NOT hold any view's mu: maintain takes the victim view's
// mu itself during eviction.
func (c *Cache) maintain() {
	if c == nil || c.budget <= 0 {
		return
	}
	attempts := 0
	for c.used.Load() > c.budget {
		c.mu.Lock()
		n := len(c.slots)
		if n == 0 {
			c.mu.Unlock()
			return
		}
		if attempts >= 2*n+8 {
			c.mu.Unlock()
			return // everything left is hot or dirty; give up this round
		}
		var victim cslot
		for ; attempts < 2*n+8; attempts++ {
			s := c.slots[c.hand%n]
			c.hand = (c.hand + 1) % n
			if s.b.hot.CompareAndSwap(true, false) {
				continue // referenced since last sweep: spare it one lap
			}
			victim = s
			attempts++ // a failed eviction must consume budget too
			break
		}
		c.mu.Unlock()
		if victim.b == nil {
			return
		}
		// Evict outside c.mu; the view re-verifies under its own mu,
		// unregisters the block itself (so a concurrent re-fault can't
		// interleave with the bookkeeping), and reports 0 if the block is
		// stale, dirty, or already gone. Progress renews the attempt
		// budget — the bound only guards against laps that free nothing.
		if freed := victim.v.evictBlock(victim.b); freed > 0 {
			c.evictions.Add(1)
			attempts = 0
		}
	}
}
