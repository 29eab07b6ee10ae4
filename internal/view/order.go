package view

import (
	"sync/atomic"
	"unsafe"
)

// order is a key directory's ids in key order: an insert-only skiplist whose
// links are ids, compared by the key bytes the directory keeps, so no key is
// copied. It is the one ordered index of every view of the directory: a
// range, an ORDER BY on the key, latest-N and a block of a paged view are
// walks of it, each reading the walking view's published entries by id.
//
// Level 0 is doubly linked — next and prev of an id, each an id+1, 0 for
// none — so a walk runs either way from where a seek lands. The levels above
// are towers: a node of height h > 1 owns h consecutive cells of tower, the
// first its id and cell l its successor's tower at level l (a cell index+1, 0
// for none). A tower is found only from the head or another tower, so an id
// needs no pointer to its own. Heights are drawn with p = 1/4: a node costs
// the order its two level-0 links and a third of a tower cell on average, and
// a search reads about 2·log₂|keys| keys — one, for a key past every key
// held (see last).
//
// One writer inserts, under the directory's lock, and only ids the directory
// has just handed out (Dir.intern): a key already there costs the order
// nothing. Readers walk without locks. A node's own links are written before
// the link that makes it reachable at each level, bottom level first, so a
// reader that reaches a node finds it whole. A reader may miss a node
// inserted under it — a backward walk past it, a forward walk that already
// passed its predecessor — but such a node is new to the directory, and no
// view publishes an entry for an id before the insert that ordered it has
// returned, so the walk was not owed it: a view's publication that followed
// the insert changes its publish sequence, which the walk checks (see
// View.Scan).
type order struct {
	next, prev paged[atomic.Uint32]
	tower      paged[atomic.Uint32]
	head       [maxLevel]atomic.Uint32 // level 0: the first id+1; above: the first tower cell+1
	tail       atomic.Uint32           // the last id+1

	// Writer state, guarded by the directory's lock. last is the last
	// tower at each level ≥ 1 (a cell+1, 0 for none): with tail, the
	// predecessors of a key past every key held, which keys that arrive in
	// ascending order — a load in key order, keys that grow with time —
	// link after one comparison.
	last   [maxLevel]uint32
	cells  uint32 // tower cells handed out
	rnd    uint64 // height source
	visits int64  // keys read by inserts
}

// maxLevel bounds a tower: 4¹⁶ keys before the top level thins out.
const maxLevel = 16

// height draws a new node's height: h with probability (3/4)·(1/4)^(h-1).
func (o *order) height() int {
	if o.rnd == 0 {
		o.rnd = 0x9E3779B97F4A7C15
	}
	o.rnd ^= o.rnd << 13
	o.rnd ^= o.rnd >> 7
	o.rnd ^= o.rnd << 17
	h := 1
	for r := o.rnd; r&3 == 0 && h < maxLevel; r >>= 2 {
		h++
	}
	return h
}

// succ is the level-0 successor of node n (an id+1; 0 is the head).
func (o *order) succ(n uint32) uint32 {
	if n == 0 {
		return o.head[0].Load()
	}
	return o.next.at(n - 1).Load()
}

// pred is the level-0 predecessor of node n (an id+1), 0 at the head.
func (o *order) pred(n uint32) uint32 { return o.prev.at(n - 1).Load() }

// link is tower x's successor at level l ≥ 1 (a cell+1; 0 is the head).
func (o *order) link(x uint32, l int) uint32 {
	if x == 0 {
		return o.head[l].Load()
	}
	return o.tower.at(x - 1 + uint32(l)).Load()
}

// below returns the last node whose key is below k (an id+1, 0 for none).
// With upd set — the writer — it records the last tower below k at each
// level ≥ 1 and counts the keys it reads.
func (d *Dir) below(k string, upd *[maxLevel]uint32) uint32 {
	o := &d.ord
	x := uint32(0)
	for l := maxLevel - 1; l >= 1; l-- {
		for {
			n := o.link(x, l)
			if n == 0 {
				break
			}
			if upd != nil {
				o.visits++
			}
			if d.key(o.tower.at(n-1).Load()) >= k {
				break
			}
			x = n
		}
		if upd != nil {
			upd[l] = x
		}
	}
	y := uint32(0)
	if x != 0 {
		y = o.tower.at(x-1).Load() + 1
	}
	for {
		n := o.succ(y)
		if n == 0 {
			return y
		}
		if upd != nil {
			o.visits++
		}
		if d.key(n-1) >= k {
			return y
		}
		y = n
	}
}

// insert links id, a key new to the directory, into the order. Callers hold
// mu.
func (d *Dir) insert(id uint32) {
	o := &d.ord
	k := d.key(id)
	var upd [maxLevel]uint32
	p := o.tail.Load()
	if p != 0 {
		o.visits++
	}
	if p != 0 && d.key(p-1) < k {
		upd = o.last
	} else {
		p = d.below(k, &upd)
	}
	s := o.succ(p)
	o.next.slot(id).Store(s)
	o.prev.slot(id).Store(p)
	if p == 0 {
		o.head[0].Store(id + 1)
	} else {
		o.next.at(p - 1).Store(id + 1)
	}
	if s == 0 {
		o.tail.Store(id + 1)
	} else {
		o.prev.at(s - 1).Store(id + 1)
	}
	h := o.height()
	if h == 1 {
		return
	}
	t := o.cells
	o.cells += uint32(h)
	o.tower.slot(t).Store(id)
	for l := 1; l < h; l++ {
		o.tower.slot(t + uint32(l)).Store(o.link(upd[l], l))
	}
	for l := 1; l < h; l++ {
		if o.tower.at(t+uint32(l)).Load() == 0 {
			o.last[l] = t + 1
		}
		if upd[l] == 0 {
			o.head[l].Store(t + 1)
		} else {
			o.tower.at(upd[l] - 1 + uint32(l)).Store(t + 1)
		}
	}
}

// walk visits the ids whose keys lie in [lo, hi), ascending or, with desc,
// descending, until fn returns false. An empty bound is open. Lock-free.
func (d *Dir) walk(lo, hi []byte, desc bool, fn func(id uint32) bool) {
	o := &d.ord
	if !desc {
		n := o.head[0].Load()
		if len(lo) > 0 {
			n = o.succ(d.below(bytesString(lo), nil))
		}
		for ; n != 0; n = o.succ(n) {
			if len(hi) > 0 && d.key(n-1) >= bytesString(hi) || !fn(n-1) {
				return
			}
		}
		return
	}
	n := o.tail.Load()
	if len(hi) > 0 {
		n = d.below(bytesString(hi), nil)
	}
	for ; n != 0; n = o.pred(n) {
		if len(lo) > 0 && d.key(n-1) < bytesString(lo) || !fn(n-1) {
			return
		}
	}
}

// bytesString views b as a string for a comparison that does not outlive it.
func bytesString(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }
