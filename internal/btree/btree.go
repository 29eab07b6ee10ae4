// Package btree implements an in-memory B-tree keyed by an arbitrary
// comparison function.
//
// The chronicle model's complexity results are stated "modulo index look
// ups" (Section 3) and Theorem 4.4 bounds view maintenance by
// O(t·log|V|); this tree is the ordered index behind relation key lookups,
// view group stores, and range scans that realize those bounds.
//
// Trees support cheap copy-on-write clones: Clone shares every node with
// the original in O(1), and subsequent mutations on either tree copy only
// the root-to-leaf path they touch. A clone that is never mutated again is
// an immutable snapshot that concurrent readers may traverse without any
// synchronization while the original keeps absorbing writes.
//
// A recycling tree (NewRecycling) also reuses the nodes its copies replace.
// A node a write copies away from may still be read through an older clone,
// so it is not reused at once: it is retired, and Reclaim turns the retired
// nodes into a free list that later copies and splits are filled from — once
// the caller knows that no clone which could reach them is read any more.
// Forget drops them to the collector instead. Only the recycling tree itself
// retires: its clones never do, so every retired node is one that left the
// recycling tree, and no node reachable from it is ever on the free list.
package btree

import (
	"slices"
	"sync/atomic"
)

// degree is the minimum number of children of an internal node. Nodes hold
// between degree-1 and 2*degree-1 items. 32 keeps nodes cache-friendly
// without deep trees.
const degree = 32

const (
	maxItems = 2*degree - 1
	minItems = degree - 1
)

// gens hands out owner generations. Every node records the generation of
// the tree that made it; a tree may mutate a node in place only when the
// generations match. Clone hands both trees fresh ones, so all shared nodes
// become frozen and the first writer to reach one copies it.
var gens atomic.Uint64

// Tree is a B-tree mapping keys of type K to values of type V. The zero
// value is not usable; construct trees with New or NewRecycling.
type Tree[K, V any] struct {
	less func(a, b K) bool
	root *node[K, V]
	size int
	gen  uint64
	pool *pool[K, V] // nil unless the tree recycles
}

type item[K, V any] struct {
	key K
	val V
}

type node[K, V any] struct {
	items    []item[K, V]
	children []*node[K, V] // nil for leaves
	gen      uint64        // owner generation; mutable only by the tree holding it
}

// pool is a recycling tree's node store.
//
// A free leaf serves only a copy whose items array the allocator would put
// in the same size class or the one above, so reuse leaves the live tree's
// arrays about as lean as fresh copies would: the recycling tree gives every
// new items array its whole size class, so all leaves of one class have one
// capacity, and keeps free leaves by that capacity (bucket). Served by
// whichever free leaf was at hand, or by the smallest that fit, the arrays of
// a 20 000-key view drifted to the largest each had ever needed, 1 126 KB
// where fresh copies take 719 KB, and a daemon's peak resident set rose 4 %.
// The class above is the slack a leaf that grew across a class boundary
// since its last copy needs: without it, the copies the free leaves could
// not serve cost maintain-fanout's timed phase 16 MB of allocation.
type pool[K, V any] struct {
	retired []*node[K, V]               // copied away from since the last Reclaim or Forget
	leaves  [maxItems + 2][]*node[K, V] // reusable leaves, by bucket
	inner   []*node[K, V]               // reusable inner nodes
	free    int                         // nodes in leaves and inner
	// class[n] is the bucket of a new items array with room for n, once one
	// has been made.
	class [maxItems + 2]int
	// most is the most nodes one Reclaim or Forget has settled, and the bound
	// of free: as many as the busiest round between two of them ever
	// replaced.
	most int
}

// New returns an empty tree ordered by less.
func New[K, V any](less func(a, b K) bool) *Tree[K, V] {
	return &Tree[K, V]{less: less, gen: gens.Add(1)}
}

// NewRecycling returns an empty recycling tree ordered by less: it retires
// the nodes its copies replace, for Reclaim to reuse.
func NewRecycling[K, V any](less func(a, b K) bool) *Tree[K, V] {
	t := New[K, V](less)
	t.pool = new(pool[K, V])
	return t
}

// Clone returns a copy of the tree sharing all nodes with the receiver.
// The clone costs O(1); afterwards each tree copies any shared node before
// mutating it (path copying), so the two diverge without ever observing
// each other's writes. A clone that is not mutated further is safe for
// concurrent lock-free reads even while the original continues to change.
// The clone does not recycle, whatever the receiver does.
func (t *Tree[K, V]) Clone() *Tree[K, V] {
	c := *t
	c.pool = nil
	// Fresh generations on both sides orphan every existing node: neither
	// tree owns them any more, so the first mutation on either side copies.
	g := gens.Add(2)
	t.gen, c.gen = g-1, g
	return &c
}

// Reclaim makes every retired node reusable. The caller promises that no
// clone taken before the tree's last write is read any more: such a clone
// may reach them, while one taken since shares none of them. No-op unless
// the tree recycles.
func (t *Tree[K, V]) Reclaim() {
	p := t.pool
	if p == nil {
		return
	}
	p.most = max(p.most, len(p.retired))
	// The nodes just retired are the likeliest to fit the next round's
	// copies; free nodes the last round left unused make room for them.
	p.trim(p.free + len(p.retired) - p.most)
	for _, n := range p.retired {
		if n.children != nil {
			p.inner = append(p.inner, n)
		} else {
			b := bucket(cap(n.items))
			p.leaves[b] = append(p.leaves[b], n)
		}
	}
	p.free += len(p.retired)
	clear(p.retired)
	p.retired = p.retired[:0]
}

// trim drops n of the free nodes, at most all of them, to the collector,
// the largest leaves first.
func (p *pool[K, V]) trim(n int) {
	if n <= 0 {
		return
	}
	p.free -= n
	for b := len(p.leaves) - 1; b >= 0 && n > 0; b-- {
		p.leaves[b], n = dropLast(p.leaves[b], n)
	}
	p.inner, _ = dropLast(p.inner, n)
}

// bucket is where a free leaf whose items array has capacity c is kept: by
// that capacity, with every capacity past the largest a copy asks for in the
// last bucket. A leaf in bucket b has room for b items.
func bucket(c int) int { return min(c, maxItems+1) }

// dropLast removes up to n elements from the end of f and returns it with
// how many more are left to remove.
func dropLast[E any](f []*E, n int) ([]*E, int) {
	k := min(n, len(f))
	clear(f[len(f)-k:])
	return f[:len(f)-k], n - k
}

// Forget drops the retired nodes to the collector, for when a clone that may
// reach them is still read. No-op unless the tree recycles.
func (t *Tree[K, V]) Forget() {
	if p := t.pool; p != nil {
		p.most = max(p.most, len(p.retired))
		clear(p.retired)
		p.retired = p.retired[:0]
	}
}

// Pool reports what a recycling tree keeps for reuse — held, the nodes
// retired or free — and bound, the most nodes one Reclaim or Forget has
// settled so far, which the free nodes never exceed. Zeros for a tree that
// does not recycle.
func (t *Tree[K, V]) Pool() (held, bound int) {
	if p := t.pool; p != nil {
		return len(p.retired) + p.free, p.most
	}
	return 0, 0
}

// newLeaf returns a leaf the tree owns with room for want items: when the
// tree recycles, a free leaf of the size class a new array for want takes
// or, when there is none, of the class above; else a new leaf.
func (t *Tree[K, V]) newLeaf(want int) *node[K, V] {
	p := t.pool
	if p == nil {
		return &node[K, V]{items: make([]item[K, V], 0, want), gen: t.gen}
	}
	b := p.class[want]
	if b > 0 && b <= maxItems && len(p.leaves[b]) == 0 {
		b = p.class[b+1] // the class above
	}
	if b > 0 && len(p.leaves[b]) > 0 {
		return t.take(&p.leaves[b])
	}
	// Grow rounds the array up to its size class, which costs no memory the
	// allocator would not take anyway, and shows which class that is.
	items := slices.Grow([]item[K, V](nil), want)
	p.class[want] = bucket(cap(items))
	return &node[K, V]{items: items, gen: t.gen}
}

// newInner returns an inner node the tree owns, a free one when the tree
// recycles and has one.
func (t *Tree[K, V]) newInner() *node[K, V] {
	if p := t.pool; p != nil && len(p.inner) > 0 {
		return t.take(&p.inner)
	}
	return &node[K, V]{gen: t.gen}
}

// take removes the last node of a non-empty free list and makes it the
// tree's.
func (t *Tree[K, V]) take(f *[]*node[K, V]) *node[K, V] {
	l := *f
	n := l[len(l)-1]
	l[len(l)-1] = nil
	*f = l[:len(l)-1]
	t.pool.free--
	n.gen = t.gen
	return n
}

// refill sets dst to a copy of src: in dst's own array when that has room
// for want elements, else in a new one of exactly want. A reused array holds
// nothing past the copy.
func refill[E any](dst, src []E, want int) []E {
	if cap(dst) < want {
		dst = make([]E, 0, want)
	}
	clear(dst[len(src):cap(dst)])
	return append(dst[:0], src...)
}

// mutable returns a node the tree may modify in place, copying n's items
// and child pointers into a node of its own when n is shared with a clone;
// a recycling tree retires n then. The copy has room for one more item: a
// node is copied because it is about to change, and a copy sized to its
// exact length would be reallocated by the very insert that asked for it.
// Room for one and not for a full node, because most copies are asked for by
// a replace or a child re-link, which add nothing: full-capacity copies
// measured 70 % more bytes per 64-row call into a 20 000-key view store, and
// a tenth more resident memory.
func (t *Tree[K, V]) mutable(n *node[K, V]) *node[K, V] {
	if n.gen == t.gen {
		return n
	}
	var m *node[K, V]
	if n.children == nil {
		m = t.newLeaf(len(n.items) + 1)
	} else {
		m = t.newInner()
		m.children = refill(m.children, n.children, len(n.children)+1)
	}
	m.items = refill(m.items, n.items, len(n.items)+1)
	if t.pool != nil {
		t.pool.retired = append(t.pool.retired, n)
	}
	return m
}

// mutableChild makes n.children[i] mutable and re-links it. n itself must
// already be mutable.
func (t *Tree[K, V]) mutableChild(n *node[K, V], i int) *node[K, V] {
	c := t.mutable(n.children[i])
	n.children[i] = c
	return c
}

// Len returns the number of entries in the tree.
func (t *Tree[K, V]) Len() int { return t.size }

// Height returns the number of levels from the root to the leaves, 0 for an
// empty tree: the most nodes a lookup visits. Every node but the root has at
// least degree children, so it is at most 1 + ⌈log_degree Len⌉.
func (t *Tree[K, V]) Height() int {
	if t.root == nil {
		return 0
	}
	h := 1
	for n := t.root; n.children != nil; n = n.children[0] {
		h++
	}
	return h
}

// Get returns the value stored under key.
func (t *Tree[K, V]) Get(key K) (V, bool) {
	n := t.root
	for n != nil {
		i, eq := t.search(n, key)
		if eq {
			return n.items[i].val, true
		}
		if n.children == nil {
			break
		}
		n = n.children[i]
	}
	var zero V
	return zero, false
}

// Find returns the entry cmp reports equal to what it seeks. cmp(k) is
// negative, zero or positive as the sought key is below, equal to or above
// k: a caller can probe with a key of another shape — a byte slice against
// string keys — without converting it.
func (t *Tree[K, V]) Find(cmp func(K) int) (K, V, bool) {
	n := t.root
	for n != nil {
		lo, hi := 0, len(n.items)
		for lo < hi {
			mid := (lo + hi) / 2
			c := cmp(n.items[mid].key)
			if c == 0 {
				return n.items[mid].key, n.items[mid].val, true
			}
			if c > 0 {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if n.children == nil {
			break
		}
		n = n.children[lo]
	}
	var k K
	var v V
	return k, v, false
}

// Set inserts key with value val, replacing any existing entry. It reports
// whether the key was already present. An existing entry keeps the key it
// was stored under.
func (t *Tree[K, V]) Set(key K, val V) (replaced bool) {
	_, replaced = t.set(key, val, false)
	return replaced
}

// Put is Set that also stores key in place of an equal key already present,
// and returns the key it displaced — for keys that carry more than their
// order, like a row that sorts by its key columns.
func (t *Tree[K, V]) Put(key K, val V) (old K, replaced bool) {
	return t.set(key, val, true)
}

func (t *Tree[K, V]) set(key K, val V, swapKey bool) (old K, replaced bool) {
	if t.root == nil {
		t.root = t.newLeaf(1)
		t.root.items = append(refill(t.root.items, nil, 0), item[K, V]{key, val})
		t.size = 1
		return old, false
	}
	t.root = t.mutable(t.root)
	if len(t.root.items) >= maxItems {
		root := t.root
		t.root = t.newInner()
		t.root.items = refill(t.root.items, nil, 0)
		t.root.children = append(refill(t.root.children, nil, 0), root)
		t.splitChild(t.root, 0)
	}
	old, replaced = t.insertNonFull(t.root, key, val, swapKey)
	if !replaced {
		t.size++
	}
	return old, replaced
}

// Delete removes key from the tree and reports whether it was present.
func (t *Tree[K, V]) Delete(key K) bool {
	if t.root == nil {
		return false
	}
	t.root = t.mutable(t.root)
	deleted := t.delete(t.root, key)
	if len(t.root.items) == 0 && t.root.children != nil {
		t.root = t.root.children[0]
	}
	if t.root != nil && len(t.root.items) == 0 && t.root.children == nil {
		t.root = nil
	}
	if deleted {
		t.size--
	}
	return deleted
}

// Min returns the smallest entry.
func (t *Tree[K, V]) Min() (K, V, bool) {
	if t.root == nil {
		var k K
		var v V
		return k, v, false
	}
	n := t.root
	for n.children != nil {
		n = n.children[0]
	}
	it := n.items[0]
	return it.key, it.val, true
}

// Max returns the largest entry.
func (t *Tree[K, V]) Max() (K, V, bool) {
	if t.root == nil {
		var k K
		var v V
		return k, v, false
	}
	n := t.root
	for n.children != nil {
		n = n.children[len(n.children)-1]
	}
	it := n.items[len(n.items)-1]
	return it.key, it.val, true
}

// Ascend visits every entry in ascending key order until fn returns false.
func (t *Tree[K, V]) Ascend(fn func(key K, val V) bool) {
	t.ascend(t.root, fn)
}

func (t *Tree[K, V]) ascend(n *node[K, V], fn func(K, V) bool) bool {
	if n == nil {
		return true
	}
	for i, it := range n.items {
		if n.children != nil && !t.ascend(n.children[i], fn) {
			return false
		}
		if !fn(it.key, it.val) {
			return false
		}
	}
	if n.children != nil {
		return t.ascend(n.children[len(n.children)-1], fn)
	}
	return true
}

// AscendRange visits entries with lo <= key < hi in ascending order until fn
// returns false.
func (t *Tree[K, V]) AscendRange(lo, hi K, fn func(key K, val V) bool) {
	t.ascendRange(t.root, lo, hi, fn)
}

func (t *Tree[K, V]) ascendRange(n *node[K, V], lo, hi K, fn func(K, V) bool) bool {
	if n == nil {
		return true
	}
	start, _ := t.search(n, lo)
	for i := start; i < len(n.items); i++ {
		it := n.items[i]
		if !t.less(it.key, hi) {
			// Everything at and after it.key is >= hi; still descend into
			// the child to its left for in-range keys.
			if n.children != nil {
				return t.ascendRange(n.children[i], lo, hi, fn)
			}
			return true
		}
		if n.children != nil && !t.ascendRange(n.children[i], lo, hi, fn) {
			return false
		}
		if !t.less(it.key, lo) && !fn(it.key, it.val) {
			return false
		}
	}
	if n.children != nil {
		return t.ascendRange(n.children[len(n.children)-1], lo, hi, fn)
	}
	return true
}

// AscendGreaterOrEqual visits entries with key >= lo in ascending order.
func (t *Tree[K, V]) AscendGreaterOrEqual(lo K, fn func(key K, val V) bool) {
	t.ascendGE(t.root, lo, fn)
}

func (t *Tree[K, V]) ascendGE(n *node[K, V], lo K, fn func(K, V) bool) bool {
	if n == nil {
		return true
	}
	start, _ := t.search(n, lo)
	for i := start; i < len(n.items); i++ {
		if n.children != nil && !t.ascendGE(n.children[i], lo, fn) {
			return false
		}
		it := n.items[i]
		if !t.less(it.key, lo) && !fn(it.key, it.val) {
			return false
		}
	}
	if n.children != nil {
		return t.ascendGE(n.children[len(n.children)-1], lo, fn)
	}
	return true
}

// AscendLessThan visits entries with key < hi in ascending order until fn
// returns false.
func (t *Tree[K, V]) AscendLessThan(hi K, fn func(key K, val V) bool) {
	t.ascendLT(t.root, hi, fn)
}

func (t *Tree[K, V]) ascendLT(n *node[K, V], hi K, fn func(K, V) bool) bool {
	if n == nil {
		return true
	}
	for i, it := range n.items {
		if !t.less(it.key, hi) {
			if n.children != nil {
				return t.ascendLT(n.children[i], hi, fn)
			}
			return true
		}
		if n.children != nil && !t.ascendLT(n.children[i], hi, fn) {
			return false
		}
		if !fn(it.key, it.val) {
			return false
		}
	}
	if n.children != nil {
		return t.ascendLT(n.children[len(n.children)-1], hi, fn)
	}
	return true
}

// Descend visits every entry in descending key order until fn returns
// false.
func (t *Tree[K, V]) Descend(fn func(key K, val V) bool) {
	t.descend(t.root, fn)
}

func (t *Tree[K, V]) descend(n *node[K, V], fn func(K, V) bool) bool {
	if n == nil {
		return true
	}
	if n.children != nil && !t.descend(n.children[len(n.children)-1], fn) {
		return false
	}
	for i := len(n.items) - 1; i >= 0; i-- {
		it := n.items[i]
		if !fn(it.key, it.val) {
			return false
		}
		if n.children != nil && !t.descend(n.children[i], fn) {
			return false
		}
	}
	return true
}

// DescendRange visits entries with lo <= key < hi in descending key order
// until fn returns false — the same half-open window as AscendRange,
// walked newest-first.
func (t *Tree[K, V]) DescendRange(lo, hi K, fn func(key K, val V) bool) {
	t.descendRange(t.root, lo, hi, fn)
}

func (t *Tree[K, V]) descendRange(n *node[K, V], lo, hi K, fn func(K, V) bool) bool {
	if n == nil {
		return true
	}
	// end is the first index with key >= hi: items[end-1] and below may be
	// in range, and children[end] can still hold keys below hi.
	end, _ := t.search(n, hi)
	if n.children != nil && !t.descendRange(n.children[end], lo, hi, fn) {
		return false
	}
	for i := end - 1; i >= 0; i-- {
		it := n.items[i]
		if t.less(it.key, lo) {
			// it.key and everything left of it is below the window.
			return true
		}
		if !fn(it.key, it.val) {
			return false
		}
		if n.children != nil && !t.descendRange(n.children[i], lo, hi, fn) {
			return false
		}
	}
	return true
}

// search returns the index of the first item >= key in n, and whether that
// item equals key.
func (t *Tree[K, V]) search(n *node[K, V], key K) (int, bool) {
	lo, hi := 0, len(n.items)
	for lo < hi {
		mid := (lo + hi) / 2
		if t.less(n.items[mid].key, key) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(n.items) && !t.less(key, n.items[lo].key) {
		return lo, true
	}
	return lo, false
}

// splitChild splits the full child at index i of parent. parent must be
// mutable; the child is made mutable here before its items move.
func (t *Tree[K, V]) splitChild(parent *node[K, V], i int) {
	child := t.mutableChild(parent, i)
	mid := len(child.items) / 2
	midItem := child.items[mid]

	// Both halves keep full node capacity (the left its own array, with the
	// moved tail cleared so it pins nothing), so neither is reallocated by
	// the inserts that follow the split.
	var right *node[K, V]
	if child.children == nil {
		right = t.newLeaf(maxItems)
	} else {
		right = t.newInner()
		right.children = refill(right.children, child.children[mid+1:], maxItems+1)
		clear(child.children[mid+1:])
		child.children = child.children[:mid+1]
	}
	right.items = refill(right.items, child.items[mid+1:], maxItems)
	clear(child.items[mid:])
	child.items = child.items[:mid]

	parent.items = append(parent.items, item[K, V]{})
	copy(parent.items[i+1:], parent.items[i:])
	parent.items[i] = midItem

	parent.children = append(parent.children, nil)
	copy(parent.children[i+2:], parent.children[i+1:])
	parent.children[i+1] = right
}

// insertNonFull inserts into the subtree rooted at n, which must be
// mutable and not full; every child it descends into is made mutable
// first, so the whole root-to-leaf path is owned by this tree. An equal
// entry takes val, and key too when swapKey is set; old is its former key.
func (t *Tree[K, V]) insertNonFull(n *node[K, V], key K, val V, swapKey bool) (old K, replaced bool) {
	for {
		i, eq := t.search(n, key)
		if !eq && n.children == nil {
			n.items = append(n.items, item[K, V]{})
			copy(n.items[i+1:], n.items[i:])
			n.items[i] = item[K, V]{key, val}
			return old, false
		}
		if !eq && len(n.children[i].items) >= maxItems {
			t.splitChild(n, i)
			if t.less(n.items[i].key, key) {
				i++
			} else {
				eq = !t.less(key, n.items[i].key)
			}
		}
		if eq {
			it := &n.items[i]
			old, it.val = it.key, val
			if swapKey {
				it.key = key
			}
			return old, true
		}
		n = t.mutableChild(n, i)
	}
}

// delete removes key from the subtree rooted at n, which must be mutable.
func (t *Tree[K, V]) delete(n *node[K, V], key K) bool {
	i, eq := t.search(n, key)
	if n.children == nil {
		if !eq {
			return false
		}
		n.items = append(n.items[:i], n.items[i+1:]...)
		return true
	}
	if eq {
		// Replace with predecessor from the left subtree, then delete it.
		child := t.mutableChild(n, i)
		if len(child.items) > minItems {
			pred := t.maxItem(child)
			n.items[i] = pred
			return t.delete(child, pred.key)
		}
		rchild := t.mutableChild(n, i+1)
		if len(rchild.items) > minItems {
			succ := t.minItem(rchild)
			n.items[i] = succ
			return t.delete(rchild, succ.key)
		}
		t.mergeChildren(n, i)
		return t.delete(n.children[i], key)
	}
	child := t.mutableChild(n, i)
	if len(child.items) <= minItems {
		i = t.rebalance(n, i)
		child = n.children[i]
	}
	return t.delete(child, key)
}

func (t *Tree[K, V]) maxItem(n *node[K, V]) item[K, V] {
	for n.children != nil {
		n = n.children[len(n.children)-1]
	}
	return n.items[len(n.items)-1]
}

func (t *Tree[K, V]) minItem(n *node[K, V]) item[K, V] {
	for n.children != nil {
		n = n.children[0]
	}
	return n.items[0]
}

// rebalance ensures n.children[i] has more than minItems items, borrowing
// from a sibling or merging. n and n.children[i] must be mutable. It
// returns the (possibly shifted) child index; the child at that index is
// mutable on return.
func (t *Tree[K, V]) rebalance(n *node[K, V], i int) int {
	if i > 0 && len(n.children[i-1].items) > minItems {
		// Rotate right: move separator down, left sibling's max up.
		child, left := n.children[i], t.mutableChild(n, i-1)
		child.items = append(child.items, item[K, V]{})
		copy(child.items[1:], child.items)
		child.items[0] = n.items[i-1]
		n.items[i-1] = left.items[len(left.items)-1]
		left.items = left.items[:len(left.items)-1]
		if left.children != nil {
			moved := left.children[len(left.children)-1]
			left.children = left.children[:len(left.children)-1]
			child.children = append(child.children, nil)
			copy(child.children[1:], child.children)
			child.children[0] = moved
		}
		return i
	}
	if i < len(n.children)-1 && len(n.children[i+1].items) > minItems {
		// Rotate left: move separator down, right sibling's min up.
		child, right := n.children[i], t.mutableChild(n, i+1)
		child.items = append(child.items, n.items[i])
		n.items[i] = right.items[0]
		right.items = append(right.items[:0], right.items[1:]...)
		if right.children != nil {
			moved := right.children[0]
			right.children = append(right.children[:0], right.children[1:]...)
			child.children = append(child.children, moved)
		}
		return i
	}
	if i > 0 {
		t.mergeChildren(n, i-1)
		return i - 1
	}
	t.mergeChildren(n, i)
	return i
}

// mergeChildren merges n.children[i], n.items[i], and n.children[i+1] into a
// single child at position i. n must be mutable; both children are made
// mutable here.
func (t *Tree[K, V]) mergeChildren(n *node[K, V], i int) {
	left := t.mutableChild(n, i)
	right := n.children[i+1]
	left.items = append(left.items, n.items[i])
	left.items = append(left.items, right.items...)
	left.children = append(left.children, right.children...)
	n.items = append(n.items[:i], n.items[i+1:]...)
	n.children = append(n.children[:i+1], n.children[i+2:]...)
}

// DeleteRange removes every key in the half-open window [lo, hi) and
// returns how many were removed. hasLo/hasHi mark which bounds are
// present; an absent bound is unbounded on that side. Keys are collected
// first and then deleted one by one, so the walk never observes its own
// mutations — block eviction in the paged view store deletes one block's
// key run this way.
func (t *Tree[K, V]) DeleteRange(lo, hi K, hasLo, hasHi bool) int {
	keys := make([]K, 0, 16)
	collect := func(k K, _ V) bool { keys = append(keys, k); return true }
	switch {
	case hasLo && hasHi:
		t.AscendRange(lo, hi, collect)
	case hasLo:
		t.AscendGreaterOrEqual(lo, collect)
	case hasHi:
		t.AscendLessThan(hi, collect)
	default:
		t.Ascend(collect)
	}
	for _, k := range keys {
		t.Delete(k)
	}
	return len(keys)
}
