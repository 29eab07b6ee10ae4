// Package btree implements an in-memory B-tree keyed by an arbitrary
// comparison function.
//
// The chronicle model's complexity results are stated "modulo index look
// ups" (Section 3) and Theorem 4.4 bounds view maintenance by
// O(t·log|V|); this tree is the ordered index behind relation key lookups:
// a relation's current rows and its superseded versions are each one tree,
// read by key and walked in key order.
//
// Trees support cheap copy-on-write clones: Clone shares every node with
// the original in O(1), and subsequent mutations on either tree copy only
// the root-to-leaf path they touch. A clone that is never mutated again is
// an immutable snapshot that concurrent readers may traverse without any
// synchronization while the original keeps absorbing writes.
package btree

import "sync/atomic"

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
// value is not usable; construct trees with New.
type Tree[K, V any] struct {
	less func(a, b K) bool
	root *node[K, V]
	size int
	gen  uint64
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

// New returns an empty tree ordered by less.
func New[K, V any](less func(a, b K) bool) *Tree[K, V] {
	return &Tree[K, V]{less: less, gen: gens.Add(1)}
}

// Clone returns a copy of the tree sharing all nodes with the receiver.
// The clone costs O(1); afterwards each tree copies any shared node before
// mutating it (path copying), so the two diverge without ever observing
// each other's writes. A clone that is not mutated further is safe for
// concurrent lock-free reads even while the original continues to change.
func (t *Tree[K, V]) Clone() *Tree[K, V] {
	c := *t
	// Fresh generations on both sides orphan every existing node: neither
	// tree owns them any more, so the first mutation on either side copies.
	g := gens.Add(2)
	t.gen, c.gen = g-1, g
	return &c
}

// newLeaf returns a leaf the tree owns with room for want items.
func (t *Tree[K, V]) newLeaf(want int) *node[K, V] {
	return &node[K, V]{items: make([]item[K, V], 0, want), gen: t.gen}
}

// newInner returns an inner node the tree owns.
func (t *Tree[K, V]) newInner() *node[K, V] { return &node[K, V]{gen: t.gen} }

// refill sets dst to a copy of src: in dst's own array when that has room
// for want elements, else in a new one of exactly want.
func refill[E any](dst, src []E, want int) []E {
	if cap(dst) < want {
		dst = make([]E, 0, want)
	}
	return append(dst[:0], src...)
}

// mutable returns a node the tree may modify in place, copying n's items
// and child pointers into a node of its own when n is shared with a clone.
// The copy has room for one more item: a
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
		t.splitChild(t.root, 0, t.less(root.items[len(root.items)-1].key, key))
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
// mutable; the child is made mutable here before its items move. A child
// split at its middle leaves two half-full nodes; one split atEnd, for an
// insert past the last key of the tree, keeps all but its last item and the
// separator before it, so that keys arriving in order — a checkpoint
// restore, UPSERTs by ascending key — leave full nodes behind them.
func (t *Tree[K, V]) splitChild(parent *node[K, V], i int, atEnd bool) {
	child := t.mutableChild(parent, i)
	mid := len(child.items) / 2
	if atEnd {
		mid = len(child.items) - 2
	}
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
	edge := true // n is the last node of its level
	for {
		i, eq := t.search(n, key)
		if !eq && n.children == nil {
			n.items = append(n.items, item[K, V]{})
			copy(n.items[i+1:], n.items[i:])
			n.items[i] = item[K, V]{key, val}
			return old, false
		}
		edge = edge && !eq && i == len(n.children)-1
		if !eq && len(n.children[i].items) >= maxItems {
			c := n.children[i]
			t.splitChild(n, i, edge && t.less(c.items[len(c.items)-1].key, key))
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
