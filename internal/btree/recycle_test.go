package btree

import (
	"math/rand"
	"testing"
)

// nodesOf adds every node reachable from n to seen.
func nodesOf[K, V any](n *node[K, V], seen map[*node[K, V]]bool) {
	if n == nil {
		return
	}
	seen[n] = true
	for _, c := range n.children {
		nodesOf(c, seen)
	}
}

// TestRecyclingModel runs random Set, Delete, DeleteRange, Clone and settle
// sequences on a recycling tree while some of its clones are held, the way
// the view store holds published snapshots for readers. A clone is stale
// once the tree has been written after it was taken: it may reach retired
// nodes. A settle releases some held clones, then Reclaims if no stale one is
// left and Forgets otherwise — the view's quiet test. Some clones are written
// themselves, as a paged view's side clone is; they must copy without
// retiring. After every settle no node on the free list is reachable from a
// held clone or from the tree, and the free list is within its bound; at the
// end every held clone still has the contents it was taken with.
func TestRecyclingModel(t *testing.T) {
	type held struct {
		c     *Tree[int, string]
		want  map[int]string
		stale bool
	}
	copyMap := func(m map[int]string) map[int]string {
		out := make(map[int]string, len(m))
		for k, v := range m {
			out[k] = v
		}
		return out
	}
	reclaims, reused := 0, 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := NewRecycling[int, string](func(a, b int) bool { return a < b })
		ref := map[int]string{}
		var hold []*held
		wrote := func() {
			for _, h := range hold {
				h.stale = true
			}
		}
		for op := 0; op < 3000; op++ {
			k := rng.Intn(2000)
			switch r := rng.Intn(40); {
			case r < 22:
				v := string(rune('a' + op%26))
				if tr.pool.free > 0 {
					reused++
				}
				tr.Set(k, v)
				ref[k] = v
				wrote()
			case r < 30:
				tr.Delete(k)
				delete(ref, k)
				wrote()
			case r < 31:
				hi := k + rng.Intn(60)
				tr.DeleteRange(k, hi, true, true)
				for x := k; x < hi; x++ {
					delete(ref, x)
				}
				wrote()
			case r < 35:
				h := &held{c: tr.Clone(), want: copyMap(ref)}
				if rng.Intn(3) == 0 && len(hold) > 0 {
					// A side clone: taken from a held clone and written, never
					// from or into the tree.
					p := hold[rng.Intn(len(hold))]
					h = &held{c: p.c.Clone(), want: copyMap(p.want), stale: p.stale}
					for i := 0; i < 20; i++ {
						x := rng.Intn(2000)
						h.c.Set(x, "side")
						h.want[x] = "side"
					}
				}
				if rng.Intn(2) == 0 {
					hold = append(hold, h)
				}
			default:
				kept := hold[:0]
				stale := false
				for _, h := range hold {
					if rng.Intn(2) == 0 {
						continue // released
					}
					kept = append(kept, h)
					stale = stale || h.stale
				}
				clear(hold[len(kept):])
				hold = kept
				if stale {
					tr.Forget()
					continue
				}
				tr.Reclaim()
				reclaims++
				p := tr.pool
				free := append([]*node[int, string](nil), p.inner...)
				for _, f := range p.leaves {
					free = append(free, f...)
				}
				if len(free) != p.free || p.free > p.most {
					t.Fatalf("seed %d op %d: %d free nodes, counted %d, bound %d", seed, op, len(free), p.free, p.most)
				}
				reach := map[*node[int, string]]bool{}
				nodesOf(tr.root, reach)
				for _, h := range hold {
					nodesOf(h.c.root, reach)
				}
				for _, n := range free {
					if reach[n] {
						t.Fatalf("seed %d op %d: a free node is reachable from the tree or a held clone", seed, op)
					}
				}
			}
		}
		treeEqualsRef(t, "recycling tree", tr, ref)
		for i, h := range hold {
			treeEqualsRef(t, "held clone "+string(rune('A'+i%26)), h.c, h.want)
		}
	}
	if reclaims == 0 || reused == 0 {
		t.Fatalf("the model never exercised reuse: %d reclaims, %d writes with free nodes", reclaims, reused)
	}
}

// TestCloneDoesNotRecycle: a clone of a recycling tree copies without
// retiring, so writing it leaves the tree's pool alone.
func TestCloneDoesNotRecycle(t *testing.T) {
	tr := NewRecycling[int, string](func(a, b int) bool { return a < b })
	for i := 0; i < 1000; i++ {
		tr.Set(i, "v")
	}
	c := tr.Clone()
	for i := 0; i < 1000; i += 7 {
		c.Set(i, "clone")
	}
	if held, _ := tr.Pool(); held != 0 {
		t.Fatalf("writing a clone retired %d of the tree's nodes", held)
	}
	if held, bound := c.Pool(); held != 0 || bound != 0 {
		t.Fatalf("a clone has a pool: %d held, bound %d", held, bound)
	}
	tr.Set(3, "tree")
	if held, _ := tr.Pool(); held == 0 {
		t.Fatal("writing the tree after a clone retired nothing")
	}
}
