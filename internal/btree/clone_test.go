package btree

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// treeEqualsRef asserts the tree's contents match the reference map
// exactly, including iteration order.
func treeEqualsRef(t *testing.T, label string, tr *Tree[int, string], ref map[int]string) {
	t.Helper()
	if tr.Len() != len(ref) {
		t.Fatalf("%s: Len = %d, want %d", label, tr.Len(), len(ref))
	}
	for k, v := range ref {
		got, ok := tr.Get(k)
		if !ok || got != v {
			t.Fatalf("%s: Get(%d) = %q,%v want %q", label, k, got, ok, v)
		}
	}
	prev := -1 << 30
	count := 0
	tr.Ascend(func(k int, v string) bool {
		if k <= prev {
			t.Fatalf("%s: Ascend out of order at %d", label, k)
		}
		if want, ok := ref[k]; !ok || want != v {
			t.Fatalf("%s: Ascend saw %d=%q, ref has %q (present=%v)", label, k, v, want, ok)
		}
		prev = k
		count++
		return true
	})
	if count != len(ref) {
		t.Fatalf("%s: Ascend visited %d, want %d", label, count, len(ref))
	}
}

func TestCloneDivergence(t *testing.T) {
	tr := intTree()
	refA := map[int]string{}
	for i := 0; i < 5000; i++ {
		tr.Set(i, "orig")
		refA[i] = "orig"
	}
	cl := tr.Clone()
	refB := map[int]string{}
	for k, v := range refA {
		refB[k] = v
	}

	// Mutate parent and clone divergently: the parent overwrites and
	// deletes evens, the clone overwrites odds and inserts a fresh range.
	for i := 0; i < 5000; i += 2 {
		tr.Set(i, "parent")
		refA[i] = "parent"
	}
	for i := 0; i < 5000; i += 4 {
		tr.Delete(i)
		delete(refA, i)
	}
	for i := 1; i < 5000; i += 2 {
		cl.Set(i, "clone")
		refB[i] = "clone"
	}
	for i := 5000; i < 6000; i++ {
		cl.Set(i, "clone-new")
		refB[i] = "clone-new"
	}

	treeEqualsRef(t, "parent", tr, refA)
	treeEqualsRef(t, "clone", cl, refB)
}

func TestCloneIsImmutableSnapshot(t *testing.T) {
	// The snapshot pattern used by the view layer: clone, keep the clone
	// frozen, keep writing to the original. The clone must keep the exact
	// contents it had at clone time.
	tr := intTree()
	ref := map[int]string{}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 2000; i++ {
		k := rng.Intn(3000)
		tr.Set(k, "v1")
		ref[k] = "v1"
	}
	snap := tr.Clone()
	want := map[int]string{}
	for k, v := range ref {
		want[k] = v
	}
	for i := 0; i < 20000; i++ {
		k := rng.Intn(3000)
		if rng.Intn(3) == 0 {
			tr.Delete(k)
		} else {
			tr.Set(k, "v2")
		}
	}
	treeEqualsRef(t, "snapshot", snap, want)
}

func TestCloneChains(t *testing.T) {
	// Repeated clone-then-mutate, as the maintenance loop does once per
	// committed batch: each snapshot must pin its own generation.
	tr := intTree()
	ref := map[int]string{}
	type gen struct {
		snap *Tree[int, string]
		want map[int]string
	}
	var gens []gen
	rng := rand.New(rand.NewSource(3))
	for g := 0; g < 30; g++ {
		for i := 0; i < 200; i++ {
			k := rng.Intn(1500)
			if rng.Intn(4) == 0 {
				tr.Delete(k)
				delete(ref, k)
			} else {
				v := string(rune('a' + g%26))
				tr.Set(k, v)
				ref[k] = v
			}
		}
		want := make(map[int]string, len(ref))
		for k, v := range ref {
			want[k] = v
		}
		gens = append(gens, gen{tr.Clone(), want})
	}
	for i, g := range gens {
		if g.snap.Len() != len(g.want) {
			t.Fatalf("gen %d: Len = %d want %d", i, g.snap.Len(), len(g.want))
		}
		for k, v := range g.want {
			got, ok := g.snap.Get(k)
			if !ok || got != v {
				t.Fatalf("gen %d: Get(%d) = %q,%v want %q", i, k, got, ok, v)
			}
		}
	}
}

func TestCloneRandomOpsAgainstMaps(t *testing.T) {
	// Interleave random ops on parent and clone, comparing both against
	// independent reference maps throughout; re-clone periodically so
	// sharing is re-established mid-stream.
	rng := rand.New(rand.NewSource(1234))
	a := intTree()
	refA := map[int]string{}
	b := a.Clone()
	refB := map[int]string{}
	letters := "abcdefg"
	for op := 0; op < 60000; op++ {
		tr, ref := a, refA
		if op%2 == 1 {
			tr, ref = b, refB
		}
		k := rng.Intn(1000)
		switch rng.Intn(3) {
		case 0, 1:
			v := string(letters[rng.Intn(len(letters))])
			gotReplaced := tr.Set(k, v)
			_, wantReplaced := ref[k]
			if gotReplaced != wantReplaced {
				t.Fatalf("op %d: Set(%d) replaced=%v want %v", op, k, gotReplaced, wantReplaced)
			}
			ref[k] = v
		case 2:
			gotDeleted := tr.Delete(k)
			_, wantDeleted := ref[k]
			if gotDeleted != wantDeleted {
				t.Fatalf("op %d: Delete(%d)=%v want %v", op, k, gotDeleted, wantDeleted)
			}
			delete(ref, k)
		}
		if op%7919 == 0 {
			// Re-clone from whichever side just mutated.
			b = a.Clone()
			refB = map[int]string{}
			for k, v := range refA {
				refB[k] = v
			}
		}
	}
	treeEqualsRef(t, "parent", a, refA)
	treeEqualsRef(t, "clone", b, refB)
}

func TestQuickCloneDeleteRebalance(t *testing.T) {
	// Fuzz delete/rebalance on cloned trees: build a shared tree, clone,
	// then run the delete list against the clone only. The parent must be
	// untouched and the clone must match a reference map, exercising
	// rotate/merge paths on shared nodes.
	f := func(keys []int16, deletes []int16) bool {
		tr := intTree()
		ref := map[int]bool{}
		for _, k := range keys {
			tr.Set(int(k), "v")
			ref[int(k)] = true
		}
		parentLen := tr.Len()
		cl := tr.Clone()
		clRef := map[int]bool{}
		for k := range ref {
			clRef[k] = true
		}
		for _, k := range deletes {
			cl.Delete(int(k))
			delete(clRef, int(k))
		}
		// Parent unchanged.
		if tr.Len() != parentLen {
			return false
		}
		for k := range ref {
			if _, ok := tr.Get(k); !ok {
				return false
			}
		}
		// Clone matches its reference and stays sorted.
		if cl.Len() != len(clRef) {
			return false
		}
		prev := -1 << 20
		ok := true
		cl.Ascend(func(k int, _ string) bool {
			if k <= prev || !clRef[k] {
				ok = false
				return false
			}
			prev = k
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkClone(b *testing.B) {
	tr := intTree()
	for i := 0; i < 1<<16; i++ {
		tr.Set(i, "v")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := tr.Clone()
		_ = c
		// One write after each clone pays the path-copy cost that the
		// maintenance loop pays per batch.
		tr.Set(i&(1<<16-1), "w")
	}
}

// TestPathCopyCapacity pins the capacity a copy-on-write node copy is made
// with. The insert that caused the copy must fit in it: a copy sized to the
// node's exact length is reallocated at once (at Go's growth factor, so the
// leaf ends up with slack too). And a split must leave both halves room to
// grow, the left one in its own array.
func TestPathCopyCapacity(t *testing.T) {
	tr := New[int, string](func(a, b int) bool { return a < b })
	for i := 0; i < 40*maxItems; i += 2 {
		tr.Set(i, "v")
	}
	if tr.root.children == nil || tr.root.children[0].children != nil {
		t.Fatal("want a two-level tree")
	}
	before := len(tr.root.children[0].items)
	snap := tr.Clone()
	tr.Set(1, "new") // a fresh key for the first leaf
	leaf := tr.root.children[0]
	if leaf == snap.root.children[0] {
		t.Fatal("the insert wrote through to the clone's leaf")
	}
	if len(leaf.items) != before+1 || cap(leaf.items) != before+1 {
		t.Errorf("path-copied leaf of %d items has len %d cap %d after one insert, want %d and %d: copied with room for exactly the insert",
			before, len(leaf.items), cap(leaf.items), before+1, before+1)
	}

	for i := 1; len(tr.root.children[0].items) < maxItems; i++ {
		tr.Set(-i, "fill")
	}
	left := tr.root.children[0]
	tr.Set(-1<<20, "split")
	if l, r := tr.root.children[0], tr.root.children[1]; cap(l.items) < maxItems || cap(r.items) < maxItems {
		t.Errorf("after a split the halves have capacity %d and %d, want %d each", cap(l.items), cap(r.items), maxItems)
	} else if l != left {
		t.Error("the split replaced the left half instead of keeping its array")
	}
}
