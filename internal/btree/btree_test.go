package btree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func intTree() *Tree[int, string] {
	return New[int, string](func(a, b int) bool { return a < b })
}

func TestEmptyTree(t *testing.T) {
	tr := intTree()
	if tr.Len() != 0 {
		t.Errorf("Len = %d", tr.Len())
	}
	if _, ok := tr.Get(1); ok {
		t.Error("Get on empty tree")
	}
	if tr.Delete(1) {
		t.Error("Delete on empty tree reported true")
	}
	if _, _, ok := tr.Min(); ok {
		t.Error("Min on empty tree")
	}
	if _, _, ok := tr.Max(); ok {
		t.Error("Max on empty tree")
	}
	count := 0
	tr.Ascend(func(int, string) bool { count++; return true })
	if count != 0 {
		t.Error("Ascend visited entries of empty tree")
	}
}

func TestSetGetReplace(t *testing.T) {
	tr := intTree()
	if tr.Set(5, "a") {
		t.Error("first Set reported replaced")
	}
	if !tr.Set(5, "b") {
		t.Error("second Set did not report replaced")
	}
	if tr.Len() != 1 {
		t.Errorf("Len = %d", tr.Len())
	}
	if v, ok := tr.Get(5); !ok || v != "b" {
		t.Errorf("Get = %q, %v", v, ok)
	}
}

// TestPutSwapsKeyFind: keys that order by a prefix — a row sorted by its
// first byte — are replaced whole by Put, kept by Set, and found by a probe of
// another type through Find, across enough entries to split nodes.
func TestPutSwapsKeyFind(t *testing.T) {
	tr := New[string, int](func(a, b string) bool { return a[0] < b[0] })
	row := func(i int, s string) string { return string([]byte{byte(i)}) + s }
	probe := func(i int) func(string) int {
		p := []byte{byte(i)}
		return func(k string) int { return int(p[0]) - int(k[0]) }
	}
	for i := 0; i < 200; i++ {
		tr.Set(row(i, "a"), i)
	}
	for i := 0; i < 200; i++ {
		old, replaced := tr.Put(row(i, "b"), -i)
		if !replaced || old != row(i, "a") {
			t.Fatalf("Put(%d) displaced %q, %v", i, old, replaced)
		}
	}
	if !tr.Set(row(7, "c"), 7) {
		t.Error("Set of a present key reported an insert")
	}
	if tr.Len() != 200 {
		t.Fatalf("Len = %d, want 200", tr.Len())
	}
	for i := 0; i < 200; i++ {
		k, v, ok := tr.Find(probe(i))
		want := -i
		if i == 7 {
			want = 7 // Set replaced the value and kept the key
		}
		if !ok || k != row(i, "b") || v != want {
			t.Fatalf("Find(%d) = %q, %d, %v", i, k, v, ok)
		}
	}
	if _, _, ok := tr.Find(probe(250)); ok {
		t.Error("Find of an absent key hit")
	}
}

func TestLargeInsertDeleteAscending(t *testing.T) {
	const n = 10000
	tr := intTree()
	for i := 0; i < n; i++ {
		tr.Set(i, "v")
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d", tr.Len())
	}
	for i := 0; i < n; i++ {
		if _, ok := tr.Get(i); !ok {
			t.Fatalf("missing key %d", i)
		}
	}
	for i := 0; i < n; i += 2 {
		if !tr.Delete(i) {
			t.Fatalf("Delete(%d) failed", i)
		}
	}
	if tr.Len() != n/2 {
		t.Fatalf("Len after deletes = %d", tr.Len())
	}
	for i := 0; i < n; i++ {
		_, ok := tr.Get(i)
		if want := i%2 == 1; ok != want {
			t.Fatalf("Get(%d) = %v, want %v", i, ok, want)
		}
	}
}

func TestRandomOpsAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tr := intTree()
	ref := map[int]string{}
	letters := "abcdefg"
	for op := 0; op < 50000; op++ {
		k := rng.Intn(2000)
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
	}
	if tr.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(ref))
	}
	for k, v := range ref {
		got, ok := tr.Get(k)
		if !ok || got != v {
			t.Fatalf("Get(%d) = %q,%v want %q", k, got, ok, v)
		}
	}
	// Ascend yields sorted keys matching the reference exactly.
	var keys []int
	tr.Ascend(func(k int, v string) bool {
		keys = append(keys, k)
		if ref[k] != v {
			t.Fatalf("Ascend value mismatch at %d", k)
		}
		return true
	})
	if !sort.IntsAreSorted(keys) {
		t.Fatal("Ascend keys not sorted")
	}
	if len(keys) != len(ref) {
		t.Fatalf("Ascend visited %d keys, want %d", len(keys), len(ref))
	}
}

func TestMinMax(t *testing.T) {
	tr := intTree()
	for _, k := range []int{50, 20, 90, 10, 70} {
		tr.Set(k, "x")
	}
	if k, _, ok := tr.Min(); !ok || k != 10 {
		t.Errorf("Min = %d, %v", k, ok)
	}
	if k, _, ok := tr.Max(); !ok || k != 90 {
		t.Errorf("Max = %d, %v", k, ok)
	}
}

func TestAscendEarlyStop(t *testing.T) {
	tr := intTree()
	for i := 0; i < 100; i++ {
		tr.Set(i, "x")
	}
	count := 0
	tr.Ascend(func(k int, _ string) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Errorf("visited %d, want 10", count)
	}
}

func TestAscendRange(t *testing.T) {
	tr := intTree()
	for i := 0; i < 1000; i++ {
		tr.Set(i*2, "x") // even keys 0..1998
	}
	var got []int
	tr.AscendRange(101, 111, func(k int, _ string) bool {
		got = append(got, k)
		return true
	})
	want := []int{102, 104, 106, 108, 110}
	if len(got) != len(want) {
		t.Fatalf("AscendRange = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AscendRange = %v, want %v", got, want)
		}
	}
	// Range with lo == existing key includes it; hi exclusive.
	got = got[:0]
	tr.AscendRange(100, 104, func(k int, _ string) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 2 || got[0] != 100 || got[1] != 102 {
		t.Fatalf("AscendRange inclusive-lo = %v", got)
	}
}

func TestAscendRangeRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := intTree()
	present := map[int]bool{}
	for i := 0; i < 3000; i++ {
		k := rng.Intn(5000)
		tr.Set(k, "x")
		present[k] = true
	}
	for trial := 0; trial < 200; trial++ {
		lo := rng.Intn(5000)
		hi := lo + rng.Intn(500)
		var got []int
		tr.AscendRange(lo, hi, func(k int, _ string) bool {
			got = append(got, k)
			return true
		})
		var want []int
		for k := lo; k < hi; k++ {
			if present[k] {
				want = append(want, k)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("range [%d,%d): got %d keys, want %d", lo, hi, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("range [%d,%d): got %v, want %v", lo, hi, got, want)
			}
		}
	}
}

func TestAscendGreaterOrEqual(t *testing.T) {
	tr := intTree()
	for i := 0; i < 100; i++ {
		tr.Set(i*3, "x")
	}
	var got []int
	tr.AscendGreaterOrEqual(290, func(k int, _ string) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 3 || got[0] != 291 || got[2] != 297 {
		t.Fatalf("AscendGE = %v", got)
	}
}

func TestQuickInsertDeleteInvariant(t *testing.T) {
	f := func(keys []int16, deletes []int16) bool {
		tr := intTree()
		ref := map[int]bool{}
		for _, k := range keys {
			tr.Set(int(k), "v")
			ref[int(k)] = true
		}
		for _, k := range deletes {
			tr.Delete(int(k))
			delete(ref, int(k))
		}
		if tr.Len() != len(ref) {
			return false
		}
		prev := -1 << 20
		ok := true
		tr.Ascend(func(k int, _ string) bool {
			if k <= prev || !ref[k] {
				ok = false
				return false
			}
			prev = k
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStringKeys(t *testing.T) {
	tr := New[string, int](func(a, b string) bool { return a < b })
	words := []string{"pear", "apple", "fig", "banana", "cherry"}
	for i, w := range words {
		tr.Set(w, i)
	}
	if v, ok := tr.Get("fig"); !ok || v != 2 {
		t.Errorf("Get(fig) = %d, %v", v, ok)
	}
	var got []string
	tr.Ascend(func(k string, _ int) bool { got = append(got, k); return true })
	if !sort.StringsAreSorted(got) {
		t.Errorf("not sorted: %v", got)
	}
}

func BenchmarkSet(b *testing.B) {
	tr := intTree()
	for i := 0; i < b.N; i++ {
		tr.Set(i, "v")
	}
}

func BenchmarkGet(b *testing.B) {
	tr := intTree()
	for i := 0; i < 1<<20; i++ {
		tr.Set(i, "v")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get(i & (1<<20 - 1))
	}
}

func TestDeleteRange(t *testing.T) {
	newT := func() *Tree[int, int] {
		tr := New[int, int](func(a, b int) bool { return a < b })
		for i := 0; i < 100; i++ {
			tr.Set(i, i)
		}
		return tr
	}
	tr := newT()
	if n := tr.DeleteRange(10, 20, true, true); n != 10 {
		t.Fatalf("DeleteRange[10,20) = %d, want 10", n)
	}
	if tr.Len() != 90 {
		t.Fatalf("Len = %d, want 90", tr.Len())
	}
	if _, ok := tr.Get(10); ok {
		t.Fatal("key 10 survived DeleteRange")
	}
	if _, ok := tr.Get(20); !ok {
		t.Fatal("key 20 (exclusive hi) deleted")
	}
	tr = newT()
	if n := tr.DeleteRange(90, 0, true, false); n != 10 {
		t.Fatalf("DeleteRange[90,∞) = %d, want 10", n)
	}
	tr = newT()
	if n := tr.DeleteRange(0, 10, false, true); n != 10 {
		t.Fatalf("DeleteRange(-∞,10) = %d, want 10", n)
	}
	tr = newT()
	if n := tr.DeleteRange(0, 0, false, false); n != 100 || tr.Len() != 0 {
		t.Fatalf("DeleteRange unbounded = %d len=%d, want 100, 0", n, tr.Len())
	}
	// A clone made before the delete is unaffected (COW holds).
	tr = newT()
	snap := tr.Clone()
	tr.DeleteRange(0, 50, true, true)
	if snap.Len() != 100 {
		t.Fatalf("clone Len = %d after DeleteRange on source, want 100", snap.Len())
	}
}
