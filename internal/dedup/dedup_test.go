package dedup

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func TestTableLookupPut(t *testing.T) {
	tb := NewTable(4)
	if _, ok := tb.Lookup("c", "r"); ok {
		t.Fatal("empty table hit")
	}
	ack := Ack{Chronicle: "calls", FirstSN: 10, LastSN: 12, Rows: 3}
	tb.Put("c", "r", ack)
	got, ok := tb.Lookup("c", "r")
	if !ok || got != ack {
		t.Fatalf("Lookup = %+v, %v", got, ok)
	}
	// Same request id under a different client is a distinct key.
	if _, ok := tb.Lookup("other", "r"); ok {
		t.Fatal("cross-client hit")
	}
}

func TestTableFIFOEviction(t *testing.T) {
	tb := NewTable(3)
	for i := 0; i < 5; i++ {
		tb.Put("c", fmt.Sprintf("r%d", i), Ack{FirstSN: int64(i)})
	}
	if tb.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tb.Len())
	}
	if tb.Evictions() != 2 {
		t.Fatalf("Evictions = %d, want 2", tb.Evictions())
	}
	// Oldest two are gone, newest three remain.
	for i := 0; i < 2; i++ {
		if _, ok := tb.Lookup("c", fmt.Sprintf("r%d", i)); ok {
			t.Errorf("r%d survived eviction", i)
		}
	}
	for i := 2; i < 5; i++ {
		if _, ok := tb.Lookup("c", fmt.Sprintf("r%d", i)); !ok {
			t.Errorf("r%d evicted early", i)
		}
	}
}

// The table's footprint must not grow with the number of requests it has
// seen, only with its capacity: after 100×cap puts it holds exactly the cap
// newest entries, in insertion order, and at capacity a Put of a new pair
// allocates at most its one key string and a Lookup nothing.
func TestTableMemoryBound(t *testing.T) {
	const cap = 64
	tb := NewTable(cap)
	ids := make([]string, 100*cap)
	for i := range ids {
		ids[i] = fmt.Sprintf("r%d", i)
		tb.Put("c", ids[i], Ack{FirstSN: int64(i)})
	}
	if tb.Len() != cap {
		t.Fatalf("Len = %d, want %d", tb.Len(), cap)
	}
	if got, want := tb.Evictions(), int64(len(ids)-cap); got != want {
		t.Errorf("Evictions = %d, want %d", got, want)
	}
	next := len(ids) - cap
	tb.Range(func(e Entry) bool {
		if e.RequestID != ids[next] || e.FirstSN != int64(next) {
			t.Errorf("Range yielded %s (first SN %d), want %s", e.RequestID, e.FirstSN, ids[next])
		}
		next++
		return true
	})
	if next != len(ids) {
		t.Errorf("Range visited %d entries, want %d", next-(len(ids)-cap), cap)
	}
	i := 0
	if allocs := testing.AllocsPerRun(500, func() {
		tb.Put("c", ids[i%len(ids)], Ack{Chronicle: "calls", FirstSN: int64(i)})
		i++
	}); allocs > 1 {
		t.Errorf("Put at capacity allocates %.1f objects, want ≤ 1", allocs)
	}
	if allocs := testing.AllocsPerRun(500, func() { tb.Lookup("c", ids[len(ids)-1]) }); allocs != 0 {
		t.Errorf("Lookup allocates %.1f objects, want 0", allocs)
	}
	if tb.Len() != cap {
		t.Errorf("Len = %d after more puts, want %d", tb.Len(), cap)
	}
}

// TestTableMatchesReference drives the table and a plain FIFO map through
// seeded Put, re-Put and Lookup sequences at small capacities: every Lookup,
// Len, Evictions, the Range order and the AppendEntries bytes must agree.
func TestTableMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := 1 + rng.Intn(8)
		tb := NewTable(capacity)
		type pair struct{ cid, rid string }
		var order []pair // reference: insertion order of the live pairs
		acks := map[pair]Ack{}
		var evictions int64
		chrons := []string{"calls", "taps", ""}
		for step := 0; step < 300; step++ {
			// Client ids of several lengths, including ones whose ids
			// concatenate alike ("a"+"bc" vs "ab"+"c").
			p := pair{[]string{"a", "ab", "", "client-0123456789"}[rng.Intn(4)], []string{"bc", "c", "", "r1"}[rng.Intn(4)]}
			if rng.Intn(3) == 0 {
				got, ok := tb.Lookup(p.cid, p.rid)
				want, wok := acks[p]
				if ok != wok || got != want {
					t.Fatalf("seed %d step %d: Lookup(%q,%q) = %+v %v, want %+v %v", seed, step, p.cid, p.rid, got, ok, want, wok)
				}
				continue
			}
			a := Ack{Chronicle: chrons[rng.Intn(len(chrons))], FirstSN: rng.Int63n(1000), LastSN: rng.Int63n(1000), Rows: rng.Intn(100)}
			tb.Put(strings.Clone(p.cid), strings.Clone(p.rid), a)
			if _, ok := acks[p]; !ok {
				if len(order) == capacity {
					delete(acks, order[0])
					order = order[1:]
					evictions++
				}
				order = append(order, p)
			}
			acks[p] = a
			if tb.Len() != len(order) || tb.Evictions() != evictions {
				t.Fatalf("seed %d step %d: Len %d Evictions %d, want %d %d", seed, step, tb.Len(), tb.Evictions(), len(order), evictions)
			}
		}
		var got, want []Entry
		tb.Range(func(e Entry) bool { got = append(got, e); return true })
		for _, p := range order {
			want = append(want, Entry{ClientID: p.cid, RequestID: p.rid, Ack: acks[p]})
		}
		if !bytes.Equal(AppendEntries(nil, got), AppendEntries(nil, want)) {
			t.Fatalf("seed %d: Range = %+v, want %+v", seed, got, want)
		}
	}
}

func TestSnapshotRoundtrip(t *testing.T) {
	tb := NewTable(8)
	want := []Entry{
		{ClientID: "a", RequestID: "r1", Ack: Ack{Chronicle: "calls", FirstSN: 1, LastSN: 3, Rows: 3}},
		{ClientID: "a", RequestID: "r2", Ack: Ack{Chronicle: "calls", FirstSN: 4, LastSN: 4, Rows: 1}},
		{ClientID: "b", RequestID: "r1", Ack: Ack{Chronicle: "taps", FirstSN: 0, LastSN: 9, Rows: 10}},
	}
	for _, e := range want {
		tb.Put(e.ClientID, e.RequestID, e.Ack)
	}

	var ents []Entry
	tb.Range(func(e Entry) bool { ents = append(ents, e); return true })
	buf := AppendEntries(nil, ents)
	var got []Entry
	n, err := DecodeSnapshot(buf, func(e Entry) error { got = append(got, e); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Fatalf("consumed %d of %d bytes", n, len(buf))
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d entries, want %d", len(got), len(want))
	}
	// Entries come back in insertion order (the FIFO order).
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("entry %d = %+v, want %+v", i, got[i], want[i])
		}
	}

	// Truncated snapshots fail loudly rather than restoring a partial table.
	if _, err := DecodeSnapshot(buf[:len(buf)-3], func(Entry) error { return nil }); err == nil {
		t.Error("truncated snapshot decoded")
	}
	// Empty table roundtrips.
	empty := AppendEntries(nil, nil)
	if n, err := DecodeSnapshot(empty, func(Entry) error { t.Error("entry from empty snapshot"); return nil }); err != nil || n != len(empty) {
		t.Errorf("empty snapshot: n=%d err=%v", n, err)
	}
}

func TestDefaultCap(t *testing.T) {
	tb := NewTable(0)
	if tb.Cap() != DefaultCap {
		t.Errorf("Cap = %d, want %d", tb.Cap(), DefaultCap)
	}
	tb = NewTable(-5)
	if tb.Cap() != DefaultCap {
		t.Errorf("Cap(-5) = %d, want %d", tb.Cap(), DefaultCap)
	}
}
