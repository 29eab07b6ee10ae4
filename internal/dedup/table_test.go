package dedup

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sync"
	"testing"
)

// pair is one (client id, request id).
type pair struct{ cid, rid string }

// oracle is the table's reference: a map of acks and the FIFO order of the
// live pairs.
type oracle struct {
	cap       int
	order     []pair
	acks      map[pair]Ack
	evictions int64
}

func (o *oracle) put(p pair, a Ack) {
	if _, ok := o.acks[p]; !ok {
		if len(o.order) == o.cap {
			delete(o.acks, o.order[0])
			o.order = o.order[1:]
			o.evictions++
		}
		o.order = append(o.order, p)
	}
	o.acks[p] = a
}

func (o *oracle) entries() []Entry {
	out := make([]Entry, 0, len(o.order))
	for _, p := range o.order {
		out = append(out, Entry{ClientID: p.cid, RequestID: p.rid, Ack: o.acks[p]})
	}
	return out
}

func entriesOf(tb *Table) []Entry {
	var out []Entry
	tb.Range(func(e Entry) bool { out = append(out, e); return true })
	return out
}

// randomID returns an id of a random length: mostly a few to a few dozen
// bytes, any byte value, now and then empty or thousands of bytes long.
func randomID(rng *rand.Rand, long bool) string {
	n := rng.Intn(24)
	switch r := rng.Intn(20); {
	case r == 0:
		n = 0
	case r == 1 && long:
		n = 500 + rng.Intn(3000)
	}
	b := make([]byte, n)
	rng.Read(b)
	return string(b)
}

// randomAck returns an ack shaped as the engine writes one, or now and then
// one whose span or row count does not fit 32 bits.
func randomAck(rng *rand.Rand) Ack {
	first, rows := rng.Int63n(1<<40), rng.Intn(64)
	a := Ack{Chronicle: []string{"calls", "taps", ""}[rng.Intn(3)], FirstSN: first, LastSN: first + int64(rows) - 1, Rows: rows}
	switch rng.Intn(16) {
	case 0:
		a.LastSN = rng.Int63() - rng.Int63()
	case 1:
		a.Rows = rng.Intn(1<<40) - 1<<39
	case 2:
		a.FirstSN, a.LastSN = math.MinInt64, math.MaxInt64
	case 3:
		a.LastSN = a.FirstSN + math.MinInt32 // the span that marks a wide record
	}
	return a
}

// TestTableMatchesOracle drives the table and the oracle through seeded
// Put, re-Put and Lookup sequences at capacities 1, 7 and 1 024, the ring
// wrapping many times: every Lookup, Len and Evictions, the Range order at
// intervals and at the end, and a snapshot round trip into a new table must
// agree. Ids of every length and byte, long ones in the first half only,
// make the key ring grow and wrap; at 1 024 it must shrink back once short
// ids have pushed the long ones out.
func TestTableMatchesOracle(t *testing.T) {
	for _, capacity := range []int{1, 7, 1024} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("cap=%d/seed=%d", capacity, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				tb := NewTable(capacity)
				o := &oracle{cap: capacity, acks: map[pair]Ack{}}
				var seen []pair
				const steps = 12_000
				peak := 0
				for step := range steps {
					var p pair
					if len(seen) > 0 && rng.Intn(3) > 0 {
						// A recent pair: live or lately evicted.
						p = seen[max(0, len(seen)-1-rng.Intn(2*capacity+2))]
					} else {
						p = pair{randomID(rng, step < steps/2), randomID(rng, step < steps/2)}
						seen = append(seen, p)
					}
					if rng.Intn(3) == 0 {
						got, ok := tb.Lookup(p.cid, p.rid)
						want, wok := o.acks[p]
						if ok != wok || got != want {
							t.Fatalf("step %d: Lookup = %+v %v, want %+v %v", step, got, ok, want, wok)
						}
						continue
					}
					a := randomAck(rng)
					tb.Put(p.cid, p.rid, a)
					o.put(p, a)
					if tb.Len() != len(o.order) || tb.Evictions() != o.evictions {
						t.Fatalf("step %d: Len %d Evictions %d, want %d %d", step, tb.Len(), tb.Evictions(), len(o.order), o.evictions)
					}
					peak = max(peak, len(tb.keys))
					if step%97 == 0 {
						if got, want := entriesOf(tb), o.entries(); !equalEntries(got, want) {
							t.Fatalf("step %d: Range differs from the oracle", step)
						}
					}
				}
				// Short fresh ids push the long ones out: the ring gives
				// back what it no longer holds.
				for range 2 * capacity {
					p, a := pair{randomID(rng, false), randomID(rng, false)}, randomAck(rng)
					tb.Put(p.cid, p.rid, a)
					o.put(p, a)
				}
				if o.evictions < int64(2*capacity) {
					t.Fatalf("%d evictions: the ring did not wrap", o.evictions)
				}
				got := entriesOf(tb)
				if !equalEntries(got, o.entries()) {
					t.Fatal("Range differs from the oracle")
				}
				snap := AppendEntries(nil, got)
				back := NewTable(capacity)
				if _, err := DecodeSnapshot(snap, func(e Entry) error { back.Put(e.ClientID, e.RequestID, e.Ack); return nil }); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(AppendEntries(nil, entriesOf(back)), snap) {
					t.Fatal("a table restored from the snapshot ranges over other entries")
				}
				if capacity == 1024 && (len(tb.keys) > 4*tb.kLen || 2*len(tb.keys) > peak) {
					t.Errorf("the key ring is %d bytes long for %d live key bytes, %d at its peak", len(tb.keys), tb.kLen, peak)
				}
			})
		}
	}
}

func equalEntries(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSnapshotGolden pins the checkpoint's dedup section: the same puts
// into tables of capacity 1, 7 and 1 024 must range to the bytes in
// testdata/snapshot.hex, which the map-and-string table this one replaced
// wrote (GOLDEN_WRITE=1 rewrites it). The table's storage may change; the
// section it feeds may not without a checkpoint version.
func TestSnapshotGolden(t *testing.T) {
	var got []byte
	for _, capacity := range []int{1, 7, 1024} {
		rng := rand.New(rand.NewSource(int64(capacity)))
		tb := NewTable(capacity)
		for i := range 3000 {
			first, rows := rng.Int63n(1<<40), 1+rng.Intn(64)
			a := Ack{Chronicle: []string{"calls", "taps"}[rng.Intn(2)], FirstSN: first, LastSN: first + int64(rows) - 1, Rows: rows}
			if i%50 == 0 {
				a.LastSN = rng.Int63() // a span past 32 bits
			}
			tb.Put(fmt.Sprintf("client-%d", rng.Intn(5)), fmt.Sprintf("r%d", rng.Intn(4000)), a)
		}
		got = AppendEntries(got, entriesOf(tb))
	}
	const path = "testdata/snapshot.hex"
	if os.Getenv("GOLDEN_WRITE") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(hex.EncodeToString(got)+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := hex.DecodeString(string(bytes.TrimSpace(text)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("the dedup section is %d bytes, the golden %d, and they differ", len(got), len(want))
	}
}

// TestTableConcurrentReaders races Lookup, Len and Range against one
// writer's Puts, which wrap a 256-entry table many times: every ack found
// is the one put for its id, Len stays within the capacity, and Range
// yields consecutive ids. Run under the race detector.
func TestTableConcurrentReaders(t *testing.T) {
	const capacity, puts = 256, 20_000
	tb := NewTable(capacity)
	ids := make([]string, puts)
	for i := range ids {
		ids[i] = fmt.Sprintf("r%d", i)
	}
	ackOf := func(i int) Ack {
		return Ack{Chronicle: "calls", FirstSN: int64(16 * i), LastSN: int64(16*i + 15), Rows: 16}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-done:
					return
				default:
				}
				i := rng.Intn(puts)
				if a, ok := tb.Lookup("c", ids[i]); ok && a != ackOf(i) {
					t.Errorf("Lookup(%s) = %+v, want %+v", ids[i], a, ackOf(i))
					return
				}
				if n := tb.Len(); n > capacity {
					t.Errorf("Len %d past the capacity %d", n, capacity)
					return
				}
				prev := int64(-1)
				tb.Range(func(e Entry) bool {
					if prev >= 0 && e.FirstSN != prev+16 {
						t.Errorf("Range yielded first SN %d after %d", e.FirstSN, prev)
						return false
					}
					prev = e.FirstSN
					return true
				})
			}
		}()
	}
	for i := range ids {
		tb.Put("c", ids[i], ackOf(i))
	}
	close(done)
	wg.Wait()
}

// TestTableAllocGuard pins that the table allocates nothing per request
// once it is full: a Put of a new id, which evicts the oldest, and a Lookup
// each make 0 allocations.
func TestTableAllocGuard(t *testing.T) {
	const capacity = 1024
	tb := NewTable(capacity)
	ids := make([]string, 4*capacity)
	for i := range ids {
		ids[i] = fmt.Sprintf("r%06d", i)
	}
	for _, id := range ids[:capacity] {
		tb.Put("client", id, Ack{Chronicle: "calls"})
	}
	i := capacity
	put := testing.AllocsPerRun(2*capacity, func() {
		tb.Put("client", ids[i], Ack{Chronicle: "calls", FirstSN: int64(i), LastSN: int64(i), Rows: 1})
		i++
	})
	lookup := testing.AllocsPerRun(1000, func() { tb.Lookup("client", ids[i-1]) })
	t.Logf("Put of a new id into a full table: %.1f allocs, Lookup: %.1f", put, lookup)
	if put != 0 || lookup != 0 {
		t.Errorf("Put allocates %.1f objects and Lookup %.1f, want 0 each", put, lookup)
	}
	if tb.Len() != capacity || tb.Evictions() == 0 {
		t.Errorf("Len %d Evictions %d: the table was not full", tb.Len(), tb.Evictions())
	}
}

// FuzzDedupSnapshot: DecodeSnapshot never panics; what it decodes encodes
// and decodes back to the same entries; and those entries, put into a table,
// range back as the oracle keeps them.
func FuzzDedupSnapshot(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 3, 12} {
		ents := make([]Entry, n)
		for i := range ents {
			ents[i] = Entry{ClientID: randomID(rng, false), RequestID: randomID(rng, false), Ack: randomAck(rng)}
		}
		if n == 12 {
			ents[11].ClientID, ents[11].RequestID = ents[2].ClientID, ents[2].RequestID // a re-Put
		}
		f.Add(AppendEntries(nil, ents))
	}
	f.Add([]byte{0x80})
	f.Add([]byte{5, 1, 'a'})
	f.Fuzz(func(t *testing.T, data []byte) {
		var ents []Entry
		if _, err := DecodeSnapshot(data, func(e Entry) error { ents = append(ents, e); return nil }); err != nil {
			return
		}
		enc := AppendEntries(nil, ents)
		var again []Entry
		if n, err := DecodeSnapshot(enc, func(e Entry) error { again = append(again, e); return nil }); err != nil || n != len(enc) {
			t.Fatalf("re-encoded snapshot: n=%d of %d, err=%v", n, len(enc), err)
		}
		if !equalEntries(again, ents) {
			t.Fatal("a snapshot does not round-trip")
		}
		capacity := 1 + len(data)%8
		tb := NewTable(capacity)
		o := &oracle{cap: capacity, acks: map[pair]Ack{}}
		for _, e := range ents {
			tb.Put(e.ClientID, e.RequestID, e.Ack)
			o.put(pair{e.ClientID, e.RequestID}, e.Ack)
		}
		if !equalEntries(entriesOf(tb), o.entries()) {
			t.Fatal("the loaded table ranges over other entries")
		}
	})
}
