// Package dedup implements the persisted idempotency table that gives the
// ingestion path exactly-once semantics: every idempotent append carries a
// (client_id, request_id) pair, and the table remembers the acknowledgment
// (the assigned sequence-number range) of every request already applied.
// A retry — whether caused by a lost response, a duplicated delivery, or a
// crash-and-reopen on either side — finds the stored ack and returns it
// instead of re-applying the rows, which is exactly the paper's
// append-once sequence-number discipline extended across the network.
//
// Durability is owned by the layers above: the engine inserts an entry in
// the same critical section that writes the append's WAL record (the
// record itself carries the ids, so replay rebuilds the entry), and the
// checkpoint serializes the table alongside the views it protects.
//
// The table is bounded: beyond the configured capacity the oldest entries
// are evicted FIFO, so a server that lives forever cannot leak memory one
// request id at a time. A client must retry a request before Cap newer
// requests land — far beyond any sane retry budget — or the retry will
// re-apply; the eviction counter makes that pressure observable.
package dedup

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// DefaultCap is the entry bound used when a Table is created with no
// explicit capacity. An entry costs about 120 bytes of heap — its record in
// the ring, its slot in the index and its one key string — so a full table
// of the default capacity holds about 8 MB.
const DefaultCap = 1 << 16

// Ack is the stored acknowledgment of an applied request.
type Ack struct {
	Chronicle string // target chronicle (routes restore in sharded mode)
	FirstSN   int64  // first sequence number assigned to the request
	LastSN    int64  // last sequence number assigned
	Rows      int    // rows applied
}

// Entry is one table entry with its identifying pair, as exposed to
// checkpointing.
type Entry struct {
	ClientID  string
	RequestID string
	Ack
}

// record is one entry as the table keeps it: its key, uvarint(len cid) ‖
// cid ‖ rid, the one string the entry allocates; its chronicle as an index
// into the table's interned names; and its ack's numbers.
type record struct {
	key         string
	chron       int32
	rows        int32 // a request's row count; a call is far below 2³¹ rows
	first, last int64
}

// Table is the bounded idempotency table: a FIFO ring of fixed records behind
// an index from key to ring slot. It carries its own mutex: the write path
// mutates it under the engine lock, but stats and checkpoint readers arrive
// from other goroutines.
type Table struct {
	mu        sync.Mutex
	cap       int
	index     map[string]int32
	ring      []record // insertion order from head, wrapping once full
	head      int      // the oldest record, once the ring is full
	chrons    []string // interned chronicle names
	chronIdx  map[string]int32
	buf       []byte // the key Lookup and Put are probing with
	evictions int64
}

// NewTable returns an empty table bounded to capacity entries (<= 0 means
// DefaultCap).
func NewTable(capacity int) *Table {
	if capacity <= 0 {
		capacity = DefaultCap
	}
	return &Table{cap: capacity, index: make(map[string]int32), chronIdx: make(map[string]int32)}
}

// Cap returns the entry bound.
func (t *Table) Cap() int { return t.cap }

// Len returns the live entry count.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.ring)
}

// Evictions returns how many entries the capacity bound has pushed out.
func (t *Table) Evictions() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.evictions
}

// probe builds the key of (clientID, requestID) in t.buf.
func (t *Table) probe(clientID, requestID string) []byte {
	t.buf = binary.AppendUvarint(t.buf[:0], uint64(len(clientID)))
	t.buf = append(append(t.buf, clientID...), requestID...)
	return t.buf
}

// Lookup returns the stored ack for (clientID, requestID), if present.
func (t *Table) Lookup(clientID, requestID string) (Ack, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	i, ok := t.index[string(t.probe(clientID, requestID))]
	if !ok {
		return Ack{}, false
	}
	return t.ring[i].ack(t.chrons), true
}

// Put stores the ack for (clientID, requestID), evicting the oldest entry if
// the table is at capacity. Re-putting an existing pair refreshes the ack in
// place, keeping its position in the eviction order.
func (t *Table) Put(clientID, requestID string, a Ack) {
	t.mu.Lock()
	defer t.mu.Unlock()
	rec := record{chron: t.intern(a.Chronicle), rows: int32(a.Rows), first: a.FirstSN, last: a.LastSN}
	if i, ok := t.index[string(t.probe(clientID, requestID))]; ok {
		rec.key = t.ring[i].key
		t.ring[i] = rec
		return
	}
	rec.key = string(t.buf)
	if len(t.ring) < t.cap {
		t.index[rec.key] = int32(len(t.ring))
		t.ring = append(t.ring, rec)
		return
	}
	delete(t.index, t.ring[t.head].key)
	t.evictions++
	t.index[rec.key] = int32(t.head)
	t.ring[t.head] = rec
	t.head = (t.head + 1) % len(t.ring)
}

// intern returns the index of chronicle name in t.chrons, adding it if new.
func (t *Table) intern(name string) int32 {
	i, ok := t.chronIdx[name]
	if !ok {
		i = int32(len(t.chrons))
		t.chrons = append(t.chrons, name)
		t.chronIdx[name] = i
	}
	return i
}

func (r *record) ack(chrons []string) Ack {
	return Ack{Chronicle: chrons[r.chron], FirstSN: r.first, LastSN: r.last, Rows: int(r.rows)}
}

// Range calls fn for every live entry in insertion order until fn returns
// false. The table is locked for the duration; callers must not call back
// into the table. An entry's id strings share the table's key.
func (t *Table) Range(fn func(Entry) bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for n := range t.ring {
		r := &t.ring[(t.head+n)%len(t.ring)]
		cid, rid := split(r.key)
		if !fn(Entry{ClientID: cid, RequestID: rid, Ack: r.ack(t.chrons)}) {
			return
		}
	}
}

// split returns the two ids a key joins.
func split(key string) (clientID, requestID string) {
	var n, shift uint
	i := 0
	for ; key[i] >= 0x80; i++ {
		n |= uint(key[i]&0x7f) << shift
		shift += 7
	}
	n |= uint(key[i]) << shift
	i++
	return key[i : i+int(n)], key[i+int(n):]
}

// AppendEntries serializes entries onto dst and returns the extended
// slice — the checkpoint's dedup section. The image is bounded by the
// table capacity (entries come from bounded tables), which is what keeps
// checkpoints from growing with total request count.
func AppendEntries(dst []byte, ents []Entry) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ents)))
	for _, e := range ents {
		dst = appendString(dst, e.ClientID)
		dst = appendString(dst, e.RequestID)
		dst = appendString(dst, e.Chronicle)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(e.FirstSN))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(e.LastSN))
		dst = binary.AppendUvarint(dst, uint64(e.Rows))
	}
	return dst
}

// DecodeSnapshot parses a snapshot produced by AppendEntries, calling fn
// for each entry in stored order. It returns the bytes consumed.
func DecodeSnapshot(data []byte, fn func(Entry) error) (int, error) {
	n, sz := binary.Uvarint(data)
	if sz <= 0 {
		return 0, fmt.Errorf("dedup: bad snapshot count")
	}
	off := sz
	for i := uint64(0); i < n; i++ {
		var e Entry
		var used int
		var err error
		if e.ClientID, used, err = readString(data[off:]); err != nil {
			return 0, fmt.Errorf("dedup: entry %d client id: %w", i, err)
		}
		off += used
		if e.RequestID, used, err = readString(data[off:]); err != nil {
			return 0, fmt.Errorf("dedup: entry %d request id: %w", i, err)
		}
		off += used
		if e.Chronicle, used, err = readString(data[off:]); err != nil {
			return 0, fmt.Errorf("dedup: entry %d chronicle: %w", i, err)
		}
		off += used
		if len(data)-off < 16 {
			return 0, fmt.Errorf("dedup: entry %d truncated", i)
		}
		e.FirstSN = int64(binary.LittleEndian.Uint64(data[off:]))
		e.LastSN = int64(binary.LittleEndian.Uint64(data[off+8:]))
		off += 16
		rows, sz := binary.Uvarint(data[off:])
		if sz <= 0 {
			return 0, fmt.Errorf("dedup: entry %d rows", i)
		}
		e.Rows = int(rows)
		off += sz
		if err := fn(e); err != nil {
			return 0, err
		}
	}
	return off, nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func readString(b []byte) (string, int, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 || uint64(len(b)-sz) < n {
		return "", 0, fmt.Errorf("bad string")
	}
	return string(b[sz : sz+int(n)]), sz + int(n), nil
}
