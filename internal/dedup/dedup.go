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
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"
	"strings"
	"sync"
)

// DefaultCap is the entry bound used when a Table is created with no
// explicit capacity. An entry costs its 24-byte record, its key's bytes
// (the two ids behind a length byte) and 4 to 8 bytes of index: about 53
// bytes with ids of 14 and 6 bytes, so a full table of the default capacity
// holds about 3.5 MB.
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

// maxCap bounds the capacity: an index slot holds a ring slot and a tag of
// at least four bits in 32 bits.
const maxCap = 1 << 28

// maxKeyBytes bounds the live key bytes, so that a key's position fits a
// record's 32 bits. Past it the oldest entries go first, as past the
// capacity.
const maxKeyBytes = math.MaxInt32

// minKeyRing is the key ring length below which the ring never shrinks.
const minKeyRing = 1 << 12

// The record ring is allocated in chunks of 1<<chunkBits records (12 KB) as
// the ring first reaches them, so a table holds the records its entries
// need and not its capacity's.
const (
	chunkBits = 9
	chunkMask = 1<<chunkBits - 1
)

// record is one entry as the table keeps it: its ack's numbers, its
// chronicle as an index into the table's interned names, and where its key
// starts in the key ring. The key ends where the next entry's starts, or at
// the ring's tail for the newest. Nothing in a record is a pointer.
type record struct {
	first int64
	span  int32 // LastSN - FirstSN; wide when the ack is kept in Table.wide
	rows  int32
	pos   uint32
	chron uint32
}

// wide marks a record whose span or row count does not fit 32 bits. No ack
// the engine writes is wide, as a call's span is its row count less one; a
// decoded snapshot may hold any.
const wide = math.MinInt32

// wideAck is what a wide record does not hold.
type wideAck struct {
	last int64
	rows int
}

// Table is the bounded idempotency table: a FIFO ring of fixed records, the
// keys uvarint(len cid) ‖ cid ‖ rid in a FIFO byte ring, and an
// open-addressing index from a key's hash to its ring slot. None of it
// holds a pointer per entry, so a full table is a few flat arrays the
// garbage collector does not walk. It carries its own mutex: the write path
// mutates it under the engine lock, but stats and checkpoint readers arrive
// from other goroutines.
type Table struct {
	mu   sync.Mutex
	cap  int
	seed maphash.Seed

	// The record ring: slot s is chunks[s>>chunkBits][s&chunkMask], and the
	// n live entries are the slots from head, in insertion order.
	chunks  [][]record
	head, n int

	// The key ring: the live keys, oldest first, are the kLen bytes from
	// kHead, wrapping. One byte stays free, so that no key fills the ring.
	keys        []byte
	kHead, kLen int

	// The index, linear probing at most 3/4 full: a slot is 0 when empty,
	// else a tag of the key's hash above its ring slot's slotBits bits.
	index    []uint32
	slotBits uint

	chrons   []string // interned chronicle names
	chronIdx map[string]uint32
	wide     map[uint32]wideAck // by ring slot, read for a live wide record only

	buf       []byte // the key Lookup and Put are probing with
	tmp       []byte // a key that wraps the ring, made contiguous
	evictions int64
}

// NewTable returns an empty table bounded to capacity entries (<= 0 means
// DefaultCap, and a capacity past 2²⁸ holds 2²⁸).
func NewTable(capacity int) *Table {
	if capacity <= 0 {
		capacity = DefaultCap
	}
	capacity = min(capacity, maxCap)
	return &Table{
		cap: capacity, seed: maphash.MakeSeed(),
		index: make([]uint32, 8), slotBits: uint(bits.Len(uint(capacity - 1))),
		chronIdx: make(map[string]uint32),
	}
}

// Cap returns the entry bound.
func (t *Table) Cap() int { return t.cap }

// Len returns the live entry count.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Evictions returns how many entries the bounds have pushed out.
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
	key := t.probe(clientID, requestID)
	i, ok := t.find(maphash.Bytes(t.seed, key), key)
	if !ok {
		return Ack{}, false
	}
	return t.ack(t.slotOf(t.index[i])), true
}

// Put stores the ack for (clientID, requestID), evicting the oldest entry if
// the table is at capacity. Re-putting an existing pair refreshes the ack in
// place, keeping its position in the eviction order. A pair whose key alone
// passes 2 GiB is not kept.
func (t *Table) Put(clientID, requestID string, a Ack) {
	t.mu.Lock()
	defer t.mu.Unlock()
	key := t.probe(clientID, requestID)
	h := maphash.Bytes(t.seed, key)
	if i, ok := t.find(h, key); ok {
		t.set(t.slotOf(t.index[i]), a)
		return
	}
	if len(key) >= maxKeyBytes {
		return // no ring could hold it
	}
	for t.n == t.cap || t.kLen+len(key) >= maxKeyBytes {
		t.evict()
	}
	t.room(len(key))
	if 4*(t.n+1) > 3*len(t.index) {
		t.growIndex()
	}
	s := (t.head + t.n) % t.cap
	if s>>chunkBits == len(t.chunks) { // slots are first reached in order
		t.chunks = append(t.chunks, make([]record, min(1<<chunkBits, t.cap-s)))
	}
	r := t.rec(s)
	r.pos = uint32((t.kHead + t.kLen) % len(t.keys))
	copy(t.keys, key[copy(t.keys[r.pos:], key):]) // wrapping at the ring's end
	t.kLen += len(key)
	t.n++
	t.set(s, a)
	mask := len(t.index) - 1
	i := int(h) & mask
	for t.index[i] != 0 {
		i = (i + 1) & mask
	}
	t.index[i] = t.tag(h)<<t.slotBits | uint32(s)
}

// rec returns the record of ring slot s.
func (t *Table) rec(s int) *record { return &t.chunks[s>>chunkBits][s&chunkMask] }

// next returns the ring slot after s.
func (t *Table) next(s int) int {
	if s++; s == t.cap {
		return 0
	}
	return s
}

// keyLen returns the length of slot s's key: up to the next entry's key, or
// to the ring's tail for the newest.
func (t *Table) keyLen(s int) int {
	end := (t.kHead + t.kLen) % len(t.keys)
	if s != (t.head+t.n-1)%t.cap {
		end = int(t.rec(t.next(s)).pos)
	}
	l := end - int(t.rec(s).pos)
	if l <= 0 { // the key wraps; it is never empty, nor the whole ring
		l += len(t.keys)
	}
	return l
}

// key returns slot s's key, in t.tmp when it wraps the ring.
func (t *Table) key(s int) []byte {
	p, l := int(t.rec(s).pos), t.keyLen(s)
	if p+l <= len(t.keys) {
		return t.keys[p : p+l]
	}
	t.tmp = append(append(t.tmp[:0], t.keys[p:]...), t.keys[:p+l-len(t.keys)]...)
	return t.tmp
}

// tag is what an index slot keeps of hash h: its high bits, never zero.
func (t *Table) tag(h uint64) uint32 { return max(uint32(h>>(32+t.slotBits)), 1) }

// slotOf returns the ring slot an index slot names.
func (t *Table) slotOf(v uint32) int { return int(v & (1<<t.slotBits - 1)) }

// find returns the index slot of key, whose hash is h, or the empty slot
// that ends its probe.
func (t *Table) find(h uint64, key []byte) (int, bool) {
	mask, tag := len(t.index)-1, t.tag(h)
	for i := int(h) & mask; ; i = (i + 1) & mask {
		v := t.index[i]
		if v == 0 {
			return i, false
		}
		if v>>t.slotBits == tag && bytes.Equal(t.key(t.slotOf(v)), key) {
			return i, true
		}
	}
}

// growIndex doubles the index and places every live entry again.
func (t *Table) growIndex() {
	t.index = make([]uint32, 2*len(t.index))
	mask := len(t.index) - 1
	for k, s := 0, t.head; k < t.n; k, s = k+1, t.next(s) {
		h := maphash.Bytes(t.seed, t.key(s))
		i := int(h) & mask
		for t.index[i] != 0 {
			i = (i + 1) & mask
		}
		t.index[i] = t.tag(h)<<t.slotBits | uint32(s)
	}
}

// evict removes the oldest entry: its index slot, by backward shift, and
// its key's bytes, the oldest of the key ring.
func (t *Table) evict() {
	s, l := t.head, t.keyLen(t.head)
	mask := len(t.index) - 1
	i := int(maphash.Bytes(t.seed, t.key(s))) & mask
	for t.index[i] == 0 || t.slotOf(t.index[i]) != s {
		i = (i + 1) & mask
	}
	// Each later slot of the probe run moves into the hole unless its key's
	// home lies between the hole and it.
	for j := (i + 1) & mask; t.index[j] != 0; j = (j + 1) & mask {
		home := int(maphash.Bytes(t.seed, t.key(t.slotOf(t.index[j])))) & mask
		if (j-home)&mask >= (j-i)&mask {
			t.index[i] = t.index[j]
			i = j
		}
	}
	t.index[i] = 0
	t.kHead = (t.kHead + l) % len(t.keys)
	t.kLen -= l
	t.head, t.n = t.next(s), t.n-1
	t.evictions++
}

// room makes the key ring hold n more bytes and keep one free. A ring that
// must grow, or that would hold under a quarter of its length, is replaced
// by one 5/4 of what it must hold, its keys moved to its start.
func (t *Table) room(n int) {
	need, old := t.kLen+n, len(t.keys)
	if need < old && (need >= old/4 || old <= minKeyRing) {
		return
	}
	keys := make([]byte, min(need+need/4+64, maxKeyBytes))
	c := copy(keys, t.keys[t.kHead:min(old, t.kHead+t.kLen)])
	copy(keys[c:t.kLen], t.keys)
	for k, s := 0, t.head; k < t.n; k, s = k+1, t.next(s) {
		r := t.rec(s)
		r.pos = uint32((int(r.pos) - t.kHead + old) % old)
	}
	t.keys, t.kHead = keys, 0
}

// set writes ack a into slot s's record, and drops the wide ack of the
// slot's former entry, if it had one.
func (t *Table) set(s int, a Ack) {
	r := t.rec(s)
	if r.span == wide {
		delete(t.wide, uint32(s))
	}
	r.first, r.chron = a.FirstSN, t.intern(a.Chronicle)
	if span := a.LastSN - a.FirstSN; span != wide && span == int64(int32(span)) && a.Rows == int(int32(a.Rows)) {
		r.span, r.rows = int32(span), int32(a.Rows)
		return
	}
	if t.wide == nil {
		t.wide = make(map[uint32]wideAck)
	}
	r.span, t.wide[uint32(s)] = wide, wideAck{a.LastSN, a.Rows}
}

// intern returns the index of chronicle name in t.chrons, adding it if new.
func (t *Table) intern(name string) uint32 {
	i, ok := t.chronIdx[name]
	if !ok {
		i = uint32(len(t.chrons))
		t.chrons = append(t.chrons, name)
		t.chronIdx[name] = i
	}
	return i
}

// ack returns the ack slot s holds.
func (t *Table) ack(s int) Ack {
	r := t.rec(s)
	a := Ack{Chronicle: t.chrons[r.chron], FirstSN: r.first, LastSN: r.first + int64(r.span), Rows: int(r.rows)}
	if r.span == wide {
		w := t.wide[uint32(s)]
		a.LastSN, a.Rows = w.last, w.rows
	}
	return a
}

// Range calls fn for every live entry in insertion order until fn returns
// false. The table is locked for the duration; callers must not call back
// into the table. The entries' id strings share one copy of the live keys,
// made for the call.
func (t *Table) Range(fn func(Entry) bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.n == 0 {
		return
	}
	var sb strings.Builder
	sb.Grow(t.kLen)
	end := min(t.kHead+t.kLen, len(t.keys))
	sb.Write(t.keys[t.kHead:end])
	sb.Write(t.keys[:t.kLen-(end-t.kHead)])
	keys := sb.String()
	for k, s := 0, t.head; k < t.n; k, s = k+1, t.next(s) {
		l := t.keyLen(s)
		cid, rid := split(keys[:l])
		keys = keys[l:]
		if !fn(Entry{ClientID: cid, RequestID: rid, Ack: t.ack(s)}) {
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
