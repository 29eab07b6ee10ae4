// Package relation implements the relation half of a chronicle database.
//
// "Each relation conceptually has multiple temporal versions, one after
// every update" (Section 2.3). Joins between chronicles and relations are
// implicit temporal joins: each chronicle tuple joins with the relation
// version at that tuple's temporal instant. Because the chronicle model
// admits only *proactive* updates, incremental view maintenance only ever
// needs the current version, and that is all a relation keeps unless it is
// created with history: then it also keeps every superseded version, indexed
// by the database LSN, so the reference evaluator and the test suite can
// verify temporal-join semantics end to end.
package relation

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"chronicledb/internal/btree"
	"chronicledb/internal/keyenc"
	"chronicledb/internal/value"
)

// Relation is a keyed relation. Its current version is its live rows, each
// stored as one string: the key — the keyenc encoding of the key columns, in
// key-column order — then the value-encoded tuple, the bytes a checkpoint's
// relation section holds. Rows are ordered, and two tuples are one key, as
// value.Compare orders and equates their key columns. Readers decode a row
// in place: its string cells are substrings of the row.
//
// Updates are serialized by the engine; mu additionally lets read methods
// (Get, Scan, AsOf variants) run concurrently with updates without
// the engine-wide lock.
type Relation struct {
	name    string
	schema  *value.Schema
	keyCols []int
	history bool // keep superseded versions for AsOf lookups

	// mu guards rows, past, updates and buf.
	mu      sync.RWMutex
	rows    *btree.Tree[string, struct{}] // live rows, by key
	past    *btree.Tree[string, *past]    // by key, every key ever written; with history only
	updates int64
	buf     []byte // the row an update is building
}

// past is what a relation with history keeps for one key beside its current
// row: when the key's current state — its live row, or no row — began, and
// the states that state superseded.
type past struct {
	from uint64
	old  []version // ascending from
}

// version is one superseded state: the row current from LSN from, or ""
// when the key had no row.
type version struct {
	from uint64
	row  string
}

// cmpKey compares a key with the key of row, or with another key. Keys are
// prefix-free — no keyenc value encoding is a proper prefix of another, and
// a relation's keys have one arity — so a key that agrees with a row up to
// the shorter length is that row's key: a probe compares with a row on their
// common prefix alone.
func cmpKey(key []byte, row string) int {
	n := min(len(key), len(row))
	switch k := key[:n]; {
	case string(k) < row[:n]:
		return -1
	case string(k) > row[:n]:
		return 1
	}
	return 0
}

// New creates a relation with the given key columns. When history is true,
// superseded versions are retained for AsOf lookups; production engines
// run with history=false, matching the paper's observation that "versions
// of relations do not need to be stored".
func New(name string, schema *value.Schema, keyCols []int, history bool) (*Relation, error) {
	if schema == nil || schema.Len() == 0 {
		return nil, fmt.Errorf("relation %s: schema must have at least one column", name)
	}
	if len(keyCols) == 0 {
		return nil, fmt.Errorf("relation %s: at least one key column required", name)
	}
	seen := map[int]bool{}
	for _, k := range keyCols {
		if k < 0 || k >= schema.Len() {
			return nil, fmt.Errorf("relation %s: key column %d out of range", name, k)
		}
		if seen[k] {
			return nil, fmt.Errorf("relation %s: duplicate key column %d", name, k)
		}
		seen[k] = true
	}
	r := &Relation{
		name:    name,
		schema:  schema,
		keyCols: append([]int(nil), keyCols...),
		history: history,
	}
	r.reset()
	return r, nil
}

// Name returns the relation's name.
func (r *Relation) Name() string { return r.name }

// Schema returns the relation's schema.
func (r *Relation) Schema() *value.Schema { return r.schema }

// KeyCols returns the key column indexes.
func (r *Relation) KeyCols() []int { return append([]int(nil), r.keyCols...) }

// Len returns the number of live keys.
func (r *Relation) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.rows.Len()
}

// Height returns the height of the live rows' tree: the nodes one key probe
// visits at most, O(log|R|) (the IM-log(R) bound of Theorem 4.5).
func (r *Relation) Height() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.rows.Height()
}

// Updates returns the number of upserts and deletes ever applied.
func (r *Relation) Updates() int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.updates
}

// Reset discards every row (and all retained history).
func (r *Relation) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reset()
}

func (r *Relation) reset() {
	r.rows = btree.New[string, struct{}](r.rowLess)
	if r.history {
		r.past = btree.New[string, *past](func(a, b string) bool { return a < b })
	}
}

// appendKey appends the key of t, a full tuple.
func (r *Relation) appendKey(dst []byte, t value.Tuple) []byte {
	return keyenc.AppendCols(dst, t, r.keyCols)
}

// rowLess orders rows by their keys alone; the bytes past a key are its
// tuple. Keys are prefix-free (see cmpKey), so a's key compares with b
// exactly as with b's key when it meets b's first len(key) bytes: only a's
// key is measured.
func (r *Relation) rowLess(a, b string) bool {
	k := r.keyLen(a)
	return a[:k] < b[:min(k, len(b))]
}

// keyLen returns the length of row's key.
func (r *Relation) keyLen(row string) int { return keyenc.Len(row, len(r.keyCols)) }

// decode appends row's values to dst.
func (r *Relation) decode(dst value.Tuple, row string) value.Tuple {
	dst, _, _ = value.DecodeTupleString(dst, row[r.keyLen(row):])
	return dst
}

// find returns the live row under key.
func (r *Relation) find(key []byte) (string, bool) {
	row, _, ok := r.rows.Find(func(row string) int { return cmpKey(key, row) })
	return row, ok
}

// Validate reports whether t can be upserted: the schema's arity and kinds,
// and no null key column.
func (r *Relation) Validate(t value.Tuple) error {
	if err := r.schema.Validate(t); err != nil {
		return fmt.Errorf("relation %s: %w", r.name, err)
	}
	for _, k := range r.keyCols {
		if t[k].IsNull() {
			return fmt.Errorf("relation %s: null key column %q", r.name, r.schema.Col(k).Name)
		}
	}
	return nil
}

// Upsert inserts or replaces the tuple for its key, becoming current at
// lsn. LSNs must be non-decreasing across calls; the engine guarantees this.
func (r *Relation) Upsert(lsn uint64, t value.Tuple) error {
	if err := r.Validate(t); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf = value.AppendTuple(r.appendKey(r.buf[:0], t), t)
	r.put(lsn, string(r.buf))
	r.updates++
	return nil
}

// put makes row its key's current state at lsn.
func (r *Relation) put(lsn uint64, row string) {
	prev, live := r.rows.Put(row, struct{}{})
	if r.history {
		r.supersede(lsn, row[:r.keyLen(row)], prev, live)
	}
}

// supersede records, with history, that key's state changes at lsn: the
// state it leaves — row prev, or no row when !live — becomes a past version,
// unless it began at lsn too (the later update wins within one engine step).
func (r *Relation) supersede(lsn uint64, key, prev string, live bool) {
	p, ok := r.past.Get(key)
	if !ok {
		r.past.Set(strings.Clone(key), &past{from: lsn})
		return
	}
	if p.from == lsn {
		return
	}
	if !live {
		prev = ""
	}
	p.old = append(p.old, version{from: p.from, row: prev})
	p.from = lsn
}

// Delete removes the tuple with the given key values (in keyCols order),
// effective at lsn. Deleting an absent key is a no-op that reports false.
func (r *Relation) Delete(lsn uint64, keyVals value.Tuple) bool {
	if len(keyVals) != len(r.keyCols) {
		return false
	}
	key := keyenc.AppendTuple(nil, keyVals)
	r.mu.Lock()
	defer r.mu.Unlock()
	row, ok := r.find(key)
	if !ok {
		return false
	}
	r.rows.Delete(row)
	if r.history {
		r.supersede(lsn, string(key), row, true)
	}
	r.updates++
	return true
}

// Get returns the current tuple for the given key values.
func (r *Relation) Get(keyVals value.Tuple) (value.Tuple, bool) {
	return r.GetAsOf(math.MaxUint64, keyVals)
}

// GetAsOf returns the tuple for the key as of the given LSN. It requires
// the relation to have been created with history enabled; without history
// it degrades to the current version (documented, for baselines only).
func (r *Relation) GetAsOf(lsn uint64, keyVals value.Tuple) (value.Tuple, bool) {
	if len(keyVals) != len(r.keyCols) {
		return nil, false
	}
	return r.AppendAsOf(nil, lsn, keyenc.AppendTuple(nil, keyVals))
}

// AppendAsOf appends to dst the values of the row under key as of lsn, the
// current row without history. key is the keyenc encoding of the key values
// in keyCols order. It is a key join's probe: into a dst with room it
// allocates nothing, the string cells sharing the stored row.
func (r *Relation) AppendAsOf(dst value.Tuple, lsn uint64, key []byte) (value.Tuple, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	row, ok := r.asOf(lsn, key)
	if !ok {
		return dst, false
	}
	return r.decode(dst, row), true
}

// asOf returns the row under key as of lsn: with history, the state current
// at lsn; without, the live row.
func (r *Relation) asOf(lsn uint64, key []byte) (string, bool) {
	if r.history {
		_, p, known := r.past.Find(func(k string) int { return cmpKey(key, k) })
		switch {
		case !known:
			return "", false
		case lsn < p.from:
			return p.at(lsn)
		}
	}
	return r.find(key)
}

// at returns the superseded state current at lsn, which precedes p.from.
func (p *past) at(lsn uint64) (string, bool) {
	i := sort.Search(len(p.old), func(i int) bool { return p.old[i].from > lsn })
	if i == 0 {
		return "", false
	}
	row := p.old[i-1].row
	return row, row != ""
}

// Scan visits every live tuple in key order until fn returns false. fn
// runs under the relation read lock and must not call update methods. The
// tuple is scratch, valid until fn returns: a caller that keeps it clones it.
func (r *Relation) Scan(fn func(value.Tuple) bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	r.scanLocked(fn)
}

// scanLocked is Scan without locking; the caller holds mu.
func (r *Relation) scanLocked(fn func(value.Tuple) bool) {
	var t value.Tuple
	r.rows.Ascend(func(row string, _ struct{}) bool {
		t = r.decode(t[:0], row)
		return fn(t)
	})
}

// ScanAsOf visits every tuple live as of lsn in key order, with Scan's
// scratch-tuple rule.
func (r *Relation) ScanAsOf(lsn uint64, fn func(value.Tuple) bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if !r.history {
		r.scanLocked(fn)
		return
	}
	var t value.Tuple
	var key []byte
	r.past.Ascend(func(k string, p *past) bool {
		var row string
		var ok bool
		if lsn < p.from {
			row, ok = p.at(lsn)
		} else {
			key = append(key[:0], k...)
			row, ok = r.find(key)
		}
		if !ok {
			return true
		}
		t = r.decode(t[:0], row)
		return fn(t)
	})
}

// colsAreKey reports whether cols is exactly the key column set.
func (r *Relation) colsAreKey(cols []int) bool {
	if len(cols) != len(r.keyCols) {
		return false
	}
	for _, kc := range r.keyCols {
		found := false
		for _, c := range cols {
			if c == kc {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// IsKey reports whether the given columns form the relation's key — the
// paper's "sufficient condition for the guarantee" that at most a constant
// number of relation tuples join with each chronicle tuple (Definition 4.2).
func (r *Relation) IsKey(cols []int) bool { return r.colsAreKey(cols) }

// AppendImage appends the relation's checkpoint section to dst: the live row
// count, then each row's value-encoded tuple in key order — the stored
// rows' own bytes, past their keys.
func (r *Relation) AppendImage(dst []byte) []byte {
	r.mu.RLock()
	defer r.mu.RUnlock()
	dst = binary.AppendUvarint(dst, uint64(r.rows.Len()))
	r.rows.Ascend(func(row string, _ struct{}) bool {
		dst = append(dst, row[r.keyLen(row):]...)
		return true
	})
	return dst
}

// RestoreImage replaces the relation's rows with those of a section
// AppendImage wrote, each current from lsn, and returns the bytes it read. A
// row is validated as Upsert validates and stored as it stands in the image,
// behind its key; a malformed one fails the restore.
func (r *Relation) RestoreImage(lsn uint64, b []byte) (int, error) {
	n, off := binary.Uvarint(b)
	if off <= 0 {
		return 0, fmt.Errorf("relation %s: bad image row count", r.name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reset()
	for i := uint64(0); i < n; i++ {
		t, used, err := value.DecodeTuple(b[off:])
		if err != nil {
			return 0, fmt.Errorf("relation %s: image row %d: %w", r.name, i, err)
		}
		if err := r.Validate(t); err != nil {
			return 0, fmt.Errorf("image row %d: %w", i, err)
		}
		r.buf = append(r.appendKey(r.buf[:0], t), b[off:off+used]...)
		r.put(lsn, string(r.buf))
		r.updates++
		off += used
	}
	return off, nil
}
