package view

import (
	"encoding/binary"
	"fmt"
)

// View checkpoints. Because the chronicle itself is not retained, a view's
// materialization (including aggregation states) is the only durable record
// of past transactional activity; recovery restores the checkpoint and
// replays the WAL suffix. Both image kinds — the whole image below and the
// blocked image of a paged view (paged.go) — open with one header:
//
//	magic "CDBV", version byte (1 whole, 2 blocked)
//	schema fingerprint of the expression output (8 bytes LE)
//	mode byte, aggregation count (uvarint)
//
// A whole image then holds every entry:
//
//	entry count (uvarint), then per entry as in a block payload (block.go):
//	  len(key) (uvarint), key, count (uvarint), one state per aggregation spec

const (
	checkpointMagic   = "CDBV"
	checkpointVersion = 1 // whole image
	blockedVersion    = 2 // blocked image
)

// appendHeader starts an image of the given version under the view's
// definition.
func (v *View) appendHeader(b []byte, version byte) []byte {
	b = append(b, checkpointMagic...)
	b = append(b, version)
	b = binary.LittleEndian.AppendUint64(b, v.def.Expr.Schema().Fingerprint())
	b = append(b, byte(v.def.Mode))
	return binary.AppendUvarint(b, uint64(len(v.def.Aggs)))
}

// checkHeader validates an image's header against version and the view's
// definition and returns the offset just past it.
func (v *View) checkHeader(data []byte, version byte) (int, error) {
	if len(data) < len(checkpointMagic)+1+8+1 {
		return 0, fmt.Errorf("view %s: checkpoint truncated", v.def.Name)
	}
	if string(data[:4]) != checkpointMagic {
		return 0, fmt.Errorf("view %s: bad checkpoint magic", v.def.Name)
	}
	if data[4] != version {
		return 0, fmt.Errorf("view %s: unsupported checkpoint version %d (want %d)", v.def.Name, data[4], version)
	}
	off := 5
	if binary.LittleEndian.Uint64(data[off:]) != v.def.Expr.Schema().Fingerprint() {
		return 0, fmt.Errorf("view %s: checkpoint schema drift (expression changed since checkpoint)", v.def.Name)
	}
	off += 8
	if Summarize(data[off]) != v.def.Mode {
		return 0, fmt.Errorf("view %s: checkpoint mode mismatch", v.def.Name)
	}
	off++
	nAggs, n := binary.Uvarint(data[off:])
	if n <= 0 {
		return 0, fmt.Errorf("view %s: bad aggregation count", v.def.Name)
	}
	if nAggs != uint64(len(v.def.Aggs)) {
		return 0, fmt.Errorf("view %s: checkpoint has %d aggregations, definition has %d",
			v.def.Name, nAggs, len(v.def.Aggs))
	}
	return off + n, nil
}

// Checkpoint serializes the view's materialized state. It holds the view
// read lock, so it sees batch boundaries only, never a half-applied
// maintenance batch. A paged view serializes from a fully-faulted COW
// snapshot instead, so the image covers evicted blocks too and stays
// complete even if eviction runs mid-encode.
func (v *View) Checkpoint() []byte {
	b := v.appendHeader(nil, checkpointVersion)
	appendEntry := func(k []byte, e *entry) bool {
		b = appendBlockEntry(b, k, e, v.def.Aggs)
		return true
	}
	if p := v.pg.Load(); p != nil {
		// The walk reads the snapshot without the lock, and the faults and
		// evictions planScan sets off publish meanwhile: counted, it keeps
		// what it reads from being reused under it.
		v.readers.Add(1)
		defer v.readers.Add(-1)
		s, _, _, _ := v.planScan(p, Window{}, 0)
		b = binary.AppendUvarint(b, uint64(s.tree.Len()))
		s.tree.Ascend(appendEntry)
		return b
	}
	v.mu.RLock()
	defer v.mu.RUnlock()
	b = binary.AppendUvarint(b, uint64(v.store.len()))
	v.store.ascend(appendEntry)
	return b
}

// RestoreCheckpoint replaces the view's state with a checkpoint previously
// produced by a view with the same definition.
func (v *View) RestoreCheckpoint(data []byte) error {
	off, err := v.checkHeader(data, checkpointVersion)
	if err != nil {
		return err
	}
	count, n := binary.Uvarint(data[off:])
	if n <= 0 {
		return fmt.Errorf("view %s: bad entry count", v.def.Name)
	}
	off += n

	fresh := newStore(storeKindOf(v.store), &v.shells)
	a, shell := new(arena), (*arena)(nil)
	if v.pg.Load() == nil {
		shell = a // a paged view's are the collector's: see blockMeta.arena
	}
	a.reserve(int(min(count, uint64(len(data)))))
	for i := uint64(0); i < count; i++ {
		key, e, used, err := decodeEntry(data[off:], shell, len(v.keyKinds), v.aggs)
		if err != nil {
			return fmt.Errorf("view %s: entry %d: %w", v.def.Name, i, err)
		}
		off += used
		dup, tag := fresh.get(key)
		if dup != nil {
			return fmt.Errorf("view %s: entry %d repeats a group", v.def.Name, i)
		}
		fresh.put(a, key, tag, e)
	}
	if off != len(data) {
		return fmt.Errorf("view %s: %d trailing checkpoint bytes", v.def.Name, len(data)-off)
	}
	v.mu.Lock()
	// The shells belong to the arena the replaced entries were carved from,
	// which goes with them.
	v.shells = shells{}
	if cur, ok := v.store.(*hashStore); ok {
		// Hash readers reach the table through v.store without any lock,
		// so the store pointer must never change once published: install
		// the fresh entries and adopt the new table in place.
		f := fresh.(*hashStore)
		f.publish(0)
		cur.adopt(f)
	} else {
		v.store = fresh
	}
	v.arena = a
	if p := v.pg.Load(); p != nil {
		// A whole-image restore (the replication bootstrap image)
		// collapses the pager to one resident dirty block spanning the
		// key space; the next blocked checkpoint re-cuts it.
		p.cache.dropView(v)
		b := &blockMeta{resident: true, arena: a}
		v.store.ascend(func(k []byte, e *entry) bool {
			b.n++
			b.bytes += estEntryBytes(k, e)
			return true
		})
		p.mark++
		b.dirtyMark = p.mark
		b.hot.Store(true)
		p.blocks = []*blockMeta{b}
		p.nonResident.Store(0)
		p.total = int64(b.n)
		p.cache.addResident(v, b)
	}
	v.publishLocked()
	v.mu.Unlock()
	return nil
}

func storeKindOf(s store) StoreKind {
	if _, ok := s.(*treeStore); ok {
		return StoreBTree
	}
	return StoreHash
}
