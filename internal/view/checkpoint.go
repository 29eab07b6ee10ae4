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

// Checkpoint serializes the view's materialized state, every entry in key
// order. It holds the view's lock, so it sees publications only, never a
// half-applied maintenance batch. A paged view checkpoints blocked
// (CheckpointBlocked): its cold blocks are not in memory to serialize.
func (v *View) Checkpoint() []byte {
	if v.Paged() {
		panic(fmt.Sprintf("view %s: whole image of a paged view", v.def.Name))
	}
	b := v.appendHeader(nil, checkpointVersion)
	v.mu.Lock()
	defer v.mu.Unlock()
	h := v.store
	b = binary.AppendUvarint(b, uint64(h.count.Load()))
	h.each(nil, nil, func(id uint32, e *entry) bool {
		b = appendBlockEntry(b, h.dir.key(id), e, v.sh)
		return true
	})
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

	var a *arena // a paged view's are the collector's: see arena
	if v.pg.Load() == nil {
		a = new(arena)
		a.reserve(int(min(count, uint64(len(data)))))
	}
	fresh := &store{dir: v.store.dir}
	if off, err = v.restoreEntries(fresh, a, data, off, count); err != nil {
		return err
	}
	if off != len(data) {
		return fmt.Errorf("view %s: %d trailing checkpoint bytes", v.def.Name, len(data)-off)
	}
	v.mu.Lock()
	// The shells belong to the arena the replaced entries were carved from,
	// which goes with them. Readers reach the entries through v.store without
	// any lock, so the store pointer never changes: it adopts the fresh array
	// in place.
	v.shells = shells{sh: v.sh}
	v.store.adopt(fresh)
	if a != nil {
		v.arena = a
	}
	if p := v.pg.Load(); p != nil {
		// A whole-image restore (an image written before views paged)
		// collapses the pager to one resident dirty block spanning the key
		// space; the next blocked checkpoint re-cuts it.
		p.cache.dropView(v)
		p.setBlocks([]*blockMeta{v.wholeBlock(p)})
		p.cache.addResident(v, p.blocks[0])
	}
	v.publishLocked()
	v.mu.Unlock()
	return nil
}

// restoreEntries decodes count entries of a whole image from data at off into
// fresh, carving shells from a, and returns the offset past them. The keys
// are interned into the view's directory, under the directory's lock, which
// the caller must not hold with the view's.
func (v *View) restoreEntries(fresh *store, a *arena, data []byte, off int, count uint64) (int, error) {
	d := fresh.dir
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := uint64(0); i < count; i++ {
		key, e, used, err := decodeEntry(data[off:], a, len(v.keyKinds), v.sh)
		if err != nil {
			return 0, fmt.Errorf("view %s: entry %d: %w", v.def.Name, i, err)
		}
		off += used
		// The directory may hold the key already, for a sibling; the group is
		// this view's first copy of it or a repeat.
		s := fresh.pub.slot(d.intern(key))
		if s.Load() != nil {
			return 0, fmt.Errorf("view %s: entry %d repeats a group", v.def.Name, i)
		}
		s.Store(e)
		fresh.count.Add(1)
	}
	return off, nil
}
