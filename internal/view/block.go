package view

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"chronicledb/internal/aggregate"
	"chronicledb/internal/value"
)

// Blocked view persistence: view entries are laid out in fixed-size blocks
// keyed by memcomparable keyenc boundaries. A block is the unit of dirty
// tracking (checkpoints re-serialize only blocks touched since the last
// one), of paging (the block cache evicts and faults whole blocks against
// the checkpoint chain), and of torn-write detection (each payload carries
// its own CRC, so a half-written block never decodes).
//
// Block payload layout, self-contained and order-independent:
//
//	entry count (uvarint), then per entry:
//	  vals tuple, count (uvarint), one state per aggregation spec
//	CRC-32C of all preceding payload bytes (4 bytes LE)
//
// Entry keys are not stored: they re-derive from the entry values exactly
// as Apply keys them (keyenc.AppendTuple over vals), the same invariant
// the v1 whole-image checkpoint relies on.

// DefaultBlockBytes is the target encoded size of one view block. 8 KiB
// keeps a faulted block to a handful of tree inserts while amortizing the
// per-block header and CRC across dozens-to-hundreds of entries.
const DefaultBlockBytes = 8 << 10

// BlockRef locates one durable block payload inside a checkpoint chain
// file: Len bytes at Off, guarded by the payload's own trailing CRC (also
// recorded here so torn files are rejected before decoding).
type BlockRef struct {
	File string
	Off  int64
	Len  int64
	CRC  uint32
}

// FetchFunc reads the Len payload bytes a BlockRef points at. The storage
// layer binds it to the database directory; the view layer never touches
// the filesystem directly.
type FetchFunc func(BlockRef) ([]byte, error)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// blockCRC is the checksum stored in a payload trailer and in BlockRefs.
func blockCRC(payload []byte) uint32 { return crc32.Checksum(payload, castagnoli) }

// appendBlockEntry appends one entry in block-payload encoding.
func appendBlockEntry(b []byte, e *entry, aggs []aggregate.Spec) []byte {
	b = value.AppendTuple(b, e.vals)
	b = binary.AppendUvarint(b, uint64(e.count))
	for i, st := range e.states {
		b = aggregate.AppendState(b, aggs[i].Func, st)
	}
	return b
}

// sealBlock prefixes the encoded entries with their count and appends the
// CRC trailer, yielding a complete block payload.
func sealBlock(dst []byte, entries []byte, n int) []byte {
	dst = binary.AppendUvarint(dst, uint64(n))
	dst = append(dst, entries...)
	return binary.LittleEndian.AppendUint32(dst, blockCRC(dst))
}

// decodeBlock decodes a block payload produced by sealBlock, verifying the
// CRC trailer first so a torn or corrupted block is rejected, never
// half-applied. mode and aggs come from the owning view's definition.
func decodeBlock(data []byte, mode Summarize, aggs []aggregate.Spec) ([]*entry, error) {
	if len(data) < 5 {
		return nil, fmt.Errorf("block truncated: %d bytes", len(data))
	}
	body := data[:len(data)-4]
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := blockCRC(body); got != want {
		return nil, fmt.Errorf("block CRC mismatch: got %08x want %08x", got, want)
	}
	count, n := binary.Uvarint(body)
	if n <= 0 {
		return nil, fmt.Errorf("block: bad entry count")
	}
	off := n
	cap := int(count)
	if cap > len(body) { // a valid entry takes ≥1 byte; don't trust the count
		cap = len(body)
	}
	entries := make([]*entry, 0, cap)
	if mode != SummarizeGroupBy {
		aggs = nil
	}
	// Blocks belong to the ordered store, whose shells stay with the
	// collector; the block's values get an arena of their own, which goes
	// when the block's entries do.
	a := new(arena)
	a.reserve(cap)
	for i := uint64(0); i < count; i++ {
		e, used, err := decodeEntry(body[off:], a, true, aggs)
		if err != nil {
			return nil, fmt.Errorf("block entry %d: %w", i, err)
		}
		off += used
		entries = append(entries, e)
	}
	if off != len(body) {
		return nil, fmt.Errorf("block: %d trailing bytes", len(body)-off)
	}
	return entries, nil
}

// decodeEntry decodes one entry in block-payload encoding (a whole-image
// checkpoint uses the same) from the front of b, building it with newEntry,
// and returns it with the bytes consumed.
func decodeEntry(b []byte, a *arena, gcShell bool, aggs []aggregate.Spec) (*entry, int, error) {
	arity, off := binary.Uvarint(b)
	if off <= 0 {
		return nil, 0, fmt.Errorf("bad tuple arity")
	}
	if arity > uint64(len(b)) {
		// Each value takes at least one byte, so arity can never exceed the
		// remaining buffer; this rejects corrupt headers early.
		return nil, 0, fmt.Errorf("tuple arity %d exceeds buffer", arity)
	}
	e := newEntry(a, gcShell, int(arity), aggs, nil)
	for i := range e.vals {
		v, used, err := value.DecodeValue(b[off:])
		if err != nil {
			return nil, 0, fmt.Errorf("column %d: %w", i, err)
		}
		e.vals[i] = v
		off += used
	}
	c, used := binary.Uvarint(b[off:])
	if used <= 0 {
		return nil, 0, fmt.Errorf("bad count")
	}
	off += used
	e.count = int64(c)
	for j, spec := range aggs {
		st, used, err := aggregate.DecodeState(spec.Func, b[off:])
		if err != nil {
			return nil, 0, fmt.Errorf("state %d: %w", j, err)
		}
		e.states[j] = st
		off += used
	}
	return e, off, nil
}
