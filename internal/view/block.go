package view

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"chronicledb/internal/aggregate"
	"chronicledb/internal/keyenc"
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
//	  len(key) (uvarint), key, count (uvarint), one state per aggregation spec
//	CRC-32C of all preceding payload bytes (4 bytes LE)
//
// key is the entry's group key exactly as the store holds it (keyenc), and
// the only copy of the group values: a restore carves it as it stands, and a
// reader decodes the values from it.

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

// appendBlockEntry appends the entry stored under key in block-payload
// encoding.
func appendBlockEntry(b, key []byte, e *entry, aggs []aggregate.Spec) []byte {
	b = binary.AppendUvarint(b, uint64(len(key)))
	b = append(b, key...)
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

// keyed is a decoded entry and the key it is stored under, which aliases the
// bytes it was decoded from.
type keyed struct {
	key []byte
	e   *entry
}

// decodeBlock decodes a block payload produced by sealBlock, verifying the
// CRC trailer first so a torn or corrupted block is rejected, never
// half-applied. Keys hold nkey values; aggs are the owning view's.
func decodeBlock(data []byte, nkey int, aggs []aggregate.Spec) ([]keyed, error) {
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
	// A valid entry takes ≥1 byte; don't trust the count.
	entries := make([]keyed, 0, min(count, uint64(len(body))))
	for i := uint64(0); i < count; i++ {
		// Blocks belong to paged views, whose shells stay with the collector
		// (see blockMeta.arena).
		key, e, used, err := decodeEntry(body[off:], nil, nkey, aggs)
		if err != nil {
			return nil, fmt.Errorf("block entry %d: %w", i, err)
		}
		off += used
		entries = append(entries, keyed{key, e})
	}
	if off != len(body) {
		return nil, fmt.Errorf("block: %d trailing bytes", len(body)-off)
	}
	return entries, nil
}

// decodeEntry decodes one entry in block-payload encoding (a whole-image
// checkpoint uses the same) from the front of b, building it with newEntry
// from a, and returns its key — checked to hold nkey values, and aliasing b —
// with it and the bytes consumed.
func decodeEntry(b []byte, a *arena, nkey int, aggs []aggregate.Spec) ([]byte, *entry, int, error) {
	klen, off := binary.Uvarint(b)
	if off <= 0 || klen > uint64(len(b)-off) {
		return nil, nil, 0, fmt.Errorf("bad key length")
	}
	key := b[off : off+int(klen)]
	if err := keyenc.CheckKey(key, nkey); err != nil {
		return nil, nil, 0, fmt.Errorf("key: %w", err)
	}
	off += int(klen)
	c, used := binary.Uvarint(b[off:])
	if used <= 0 {
		return nil, nil, 0, fmt.Errorf("bad count")
	}
	off += used
	e := newEntry(a, aggs, nil)
	e.count = int64(c)
	for j, spec := range aggs {
		st, used, err := aggregate.DecodeState(spec.Func, b[off:])
		if err != nil {
			return nil, nil, 0, fmt.Errorf("state %d: %w", j, err)
		}
		e.states[j] = st
		off += used
	}
	return key, e, off, nil
}
