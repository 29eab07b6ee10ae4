// Package repl implements log-shipping replication for a chronicle
// database.
//
// The chronicle model makes this almost free: the database is insert-only
// and every view is a pure function of the totally ordered WAL, so the WAL
// *is* the replication stream. A primary taps its logs for post-fsync
// record payloads, orders them by global LSN (appends across shard logs
// become durable out of LSN order), and fans identical frames out to any
// number of followers; a follower applies them through the same paths
// recovery uses and converges to the primary's exact state — same LSNs,
// same view contents, same dedup table. No retraction machinery, no
// conflict resolution: catch-up from any LSN is pure log replay out of the
// primary's segment set.
//
// Stream wire format: each frame is u32 little-endian payload length, u32
// CRC-32 (IEEE) of the payload, payload — the same envelope as WAL frames
// on disk. The payload's first byte is the frame type:
//
//	0 record:    a wal.EncodeRecord payload, shipped verbatim.
//	1 heartbeat: u64 LE primary durable LSN (the released cursor).
//	2 ddl:       uvarint catalog index, uvarint LSN annotation, then the
//	             statement text to the end of the payload.
//	3 manifest:  a wal.EncodeManifest payload naming a checkpoint chain.
//	4 file:      the next bytes of the chain file being shipped; an empty
//	             body ends the file.
//
// A bootstrap (GET /repl/snapshot) is one manifest frame whose refs all
// carry the catalog prefix k the chain was cut against, then the ddl
// frames of catalog statements 0..k-1, then each chain file in the
// manifest's order as file frames: the files exactly as they lie on the
// primary's disk.
//
// DDL never enters the WAL (the catalog file is its durable home), so it
// rides the stream as its own frame type carrying its position in the
// primary's catalog: the follower applies statement i only when it has
// applied exactly i statements, which makes redelivery (catalog tail
// replay after a reconnect) idempotent and detects gaps.
package repl

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Frame types.
const (
	FrameRecord    byte = 0
	FrameHeartbeat byte = 1
	FrameDDL       byte = 2
	FrameManifest  byte = 3
	FrameFile      byte = 4
)

// maxFrame caps a stream frame payload; a length prefix beyond it is
// corruption, not an allocation request. Matches the WAL replay cap.
const maxFrame = 64 << 20

// AppendRecordFrame appends a type-0 frame carrying a wal-encoded record
// payload to dst.
func AppendRecordFrame(dst, payload []byte) []byte {
	return appendFrame(dst, FrameRecord, payload, nil)
}

// AppendHeartbeatFrame appends a type-1 frame carrying the primary's
// durable LSN cursor to dst.
func AppendHeartbeatFrame(dst []byte, lsn uint64) []byte {
	var body [8]byte
	binary.LittleEndian.PutUint64(body[:], lsn)
	return appendFrame(dst, FrameHeartbeat, body[:], nil)
}

// AppendBodyFrame appends a frame of the given type around an
// already-encoded body (the stream handler re-wraps Source frames, whose
// payloads are bodies without the envelope or type byte).
func AppendBodyFrame(dst []byte, typ byte, body []byte) []byte {
	return appendFrame(dst, typ, body, nil)
}

// AppendDDLFrame appends a type-2 frame carrying catalog statement idx
// (0-based position in the primary's catalog), its LSN ordering
// annotation, and the statement text to dst.
func AppendDDLFrame(dst []byte, idx, lsn uint64, stmt string) []byte {
	var hdr [2 * binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], idx)
	n += binary.PutUvarint(hdr[n:], lsn)
	return appendFrame(dst, FrameDDL, hdr[:n], []byte(stmt))
}

// appendFrame writes the length/CRC envelope around typ ++ body ++ tail.
func appendFrame(dst []byte, typ byte, body, tail []byte) []byte {
	plen := 1 + len(body) + len(tail)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(plen))
	crc := crc32.NewIEEE()
	crc.Write([]byte{typ})
	crc.Write(body)
	crc.Write(tail)
	binary.LittleEndian.PutUint32(hdr[4:], crc.Sum32())
	dst = append(dst, hdr[:]...)
	dst = append(dst, typ)
	dst = append(dst, body...)
	return append(dst, tail...)
}

// DecodeDDLFrame parses a type-2 frame body (the payload after the type
// byte).
func DecodeDDLFrame(b []byte) (idx, lsn uint64, stmt string, err error) {
	idx, sz := binary.Uvarint(b)
	if sz <= 0 {
		return 0, 0, "", fmt.Errorf("repl: bad ddl index")
	}
	b = b[sz:]
	lsn, sz = binary.Uvarint(b)
	if sz <= 0 {
		return 0, 0, "", fmt.Errorf("repl: bad ddl lsn")
	}
	return idx, lsn, string(b[sz:]), nil
}

// DecodeHeartbeatFrame parses a type-1 frame body.
func DecodeHeartbeatFrame(b []byte) (lsn uint64, err error) {
	if len(b) != 8 {
		return 0, fmt.Errorf("repl: bad heartbeat length %d", len(b))
	}
	return binary.LittleEndian.Uint64(b), nil
}

// FrameReader decodes stream frames off a network connection. The payload
// returned by Next is valid only until the following call — it aliases the
// reader's reused buffer.
type FrameReader struct {
	br  *bufio.Reader
	buf []byte
}

// NewFrameReader wraps r for frame decoding.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{br: bufio.NewReaderSize(r, 1<<16)}
}

// Next reads one frame, returning its type and the payload after the type
// byte. io.EOF means a clean end between frames; any mid-frame truncation
// or checksum mismatch is an error (a replication stream, unlike a crash
// tail, has no legitimate torn frames — the follower reconnects).
func (fr *FrameReader) Next() (typ byte, payload []byte, err error) {
	var hdr [8]byte
	if _, err := io.ReadFull(fr.br, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return 0, nil, fmt.Errorf("repl: torn frame header: %w", err)
		}
		return 0, nil, err
	}
	plen := int(binary.LittleEndian.Uint32(hdr[0:]))
	crc := binary.LittleEndian.Uint32(hdr[4:])
	if plen <= 0 || plen > maxFrame {
		return 0, nil, fmt.Errorf("repl: bad frame length %d", plen)
	}
	if cap(fr.buf) < plen {
		fr.buf = make([]byte, plen)
	}
	fr.buf = fr.buf[:plen]
	if _, err := io.ReadFull(fr.br, fr.buf); err != nil {
		return 0, nil, fmt.Errorf("repl: torn frame payload: %w", err)
	}
	if crc32.ChecksumIEEE(fr.buf) != crc {
		return 0, nil, fmt.Errorf("repl: frame checksum mismatch")
	}
	return fr.buf[0], fr.buf[1:], nil
}
