package repl

import (
	"bytes"
	"encoding/binary"
	"io"
	"strings"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	payload := []byte{7, 1, 2, 3, 4, 5}
	var stream []byte
	stream = AppendRecordFrame(stream, payload)
	stream = AppendHeartbeatFrame(stream, 42)
	stream = AppendDDLFrame(stream, 3, 17, "CREATE CHRONICLE c (a INT)")

	fr := NewFrameReader(bytes.NewReader(stream))
	typ, p, err := fr.Next()
	if err != nil || typ != FrameRecord || !bytes.Equal(p, payload) {
		t.Fatalf("record frame: typ=%d p=%v err=%v", typ, p, err)
	}
	typ, p, err = fr.Next()
	if err != nil || typ != FrameHeartbeat {
		t.Fatalf("heartbeat frame: typ=%d err=%v", typ, err)
	}
	lsn, err := DecodeHeartbeatFrame(p)
	if err != nil || lsn != 42 {
		t.Fatalf("heartbeat lsn=%d err=%v", lsn, err)
	}
	typ, p, err = fr.Next()
	if err != nil || typ != FrameDDL {
		t.Fatalf("ddl frame: typ=%d err=%v", typ, err)
	}
	idx, dlsn, stmt, err := DecodeDDLFrame(p)
	if err != nil || idx != 3 || dlsn != 17 || stmt != "CREATE CHRONICLE c (a INT)" {
		t.Fatalf("ddl decode: idx=%d lsn=%d stmt=%q err=%v", idx, dlsn, stmt, err)
	}
	if _, _, err := fr.Next(); err != io.EOF {
		t.Fatalf("want clean EOF, got %v", err)
	}
}

func TestFrameReaderCorruption(t *testing.T) {
	frame := AppendRecordFrame(nil, []byte{1, 2, 3})

	// A flipped payload byte is a checksum mismatch, never silent.
	bad := append([]byte(nil), frame...)
	bad[len(bad)-1] ^= 0xff
	if _, _, err := NewFrameReader(bytes.NewReader(bad)).Next(); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupt payload: err=%v", err)
	}

	// Truncation inside the header or the payload is an error, not EOF:
	// replication streams have no legitimate torn frames.
	for cut := 1; cut < len(frame); cut++ {
		if _, _, err := NewFrameReader(bytes.NewReader(frame[:cut])).Next(); err == nil || err == io.EOF {
			t.Fatalf("truncated at %d: err=%v", cut, err)
		}
	}

	// An absurd length prefix is corruption, not an allocation request; a
	// zero one is corruption too.
	huge := make([]byte, 8)
	binary.LittleEndian.PutUint32(huge, uint32(maxFrame+1))
	if _, _, err := NewFrameReader(bytes.NewReader(huge)).Next(); err == nil {
		t.Fatal("oversized length accepted")
	}
	zero := make([]byte, 8)
	if _, _, err := NewFrameReader(bytes.NewReader(zero)).Next(); err == nil {
		t.Fatal("zero length accepted")
	}
}

// FuzzReplFrame drives the stream decoder with arbitrary bytes: it must
// never panic and never over-read, each frame it accepts must be the one the
// bytes hold — its length prefix, then its type and payload — and it must
// end at a clean EOF only where the bytes end.
func FuzzReplFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendRecordFrame(nil, []byte{1, 2, 3, 4}))
	f.Add(AppendHeartbeatFrame(nil, 123456789))
	f.Add(AppendDDLFrame(nil, 0, 9, "CREATE CHRONICLE t (x INT)"))
	f.Add(append(AppendHeartbeatFrame(nil, 7), 0xde, 0xad, 0xbe))
	long := bytes.Repeat([]byte{0x5a}, 300)
	f.Add(AppendRecordFrame(AppendDDLFrame(nil, 1, 2, "DROP VIEW v"), long))

	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewFrameReader(bytes.NewReader(data))
		off := 0
		for {
			typ, payload, err := fr.Next()
			if err == io.EOF && off != len(data) {
				t.Fatalf("clean EOF at %d of %d bytes", off, len(data))
			}
			if err != nil {
				break
			}
			n := 8 + 1 + len(payload)
			if off+n > len(data) {
				t.Fatalf("frame of %d bytes at %d of %d", n, off, len(data))
			}
			if plen := int(binary.LittleEndian.Uint32(data[off:])); plen != n-8 || typ != data[off+8] || !bytes.Equal(payload, data[off+9:off+n]) {
				t.Fatalf("frame at %d: typ=%d, %d payload bytes, not the %d its prefix says", off, typ, len(payload), plen)
			}
			switch typ {
			case FrameHeartbeat:
				DecodeHeartbeatFrame(payload)
			case FrameDDL:
				if idx, lsn, stmt, err := DecodeDDLFrame(payload); err == nil {
					// Accepted DDL bodies must re-encode losslessly.
					re := AppendDDLFrame(nil, idx, lsn, stmt)
					_, p2, err := NewFrameReader(bytes.NewReader(re)).Next()
					if err != nil || !bytes.Equal(p2[len(p2)-len(stmt):], []byte(stmt)) {
						t.Fatalf("ddl re-encode mismatch: %v", err)
					}
				}
			}
			off += n
		}
	})
}
