package wal

import (
	"bytes"
	"testing"

	"chronicledb/internal/value"
)

// appendEachRecords are append calls in the shapes the kernel writes them:
// an idempotent call whose clock steps back between its tuples, a plain call
// (no ids), and a call with nil chronons, every tuple at Chronon (the form a
// record built by hand takes).
func appendEachRecords() []Record {
	part := []Part{{Chronicle: "calls", Tuples: []value.Tuple{
		{value.Str("a"), value.Int(1)},
		{value.Str("b"), value.Int(2)},
		{value.Str("c"), value.Int(3)},
	}}}
	return []Record{
		{Kind: RecAppendEach, LSN: 40, SN: 7, Chronon: 1000, Chronons: []int64{1000, 1700, 1200},
			ClientID: "client", RequestID: "req-1", Parts: part},
		{Kind: RecAppendEach, LSN: 43, SN: 10, Chronon: 2000, Chronons: []int64{2000, 2000, 2001}, Parts: part},
		{Kind: RecAppendEach, LSN: 1, SN: 1, Chronon: 1, ClientID: "bench", RequestID: "q1", Parts: part},
	}
}

// TestAppendEachRecordsRoundTrip: each append-call shape is written under
// the one RecAppendEach kind byte, decodes to its stamps and ids, and
// re-encodes to the same bytes. A call without chronons is written with
// every tuple at Chronon, and reads back so.
func TestAppendEachRecordsRoundTrip(t *testing.T) {
	for i, r := range appendEachRecords() {
		b := encodeRecord(nil, r)
		if RecordKind(b[0]) != RecAppendEach {
			t.Errorf("record %d is written as kind %d, want %d", i, b[0], RecAppendEach)
		}
		got, err := decodeRecord(b)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if again := encodeRecord(nil, got); !bytes.Equal(again, b) {
			t.Errorf("record %d re-encodes to %x, want %x", i, again, b)
		}
		if !recordsEqual(got, r) || got.LSN != r.LSN || got.ClientID != r.ClientID || got.RequestID != r.RequestID {
			t.Errorf("record %d decodes to %+v, want %+v", i, got, r)
		}
		for j := range r.Parts[0].Tuples {
			if got.ChrononAt(j) != r.ChrononAt(j) {
				t.Errorf("record %d tuple %d: chronon %d, want %d", i, j, got.ChrononAt(j), r.ChrononAt(j))
			}
		}
	}
}

// FuzzDecodeRecord: arbitrary payloads must never panic the decoder, and a
// payload whose kind byte names no record kind is refused — among the seeds,
// an append call under kind byte 5, a layout no reader here has.
func FuzzDecodeRecord(f *testing.F) {
	for _, r := range append(sampleRecords(), appendEachRecords()...) {
		f.Add(encodeRecord(nil, r))
	}
	f.Add([]byte{})
	f.Add([]byte{byte(RecAppend), 0, 0})
	f.Add([]byte{0, 1, 3, 'a', 'b', 'c'}) // kind 0: never written, refused
	kind5 := encodeRecord(nil, appendEachRecords()[0])
	kind5[0] = 5
	f.Add(kind5)
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodeRecord(data)
		if err != nil {
			return
		}
		if k := RecordKind(data[0]); k == 0 || k > RecAppendEach {
			t.Fatalf("kind byte %d decoded to %+v", k, rec)
		}
		// Accepted records must re-encode without panicking.
		_ = encodeRecord(nil, rec)
	})
}
