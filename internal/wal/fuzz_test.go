package wal

import "testing"

// FuzzDecodeRecord: arbitrary payloads must never panic the decoder.
func FuzzDecodeRecord(f *testing.F) {
	for _, r := range sampleRecords() {
		f.Add(encodeRecord(nil, r))
	}
	f.Add([]byte{})
	f.Add([]byte{byte(RecAppend), 0, 0})
	f.Add([]byte{0, 1, 3, 'a', 'b', 'c'}) // kind 0: never written, refused
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodeRecord(data)
		if err != nil {
			return
		}
		// Accepted records must re-encode without panicking.
		_ = encodeRecord(nil, rec)
	})
}
