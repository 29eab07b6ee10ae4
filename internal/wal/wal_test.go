package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"chronicledb/internal/fault"
	"chronicledb/internal/value"
)

func sampleRecords() []Record {
	return []Record{
		{Kind: RecAppend, SN: 7, Chronon: 1234, Parts: []Part{
			{Chronicle: "calls", Tuples: []value.Tuple{
				{value.Str("a"), value.Int(10)},
				{value.Str("b"), value.Int(20)},
			}},
		}},
		{Kind: RecAppend, SN: 8, Chronon: 2345, Parts: []Part{
			{Chronicle: "calls", Tuples: []value.Tuple{{value.Str("c"), value.Int(1)}}},
			{Chronicle: "payments", Tuples: []value.Tuple{{value.Str("c"), value.Int(9)}}},
		}},
		{Kind: RecUpsert, Relation: "customers", Tuples: []value.Tuple{{value.Str("a"), value.Str("nj")}, {value.Str("b"), value.Str("ny")}}},
		{Kind: RecDelete, Relation: "customers", Tuple: value.Tuple{value.Str("a")}},
	}
}

// openLog opens segment 1 of stream in dir under policy, with a cap no test
// record reaches.
func openLog(t *testing.T, fsys fault.FS, dir, stream string, policy SyncPolicy) *Log {
	t.Helper()
	l, err := OpenSegmentFS(fsys, dir, stream, 1, 0, 1<<30, policy, nil)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func writeLog(t *testing.T, dir string, recs []Record) string {
	t.Helper()
	l := openLog(t, fault.OS, dir, "test", SyncNone)
	path := l.Path()
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func recordsEqual(a, b Record) bool {
	if a.Kind != b.Kind || a.SN != b.SN || a.Chronon != b.Chronon ||
		a.Relation != b.Relation || len(a.Parts) != len(b.Parts) {
		return false
	}
	if !value.TuplesEqual(a.Tuple, b.Tuple) {
		return false
	}
	for i := range a.Parts {
		if a.Parts[i].Chronicle != b.Parts[i].Chronicle || len(a.Parts[i].Tuples) != len(b.Parts[i].Tuples) {
			return false
		}
		for j := range a.Parts[i].Tuples {
			if !value.TuplesEqual(a.Parts[i].Tuples[j], b.Parts[i].Tuples[j]) {
				return false
			}
		}
	}
	return true
}

func TestAppendReplayRoundTrip(t *testing.T) {
	recs := sampleRecords()
	path := writeLog(t, t.TempDir(), recs)
	var got []Record
	n, ignored, err := replayAfter(fault.OS, path, 0, func(r Record) error {
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(recs) || ignored != 0 {
		t.Fatalf("Replay = %d records, %d ignored", n, ignored)
	}
	for i := range recs {
		if !recordsEqual(recs[i], got[i]) {
			t.Errorf("record %d: %+v != %+v", i, recs[i], got[i])
		}
	}
}

func TestReplayMissingFile(t *testing.T) {
	n, ignored, err := replayAfter(fault.OS, filepath.Join(t.TempDir(), "absent.wal"), 0, func(Record) error { return nil })
	if err != nil || n != 0 || ignored != 0 {
		t.Errorf("missing file: n=%d ignored=%d err=%v", n, ignored, err)
	}
}

func TestReplayTornTail(t *testing.T) {
	recs := sampleRecords()
	path := writeLog(t, t.TempDir(), recs)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Chop mid-record: drop the last 3 bytes.
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	var got int
	n, ignored, err := replayAfter(fault.OS, path, 0, func(Record) error { got++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != len(recs)-1 || got != len(recs)-1 {
		t.Errorf("torn tail: replayed %d, want %d", n, len(recs)-1)
	}
	if ignored == 0 {
		t.Error("torn bytes not reported")
	}
}

func TestReplayCorruptMiddleStops(t *testing.T) {
	recs := sampleRecords()
	path := writeLog(t, t.TempDir(), recs)
	data, _ := os.ReadFile(path)
	// Flip one byte inside the second record's payload.
	data[20] ^= 0xFF
	os.WriteFile(path, data, 0o644)
	n, ignored, err := replayAfter(fault.OS, path, 0, func(Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n >= len(recs) {
		t.Errorf("corrupt record replayed: n=%d", n)
	}
	if ignored == 0 {
		t.Error("corruption not reported as ignored bytes")
	}
}

func TestReplayCallbackError(t *testing.T) {
	path := writeLog(t, t.TempDir(), sampleRecords())
	_, _, err := replayAfter(fault.OS, path, 0, func(r Record) error {
		if r.Kind == RecUpsert {
			return os.ErrInvalid
		}
		return nil
	})
	if err == nil {
		t.Error("callback error not surfaced")
	}
}

func TestReopenAppends(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, fault.OS, dir, "re", SyncNone)
	path := l.Path()
	l.Append(sampleRecords()[0])
	l.Close()
	l2 := openLog(t, fault.OS, dir, "re", SyncNone)
	l2.Append(sampleRecords()[1])
	l2.Close()
	n, _, err := replayAfter(fault.OS, path, 0, func(Record) error { return nil })
	if err != nil || n != 2 {
		t.Errorf("reopen: n=%d err=%v", n, err)
	}
	if l2.Path() != path {
		t.Error("Path mismatch")
	}
}

func TestFlushMakesDurableWithoutClose(t *testing.T) {
	l := openLog(t, fault.OS, t.TempDir(), "flush", SyncNone)
	path := l.Path()
	defer l.Close()
	l.Append(sampleRecords()[0])
	// Unflushed, the record may still sit in the buffer.
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	n, _, err := replayAfter(fault.OS, path, 0, func(Record) error { return nil })
	if err != nil || n != 1 {
		t.Errorf("after Flush: n=%d err=%v", n, err)
	}
}

// TestReplayUndecodableFrameFails: a frame whose CRC holds was written
// whole, so one whose kind byte no version ever wrote is not a torn tail:
// replay fails, naming the frame's offset and, merged, its segment, rather
// than stop there and drop the record after it.
func TestReplayUndecodableFrameFails(t *testing.T) {
	dir := t.TempDir()
	path := writeLog(t, dir, sampleRecords()[:1])
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte{9, 2}
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	frame = append(frame, payload...)
	data := append(append(slices.Clone(good), frame...), good...)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	n, _, err := replayAfter(fault.OS, path, 0, func(Record) error { return nil })
	if want := fmt.Sprintf("offset %d", len(good)); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("undecodable frame: replayed %d, err %v; want an error naming %q", n, err, want)
	}
	_, err = ReplayMergedFS(fault.OS, dir, []string{filepath.Base(path)}, 0, func(Record) error { return nil })
	if err == nil || !strings.Contains(err.Error(), filepath.Base(path)) {
		t.Errorf("merged replay: err %v; want an error naming segment %s", err, filepath.Base(path))
	}
}

func TestDecodeRecordErrors(t *testing.T) {
	cases := [][]byte{
		{},                         // empty
		{byte(RecAppend), 1, 2, 3}, // truncated append header
		{byte(RecUpsert)},          // missing name
		{byte(RecDelete), 1, 200},  // bad string length
		{0, 1},                     // kind 0 is never written
	}
	for i, b := range cases {
		if _, err := decodeRecord(b); err == nil {
			t.Errorf("case %d: decode accepted %v", i, b)
		}
	}
}
