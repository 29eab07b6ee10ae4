package wal

import (
	"fmt"
	"reflect"
	"testing"

	"chronicledb/internal/fault"
	"chronicledb/internal/value"
)

func sampleManifests() []Manifest {
	v2 := Manifest{Version: 2, Shards: 2}
	v2.Live = []Segment{
		{Name: SegmentFileName(StreamName(0), 3), Stream: StreamName(0), Seq: 3, Sealed: true, Bytes: 4096, MaxLSN: 120},
		{Name: SegmentFileName(StreamName(0), 4), Stream: StreamName(0), Seq: 4},
		{Name: SegmentFileName(StreamName(1), 1), Stream: StreamName(1), Seq: 1},
		{Name: SegmentFileName(RelationStream, 2), Stream: RelationStream, Seq: 2},
	}
	v2.Checkpoints = []CheckpointRef{
		{Name: CheckpointFileName(5), Seq: 5, LSN: 90, Full: true, Catalog: 3},
		{Name: CheckpointFileName(6), Seq: 6, LSN: 118, Catalog: 3},
	}
	return []Manifest{
		{Version: 2, Shards: 1, Live: []Segment{{Name: SegmentFileName(StreamName(0), 1), Stream: StreamName(0), Seq: 1}}},
		v2,
	}
}

func TestManifestRoundTrip(t *testing.T) {
	for _, m := range sampleManifests() {
		data, err := EncodeManifest(m)
		if err != nil {
			t.Fatalf("encode %+v: %v", m, err)
		}
		got, err := DecodeManifest(data)
		if err != nil {
			t.Fatalf("decode %+v: %v", m, err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Errorf("round trip: %+v != %+v", got, m)
		}
	}
}

func TestDecodeManifestRejects(t *testing.T) {
	bad := []string{
		``,
		`{`,
		`{"version":0}`,
		`{"version":3}`,
		`{"version":1,"shards":2}`,
		`{"version":2,"shards":-1}`,
		`{"version":2,"live":[{"name":"","stream":"chronicle","seq":1}]}`,
		`{"version":2,"live":[{"name":"a.wal","stream":"","seq":1}]}`,
		`{"version":2,"live":[{"name":"a.wal","stream":"chronicle","seq":0}]}`,
		`{"version":2,"live":[{"name":"a.wal","stream":"chronicle","seq":1},{"name":"a.wal","stream":"chronicle","seq":2}]}`,
		`{"version":2,"checkpoints":[{"name":"","seq":1}]}`,
		`{"version":2,"checkpoints":[{"name":"c.bin","seq":0}]}`,
		`{"version":2,"checkpoints":[{"name":"checkpoint-00000002.bin","seq":1}]}`,
		`{"version":2,"checkpoints":[{"name":"../checkpoint-00000001.bin","seq":1}]}`,
	}
	for _, s := range bad {
		if _, err := DecodeManifest([]byte(s)); err == nil {
			t.Errorf("DecodeManifest(%q) accepted", s)
		}
	}
}

// normalizeManifest maps empty slices to nil so that the JSON-level
// distinction between a missing list and `[]` (erased by omitempty on
// re-encode) doesn't count as a lossy round trip — recovery treats the
// two identically.
func normalizeManifest(m Manifest) Manifest {
	if len(m.Live) == 0 {
		m.Live = nil
	}
	if len(m.Checkpoints) == 0 {
		m.Checkpoints = nil
	}
	return m
}

// FuzzManifest: arbitrary bytes must never panic the decoder, and any
// manifest the decoder accepts must survive an encode/decode round trip
// unchanged — the manifest is the single source of truth for recovery, so
// a lossy round trip would silently change which files replay.
func FuzzManifest(f *testing.F) {
	for _, m := range sampleManifests() {
		data, err := EncodeManifest(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte(`{"version":2,"shards":1,"live":[{"name":"x.wal","stream":"s","seq":1}]}`))
	f.Add([]byte(`{"version":1,"shards":-3}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeManifest(data)
		if err != nil {
			return
		}
		enc, err := EncodeManifest(m)
		if err != nil {
			t.Fatalf("accepted manifest fails to encode: %+v: %v", m, err)
		}
		m2, err := DecodeManifest(enc)
		if err != nil {
			t.Fatalf("re-decode of accepted manifest fails: %q: %v", enc, err)
		}
		if !reflect.DeepEqual(normalizeManifest(m), normalizeManifest(m2)) {
			t.Fatalf("lossy round trip: %+v != %+v", m, m2)
		}
	})
}

// TestTornManifestFlipRecovers enumerates a power cut (with torn final
// write on odd points) at every mutating disk operation inside a manifest
// flip: after healing, the directory must read back as either the old or
// the new complete manifest — never a decode error, and never the new one
// when the flip didn't ack.
func TestTornManifestFlipRecovers(t *testing.T) {
	oldM := Manifest{Version: 2, Shards: 1, Live: []Segment{
		{Name: SegmentFileName(RelationStream, 1), Stream: RelationStream, Seq: 1},
	}}
	newM := oldM.Clone()
	newM.Live[0].Sealed = true
	newM.Live[0].Bytes = 2048
	newM.Live[0].MaxLSN = 77
	newM.Live = append(newM.Live, Segment{
		Name: SegmentFileName(RelationStream, 2), Stream: RelationStream, Seq: 2,
	})
	newM.Checkpoints = []CheckpointRef{{Name: CheckpointFileName(1), Seq: 1, LSN: 40, Full: true}}

	prep := func() *fault.Disk {
		t.Helper()
		d := fault.NewDisk()
		d.MkdirAll("/data", 0o755)
		if err := WriteManifestFS(d, "/data", oldM); err != nil {
			t.Fatal(err)
		}
		return d
	}

	clean := prep()
	base := clean.Ops()
	if err := WriteManifestFS(clean, "/data", newM); err != nil {
		t.Fatal(err)
	}
	total := clean.Ops() - base
	if total == 0 {
		t.Fatal("manifest flip performed no disk operations")
	}

	for i := 0; i < total; i++ {
		d := prep()
		d.SetTorn(i%2 == 1)
		d.SetCrashAt(d.Ops() + i)
		werr := WriteManifestFS(d, "/data", newM)
		d.Heal()
		got, ok, err := ReadManifestFS(d, "/data")
		if err != nil || !ok {
			t.Fatalf("crash at +%d (torn=%v): manifest unreadable: ok=%v err=%v", i, i%2 == 1, ok, err)
		}
		oldEq := reflect.DeepEqual(got, oldM)
		newEq := reflect.DeepEqual(got, newM)
		if !oldEq && !newEq {
			t.Fatalf("crash at +%d: manifest is neither old nor new: %+v", i, got)
		}
		if werr == nil && !newEq {
			t.Fatalf("crash at +%d: flip acked but old manifest survived", i)
		}
		// Leftover temp files from the aborted flip must not confuse a
		// subsequent flip on the healed disk.
		if err := WriteManifestFS(d, "/data", newM); err != nil {
			t.Fatalf("crash at +%d: post-heal flip: %v", i, err)
		}
		if got, ok, err := ReadManifestFS(d, "/data"); err != nil || !ok || !reflect.DeepEqual(got, newM) {
			t.Fatalf("crash at +%d: post-heal manifest wrong: %+v %v %v", i, got, ok, err)
		}
	}
}

// TestReplayMergedDropsCovered: records stamped at or below the given LSN
// are dropped while the segments are read (recovery passes its checkpoint's
// LSN), the rest come out in LSN order across segments, and an unstamped
// record is never dropped.
func TestReplayMergedDropsCovered(t *testing.T) {
	dir := t.TempDir()
	write := func(stream string, lsns ...uint64) {
		l := openLog(t, fault.OS, dir, stream, SyncNone)
		for _, lsn := range lsns {
			if err := l.Append(Record{Kind: RecUpsert, LSN: lsn, Relation: "r", Tuples: []value.Tuple{{value.Int(int64(lsn))}}}); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	write("a", 0, 1, 4, 5, 8)
	write("b", 2, 3, 6, 7)
	for _, tc := range []struct {
		after uint64
		want  []uint64
	}{
		{0, []uint64{0, 1, 2, 3, 4, 5, 6, 7, 8}},
		{5, []uint64{0, 6, 7, 8}},
		{8, []uint64{0}},
	} {
		var got []uint64
		n, err := ReplayMergedFS(fault.OS, dir, []string{SegmentFileName("a", 1), SegmentFileName("b", 1)}, tc.after, func(r Record) error {
			got = append(got, r.LSN)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if n != len(tc.want) || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("after %d: replayed %d records %v, want %v", tc.after, n, got, tc.want)
		}
	}
}

// TestReplayMergedSkipsCoveredUndecoded: a covered frame is dropped on its
// kind byte and LSN, not decoded — replaying a segment that the given LSN
// covers whole allocates as much at 2 000 frames as at 200 (the reader, its
// buffer and the payload buffer), where decoding would allocate each frame's
// tuples.
func TestReplayMergedSkipsCoveredUndecoded(t *testing.T) {
	allocs := func(frames int) float64 {
		dir := t.TempDir()
		l := openLog(t, fault.OS, dir, "a", SyncNone)
		for lsn := uint64(1); lsn <= uint64(frames); lsn++ {
			rec := Record{Kind: RecAppendEach, LSN: lsn, SN: int64(lsn), ClientID: "c", RequestID: fmt.Sprintf("%05d", lsn),
				Parts: []Part{{Chronicle: "calls", Tuples: []value.Tuple{{value.Str("acct"), value.Int(int64(lsn))}}}}}
			if err := l.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		segs := []string{SegmentFileName("a", 1)}
		return testing.AllocsPerRun(5, func() {
			n, err := ReplayMergedFS(fault.OS, dir, segs, uint64(frames), func(Record) error { return nil })
			if err != nil || n != 0 {
				t.Fatalf("replayed %d records, err %v; want none", n, err)
			}
		})
	}
	small, large := allocs(200), allocs(2000)
	t.Logf("replaying a covered segment: %.0f allocations at 200 frames, %.0f at 2 000", small, large)
	if large > small {
		t.Errorf("covered frames allocate: %.0f at 200 frames, %.0f at 2 000", small, large)
	}
}
