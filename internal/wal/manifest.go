// WAL layout. The database keeps one log stream per single-writer shard
// plus one stream for router-level relation updates, each a chain of
// size-capped segment files described by a manifest file. Every record
// carries the global LSN the router stamped on its mutation, so recovery can
// merge the streams back into the one total order the paper's
// proactive-update semantics (§2.3) requires: a relation update replays
// before exactly the appends it originally preceded, on every shard.
package wal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"chronicledb/internal/fault"
)

// manifestBufs pools the JSON encode buffer for manifest writes, so the
// rewrite-on-checkpoint path reuses its scratch like the WAL frame buffer.
var manifestBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// ManifestName is the manifest file name inside the data directory.
const ManifestName = "wal.manifest"

// RelationStream is the router-level relation-update stream. A stream is
// one logical append-only log — one per shard, plus this one — realized on
// disk as a chain of size-capped segment files.
const RelationStream = "relations"

// ManifestVersion is the only manifest format read or written. It versions
// the directory the manifest describes, the record layout of its segments
// included: a directory an earlier layout wrote is refused by it, before
// any of its files is read.
const ManifestVersion = 3

// ErrManifestVersion is wrapped by DecodeManifest for a manifest whose
// version is not ManifestVersion.
var ErrManifestVersion = errors.New("wal: unsupported manifest version")

// StreamName returns shard i's stream name.
func StreamName(i int) string { return fmt.Sprintf("shard-%04d", i) }

// SegmentFileName returns the file name of segment seq of a stream.
// Segment sequence numbers are per-stream and strictly increasing.
func SegmentFileName(stream string, seq uint64) string {
	return fmt.Sprintf("%s-%08d.wal", stream, seq)
}

// CheckpointFileName returns the file name of chain checkpoint seq.
func CheckpointFileName(seq uint64) string {
	return fmt.Sprintf("checkpoint-%08d.bin", seq)
}

// Segment describes one segment file of a stream.
// An unsealed segment is the stream's active tail: the writer appends to
// it and its Bytes/MaxLSN are not yet final. Sealing happens at rotation,
// after the file's content is fsynced, so a sealed entry's MaxLSN is a
// durable upper bound on every record in the file.
type Segment struct {
	Name   string `json:"name"`
	Stream string `json:"stream"`
	Seq    uint64 `json:"seq"`
	Sealed bool   `json:"sealed,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"`   // size at seal (sealed only)
	MaxLSN uint64 `json:"max_lsn,omitempty"` // highest LSN at seal (sealed only)
}

// CheckpointRef is one entry of the checkpoint chain: recovery restores
// the chain in ascending Seq order (each file replaces the state of the
// objects it contains) and then replays only WAL records above the last
// entry's LSN. A Full entry supersedes every
// earlier entry; the compactor drops the superseded files.
//
// Catalog is the number of catalog statements the image was cut against:
// recovery replays that prefix, restores the chain, then replays the rest
// of the catalog. Zero (the field is then absent from the JSON) is a chain
// cut before any statement.
type CheckpointRef struct {
	Name    string `json:"name"`
	Seq     uint64 `json:"seq"`
	LSN     uint64 `json:"lsn"`
	Full    bool   `json:"full,omitempty"`
	Catalog uint64 `json:"catalog,omitempty"`
}

// Manifest describes the WAL layout of a data directory: Live lists every
// live segment of every stream and Checkpoints lists the checkpoint
// chain. The manifest is the single
// source of truth for which files recovery reads; it is only ever
// replaced atomically (WriteFileAtomicFS), so a crash during any flip
// leaves either the old or the new complete manifest. Files are created
// and fsynced before the flip that references them and deleted only
// after the flip that drops them, so a referenced file always exists;
// unreferenced leftovers are swept at the next open.
type Manifest struct {
	Version     int             `json:"version"`
	Shards      int             `json:"shards"`
	Live        []Segment       `json:"live,omitempty"`        // live segments, all streams
	Checkpoints []CheckpointRef `json:"checkpoints,omitempty"` // checkpoint chain, ascending Seq
}

// Active returns the index in m.Live of stream's unsealed segment, or -1.
func (m *Manifest) Active(stream string) int {
	for i := range m.Live {
		if m.Live[i].Stream == stream && !m.Live[i].Sealed {
			return i
		}
	}
	return -1
}

// MaxSeq returns the highest segment sequence number of stream (0 if the
// stream has no live segments).
func (m *Manifest) MaxSeq(stream string) uint64 {
	var max uint64
	for i := range m.Live {
		if m.Live[i].Stream == stream && m.Live[i].Seq > max {
			max = m.Live[i].Seq
		}
	}
	return max
}

// NextCheckpointSeq returns the sequence number for the next chain entry.
func (m *Manifest) NextCheckpointSeq() uint64 {
	var max uint64
	for i := range m.Checkpoints {
		if m.Checkpoints[i].Seq > max {
			max = m.Checkpoints[i].Seq
		}
	}
	return max + 1
}

// Clone deep-copies the manifest so flips can be prepared without
// mutating the last-durable image (which must survive a failed write).
func (m Manifest) Clone() Manifest {
	c := m
	c.Live = append([]Segment(nil), m.Live...)
	c.Checkpoints = append([]CheckpointRef(nil), m.Checkpoints...)
	return c
}

// WriteManifestFS atomically persists the manifest into dir.
func WriteManifestFS(fsys fault.FS, dir string, m Manifest) error {
	buf := manifestBufs.Get().(*bytes.Buffer)
	defer func() { buf.Reset(); manifestBufs.Put(buf) }()
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(m); err != nil {
		return fmt.Errorf("wal: manifest: %w", err)
	}
	return WriteFileAtomicFS(fsys, filepath.Join(dir, ManifestName), buf.Bytes())
}

// EncodeManifest renders the manifest to its on-disk JSON form.
func EncodeManifest(m Manifest) ([]byte, error) {
	data, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("wal: manifest: %w", err)
	}
	return append(data, '\n'), nil
}

// DecodeManifest parses and validates on-disk manifest bytes.
func DecodeManifest(data []byte) (Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, fmt.Errorf("wal: corrupt manifest: %w", err)
	}
	if m.Version != ManifestVersion {
		return Manifest{}, fmt.Errorf("%w %d (want %d)", ErrManifestVersion, m.Version, ManifestVersion)
	}
	if m.Shards < 0 {
		return Manifest{}, fmt.Errorf("wal: corrupt manifest: %d shards", m.Shards)
	}
	seen := make(map[string]bool, len(m.Live)+len(m.Checkpoints))
	for _, s := range m.Live {
		if s.Name == "" || s.Stream == "" || s.Seq == 0 {
			return Manifest{}, fmt.Errorf("wal: corrupt manifest: bad segment %+v", s)
		}
		if seen[s.Name] {
			return Manifest{}, fmt.Errorf("wal: corrupt manifest: duplicate entry %s", s.Name)
		}
		seen[s.Name] = true
	}
	for _, c := range m.Checkpoints {
		if c.Seq == 0 || c.Name != CheckpointFileName(c.Seq) {
			return Manifest{}, fmt.Errorf("wal: corrupt manifest: bad checkpoint %+v", c)
		}
		if seen[c.Name] {
			return Manifest{}, fmt.Errorf("wal: corrupt manifest: duplicate entry %s", c.Name)
		}
		seen[c.Name] = true
	}
	return m, nil
}

// ReadManifestFS loads the manifest from dir. A missing manifest reports
// ok=false without error (the directory is fresh).
func ReadManifestFS(fsys fault.FS, dir string) (Manifest, bool, error) {
	data, err := fsys.ReadFile(filepath.Join(dir, ManifestName))
	if os.IsNotExist(err) {
		return Manifest{}, false, nil
	}
	if err != nil {
		return Manifest{}, false, fmt.Errorf("wal: manifest: %w", err)
	}
	m, err := DecodeManifest(data)
	if err != nil {
		return Manifest{}, false, err
	}
	return m, true, nil
}

// WriteFileAtomicFS writes data to path with crash-safe replacement: the
// bytes land in a temp file in the same directory, are fsynced, renamed
// over the target, and the directory is fsynced so the rename itself is
// durable. A crash at any point leaves either the old complete file or the
// new complete file — never a truncated mix.
func WriteFileAtomicFS(fsys fault.FS, path string, data []byte) error {
	return WriteFileAtomicFromFS(fsys, path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// WriteFileAtomicFromFS is WriteFileAtomicFS for content that write
// produces piecewise, so a file need never be held whole in memory.
func WriteFileAtomicFromFS(fsys fault.FS, path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := fsys.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("wal: atomic write: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func() { tmp.Close(); fsys.Remove(tmpName) }
	if err := write(tmp); err != nil {
		cleanup()
		return fmt.Errorf("wal: atomic write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return fmt.Errorf("wal: atomic write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		fsys.Remove(tmpName)
		return fmt.Errorf("wal: atomic write: %w", err)
	}
	if err := fsys.Rename(tmpName, path); err != nil {
		fsys.Remove(tmpName)
		return fmt.Errorf("wal: atomic write: %w", err)
	}
	return fsys.SyncDir(dir)
}

// ReplayMergedFS replays the records of every listed segment in global LSN
// order, calling fn for each. Each segment is individually LSN-ascending
// (it had a single writer), so this is a merge; torn tails are tolerated
// per segment exactly as in Replay. A record stamped at or below after is
// skipped as it is read, never decoded or held: recovery passes its
// checkpoint's LSN, so segments the checkpoint already covers cost their
// reading and checksums only. It reports the total records applied.
func ReplayMergedFS(fsys fault.FS, dir string, segments []string, after uint64, fn func(Record) error) (int, error) {
	var all []Record
	for _, seg := range segments {
		_, _, err := replayAfter(fsys, filepath.Join(dir, seg), after, func(r Record) error {
			all = append(all, r)
			return nil
		})
		if err != nil {
			return 0, fmt.Errorf("wal: segment %s: %w", seg, err)
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].LSN < all[j].LSN })
	for i, r := range all {
		if err := fn(r); err != nil {
			return i, fmt.Errorf("wal: applying merged record %d (lsn %d): %w", i, r.LSN, err)
		}
	}
	return len(all), nil
}
