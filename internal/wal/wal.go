// Package wal implements the write-ahead log of a chronicle database.
//
// Transaction *recording* systems must not lose records: every durable
// mutation (chronicle append, proactive relation update) is framed,
// checksummed, and written to the log before it is applied. Because the
// chronicle itself is not retained, the log plus the view checkpoints are
// the only durable record of past activity; recovery replays the log tail
// over the last checkpoint instead of reprocessing the full history (E12).
//
// Frame format: u32 little-endian payload length, u32 CRC-32 (IEEE) of the
// payload, payload. Replay stops cleanly at the first torn or corrupt
// frame, which is the expected crash shape for an append-only file.
//
// All file access goes through fault.FS so the crash-torture harness can
// substitute a simulated disk; production code uses fault.OS. A Log that
// sees any write, flush, or sync failure latches a sticky error and fails
// every subsequent operation fast — after a failed fsync the kernel may
// have dropped the dirty pages (the "fsyncgate" lesson), so nothing later
// appended to that file may be trusted as durable.
package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"chronicledb/internal/fault"
	"chronicledb/internal/stats"
	"chronicledb/internal/value"
)

// maxFrame caps a frame payload during replay; a length prefix beyond it
// is treated as log-tail corruption rather than an allocation request.
const maxFrame = 64 << 20

// RecordKind tags a log record.
type RecordKind uint8

// The record kinds.
const (
	// Kind 0 is never written: DDL is not logged, catalog.sql holds it.
	_ RecordKind = iota
	// RecAppend is a chronicle append (possibly multi-chronicle).
	RecAppend
	// RecUpsert is one UPSERT statement, a proactive relation update: one
	// relation, its tuples at consecutive LSNs starting at the record's. The
	// statement is one frame, so it becomes durable — and replays — whole or
	// not at all.
	RecUpsert
	// RecDelete is a proactive relation delete (Tuple holds key values).
	RecDelete
	// RecAppendEach is an idempotent bulk append: one chronicle, one tuple
	// run with consecutive sequence numbers starting at SN, tagged with the
	// (ClientID, RequestID) pair that identifies the request. The whole
	// request is one frame so the rows and the dedup-table entry that
	// suppresses retries become durable atomically — a crash either
	// persists both or neither, which is what makes crash-retry
	// exactly-once.
	RecAppendEach
)

// Part is one chronicle's share of an append record.
type Part struct {
	Chronicle string
	Tuples    []value.Tuple
}

// Record is one durable mutation.
type Record struct {
	Kind      RecordKind
	LSN       uint64        // global logical sequence number (orders records across segments)
	SN        int64         // RecAppend / RecAppendEach (first SN of the run)
	Chronon   int64         // RecAppend / RecAppendEach
	Parts     []Part        // RecAppend / RecAppendEach (exactly one part)
	Relation  string        // RecUpsert / RecDelete
	Tuple     value.Tuple   // RecDelete (key values)
	Tuples    []value.Tuple // RecUpsert
	ClientID  string        // RecAppendEach
	RequestID string        // RecAppendEach
}

// SyncPolicy selects when a Log makes appended records durable.
type SyncPolicy uint8

// The sync policies.
const (
	// SyncNone buffers records and flushes on Flush/Close; the caller has
	// opted out of per-record durability (tests, bulk loads).
	SyncNone SyncPolicy = iota
	// SyncGroup writes each record through to the OS inside Append (so a
	// write failure still aborts the mutation before it is applied) but
	// defers the fsync to Commit, the group-commit door: one fsync acks
	// every record appended since the previous fsync.
	SyncGroup
)

// Log is an append-only record log. It is safe for concurrent use: each
// shard has one appender at a time, but flushing and group commits may come
// from other goroutines.
type Log struct {
	mu     sync.Mutex
	path   string
	f      fault.File
	w      *bufio.Writer
	policy SyncPolicy
	err    error // sticky: first write/flush/sync failure; fails everything after
	buf    []byte
	seq    uint64 // records appended since open (under mu)

	// Segment rotation, all guarded by mu. Rotation happens inside Append,
	// before the frame that would overflow the cap is written, so the hot
	// path adds only a size comparison.
	fsys     fault.FS
	dir      string
	stream   string
	segSeq   uint64 // active segment sequence number
	segBytes int64  // bytes appended to the active segment
	capBytes int64
	lastLSN  uint64 // highest record LSN appended (segments are LSN-ascending)
	onRotate func(sealed, next Segment) error
	rotates  atomic.Int64

	// Group-commit door. synced is the record count covered by a completed
	// fsync; it only grows, so a committer whose target is already covered
	// returns without touching the file. syncMu serializes fsyncs in
	// SyncGroup mode: callers queue on it, and each queued caller re-checks
	// synced after the door opens — the previous holder's fsync usually
	// covered its records too, and the whole batch was acked by one fsync.
	syncMu sync.Mutex
	synced atomic.Uint64

	// Durability counters for SHOW STATS. batchHist counts records acked per
	// fsync; it is guarded by syncMu in SyncGroup mode and by mu otherwise (a
	// Log never mixes policies), and Metrics takes both.
	fsyncs    atomic.Int64
	batchHist stats.Histogram

	// Replication tap (SetTap). tapAppend observes every record's encoded
	// payload under mu; tapDurable reports the record-seq high-water mark
	// covered by a completed fsync. Both are installed once, before
	// concurrent appends begin, and must never call back into the Log.
	tapAppend  func(payload []byte, lsn, span, seq uint64)
	tapDurable func(seq uint64)
}

// Metrics is a snapshot of a Log's durability counters. Batches is a value
// copy of the group-commit batch-size histogram so callers can Merge
// metrics across segments before rendering a Snapshot.
type Metrics struct {
	Records int64           // records appended since open
	Fsyncs  int64           // fsync calls since open
	Batches stats.Histogram // records acked per fsync (group-commit batch size)

	Rotations   int64  // segment rotations since open
	ActiveBytes int64  // bytes in the active segment
	ActiveSeq   uint64 // active segment sequence
}

// OpenSegmentFS opens a rotated log — the only kind there is: the stream's
// active segment seq in dir, already holding startBytes bytes, rotating once
// an append would push the segment past capBytes. onRotate is called inside
// the rotation, after the old segment's content is durable and the new
// segment file exists and is fsynced, and must durably register the flip
// (seal the old entry, add the new one) before the swap is committed — its
// error aborts both the rotation and the triggering append, latching the
// sticky error.
func OpenSegmentFS(fsys fault.FS, dir, stream string, seq uint64, startBytes, capBytes int64, policy SyncPolicy, onRotate func(sealed, next Segment) error) (*Log, error) {
	path := filepath.Join(dir, SegmentFileName(stream, seq))
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	return &Log{
		path: path, f: f, w: bufio.NewWriterSize(f, 1<<16), policy: policy,
		fsys: fsys, dir: dir, stream: stream, segSeq: seq, segBytes: startBytes,
		capBytes: capBytes, onRotate: onRotate,
	}, nil
}

// SetTap installs the replication tap. onAppend is called inside Append,
// under the log mutex, with the record's encoded payload (valid only for
// the duration of the call — the tap must copy what it keeps), its LSN,
// its LSN span, and its append sequence number. onDurable is called with
// the highest append sequence covered by a completed fsync; in SyncNone
// mode (the caller opted out of durability) every append reports durable
// immediately. SetTap must be called before concurrent appends begin.
func (l *Log) SetTap(onAppend func(payload []byte, lsn, span, seq uint64), onDurable func(seq uint64)) {
	l.mu.Lock()
	l.tapAppend = onAppend
	l.tapDurable = onDurable
	l.mu.Unlock()
}

// Path returns the log file path.
func (l *Log) Path() string { return l.path }

// Err returns the sticky error, if any write, flush, or sync has failed.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Append frames and writes one record. The frame is encoded completely —
// into the Log's grown-once scratch buffer — before any byte reaches the
// writer, so a failure never leaves a partial frame mid-file; any failure
// latches the sticky error. In SyncGroup mode the frame is written through
// to the OS here (a full disk or write error must abort the mutation before
// it is applied to memory) and only the fsync waits for Commit.
func (l *Log) Append(r Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return fmt.Errorf("wal: log failed: %w", l.err)
	}
	l.buf = append(l.buf[:0], 0, 0, 0, 0, 0, 0, 0, 0)
	l.buf = encodeRecord(l.buf, r)
	payload := l.buf[8:]
	binary.LittleEndian.PutUint32(l.buf[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(l.buf[4:], crc32.ChecksumIEEE(payload))
	if l.segBytes > 0 && l.segBytes+int64(len(l.buf)) > l.capBytes {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	if _, err := l.w.Write(l.buf); err != nil {
		l.err = err
		return fmt.Errorf("wal: write: %w", err)
	}
	l.seq++
	l.segBytes += int64(len(l.buf))
	if r.LSN > l.lastLSN {
		l.lastLSN = r.LSN
	}
	if l.tapAppend != nil {
		l.tapAppend(payload, r.LSN, RecordSpan(r), l.seq)
		if l.policy == SyncNone && l.tapDurable != nil {
			l.tapDurable(l.seq)
		}
	}
	if l.policy == SyncGroup {
		return l.flushLocked()
	}
	return nil
}

// Commit makes every record appended so far durable — the group-commit
// door. The caller's records are already in the OS (Append writes through
// in SyncGroup mode), so all Commit adds is the fsync, and concurrent
// committers share one: whoever holds the door fsyncs on behalf of every
// record appended up to that moment, and queued committers whose records
// that fsync covered return without syncing again. In SyncNone mode it
// degrades to Flush (the caller opted out of durability).
func (l *Log) Commit() error {
	if l.policy == SyncNone {
		return l.Flush()
	}
	l.mu.Lock()
	target := l.seq
	err := l.err
	l.mu.Unlock()
	if err != nil {
		return fmt.Errorf("wal: log failed: %w", err)
	}
	if l.synced.Load() >= target {
		return nil
	}
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if l.synced.Load() >= target {
		return nil // the previous door holder's fsync covered our records
	}
	// covered and f are captured under one mu acquisition: every record
	// numbered at or below covered is either in a sealed segment (rotation
	// fsyncs the old file and advances synced before swapping) or in f, so
	// fsyncing this f covers all of them even if a rotation swaps the
	// active file right after the capture.
	l.mu.Lock()
	covered := l.seq
	f := l.f
	td := l.tapDurable
	err = l.err
	l.mu.Unlock()
	if err != nil {
		return fmt.Errorf("wal: log failed: %w", err)
	}
	if serr := f.Sync(); serr != nil {
		l.mu.Lock()
		if l.err == nil {
			l.err = serr
		}
		l.mu.Unlock()
		return fmt.Errorf("wal: sync: %w", serr)
	}
	prev := l.synced.Load()
	if covered > prev {
		l.synced.Store(covered)
		l.batchHist.Observe(time.Duration(covered - prev))
		if td != nil {
			td(covered)
		}
	}
	l.fsyncs.Add(1)
	return nil
}

// Flush pushes buffered records to the OS.
func (l *Log) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushLocked()
}

func (l *Log) flushLocked() error {
	if l.err != nil {
		return fmt.Errorf("wal: log failed: %w", l.err)
	}
	if err := l.w.Flush(); err != nil {
		l.err = err
		return fmt.Errorf("wal: flush: %w", err)
	}
	return nil
}

// Sync flushes and fsyncs. In SyncGroup mode it goes through the commit
// door so its fsync coalesces with (and is accounted like) group commits.
func (l *Log) Sync() error {
	if l.policy == SyncGroup {
		return l.Commit()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if err := l.flushLocked(); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		l.err = err
		return fmt.Errorf("wal: sync: %w", err)
	}
	if prev := l.synced.Load(); l.seq > prev {
		l.synced.Store(l.seq)
		l.batchHist.Observe(time.Duration(l.seq - prev))
		if l.tapDurable != nil {
			l.tapDurable(l.seq)
		}
	}
	l.fsyncs.Add(1)
	return nil
}

// rotateLocked seals the active segment and swaps in a fresh one. Order
// matters for crash atomicity:
//
//  1. flush + fsync the old segment — the sealed entry's MaxLSN/Bytes
//     describe durable content (this also advances the group-commit
//     watermark: one rotation fsync acks every pending record);
//  2. create and fsync the next segment file (truncating any orphan left
//     by a previously crashed rotation — the manifest never referenced it);
//  3. onRotate durably flips the manifest (atomic replace + dirsync, which
//     also makes the new file's directory entry durable);
//  4. only then swap the writer.
//
// A crash before 3 leaves the old manifest pointing at the old still-active
// segment (the new file is an unreferenced orphan, swept at next open); a
// crash after 3 leaves the new manifest with the old segment sealed and the
// new one empty. Any failure latches the sticky error without swapping, so
// the triggering append aborts before it is applied and the DB degrades
// read-only — a half-registered segment is impossible.
func (l *Log) rotateLocked() error {
	if err := l.w.Flush(); err != nil {
		l.err = err
		return fmt.Errorf("wal: rotate: flush: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		l.err = err
		return fmt.Errorf("wal: rotate: sync: %w", err)
	}
	l.fsyncs.Add(1)
	if prev := l.synced.Load(); l.seq > prev {
		l.synced.Store(l.seq)
		l.batchHist.Observe(time.Duration(l.seq - prev))
		if l.tapDurable != nil {
			l.tapDurable(l.seq)
		}
	}
	sealed := Segment{
		Name:   SegmentFileName(l.stream, l.segSeq),
		Stream: l.stream,
		Seq:    l.segSeq,
		Sealed: true,
		Bytes:  l.segBytes,
		MaxLSN: l.lastLSN,
	}
	next := Segment{
		Name:   SegmentFileName(l.stream, l.segSeq+1),
		Stream: l.stream,
		Seq:    l.segSeq + 1,
	}
	nf, err := l.fsys.OpenFile(filepath.Join(l.dir, next.Name), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		l.err = err
		return fmt.Errorf("wal: rotate: create segment: %w", err)
	}
	if err := nf.Truncate(0); err != nil {
		nf.Close()
		l.err = err
		return fmt.Errorf("wal: rotate: truncate segment: %w", err)
	}
	if err := nf.Sync(); err != nil {
		nf.Close()
		l.err = err
		return fmt.Errorf("wal: rotate: sync segment: %w", err)
	}
	if l.onRotate != nil {
		if err := l.onRotate(sealed, next); err != nil {
			nf.Close()
			l.err = err
			return fmt.Errorf("wal: rotate: manifest flip: %w", err)
		}
	}
	old := l.f
	l.f = nf
	l.w.Reset(nf)
	l.path = filepath.Join(l.dir, next.Name)
	l.segSeq = next.Seq
	l.segBytes = 0
	l.rotates.Add(1)
	old.Close() // content already durable; a close error changes nothing
	return nil
}

// Close flushes and closes the log.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.flushLocked(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}

// LogMetrics returns the Log's durability counters.
func (l *Log) LogMetrics() Metrics {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	return Metrics{
		Records:     int64(l.seq),
		Fsyncs:      l.fsyncs.Load(),
		Batches:     l.batchHist,
		Rotations:   l.rotates.Load(),
		ActiveBytes: l.segBytes,
		ActiveSeq:   l.segSeq,
	}
}

// ReplayFS reads records from path in order, calling fn for each. It stops
// cleanly at the first torn or corrupt frame (the crash tail), reporting
// how many records were applied and how many trailing bytes were ignored.
// A missing file replays zero records. The log is streamed through a
// buffered reader rather than loaded whole, so replaying a long tail does
// not double resident memory.
func ReplayFS(fsys fault.FS, path string, fn func(Record) error) (n int, ignored int64, err error) {
	return replayAfter(fsys, path, 0, fn)
}

// replayAfter is ReplayFS that skips, undecoded, every frame stamped at or
// below after: a covered frame costs its read and its CRC, and is dropped on
// its kind byte and LSN. LSN-0 frames always apply.
func replayAfter(fsys fault.FS, path string, after uint64, fn func(Record) error) (n int, ignored int64, err error) {
	f, err := fsys.Open(path)
	if os.IsNotExist(err) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, fmt.Errorf("wal: open: %w", err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	var hdr [8]byte
	var payload []byte
	for {
		hn, herr := io.ReadFull(br, hdr[:])
		if herr == io.EOF {
			return n, 0, nil
		}
		if herr == io.ErrUnexpectedEOF {
			return n, int64(hn), nil
		}
		if herr != nil {
			return n, 0, fmt.Errorf("wal: read: %w", herr)
		}
		plen := int(binary.LittleEndian.Uint32(hdr[0:]))
		crc := binary.LittleEndian.Uint32(hdr[4:])
		if plen <= 0 || plen > maxFrame {
			return n, 8 + drain(br), nil
		}
		if cap(payload) < plen {
			payload = make([]byte, plen)
		}
		payload = payload[:plen]
		pn, perr := io.ReadFull(br, payload)
		if perr == io.EOF || perr == io.ErrUnexpectedEOF {
			return n, 8 + int64(pn), nil
		}
		if perr != nil {
			return n, 0, fmt.Errorf("wal: read: %w", perr)
		}
		if crc32.ChecksumIEEE(payload) != crc {
			return n, 8 + int64(plen) + drain(br), nil
		}
		if lsn, sz := binary.Uvarint(payload[1:]); sz > 0 && lsn != 0 && lsn <= after {
			continue
		}
		rec, derr := decodeRecord(payload)
		if derr != nil {
			return n, 8 + int64(plen) + drain(br), nil
		}
		if err := fn(rec); err != nil {
			return n, 0, fmt.Errorf("wal: applying record %d: %w", n, err)
		}
		n++
	}
}

// drain counts the unread remainder of a corrupt log tail.
func drain(br *bufio.Reader) int64 {
	c, _ := io.Copy(io.Discard, br)
	return c
}

func encodeRecord(dst []byte, r Record) []byte {
	dst = append(dst, byte(r.Kind))
	dst = binary.AppendUvarint(dst, r.LSN)
	switch r.Kind {
	case RecAppend, RecAppendEach:
		dst = binary.LittleEndian.AppendUint64(dst, uint64(r.SN))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(r.Chronon))
		dst = binary.AppendUvarint(dst, uint64(len(r.Parts)))
		for _, p := range r.Parts {
			dst = appendString(dst, p.Chronicle)
			dst = binary.AppendUvarint(dst, uint64(len(p.Tuples)))
			for _, t := range p.Tuples {
				dst = value.AppendTuple(dst, t)
			}
		}
		if r.Kind == RecAppendEach {
			dst = appendString(dst, r.ClientID)
			dst = appendString(dst, r.RequestID)
		}
	case RecDelete:
		dst = appendString(dst, r.Relation)
		dst = value.AppendTuple(dst, r.Tuple)
	case RecUpsert:
		dst = appendString(dst, r.Relation)
		dst = binary.AppendUvarint(dst, uint64(len(r.Tuples)))
		for _, t := range r.Tuples {
			dst = value.AppendTuple(dst, t)
		}
	}
	return dst
}

func decodeRecord(b []byte) (Record, error) {
	if len(b) == 0 {
		return Record{}, fmt.Errorf("wal: empty payload")
	}
	r := Record{Kind: RecordKind(b[0])}
	b = b[1:]
	lsn, sz := binary.Uvarint(b)
	if sz <= 0 {
		return Record{}, fmt.Errorf("wal: bad record lsn")
	}
	r.LSN = lsn
	b = b[sz:]
	switch r.Kind {
	case RecAppend, RecAppendEach:
		if len(b) < 16 {
			return Record{}, fmt.Errorf("wal: truncated append header")
		}
		r.SN = int64(binary.LittleEndian.Uint64(b))
		r.Chronon = int64(binary.LittleEndian.Uint64(b[8:]))
		b = b[16:]
		nParts, sz := binary.Uvarint(b)
		if sz <= 0 {
			return Record{}, fmt.Errorf("wal: bad part count")
		}
		b = b[sz:]
		for i := uint64(0); i < nParts; i++ {
			name, used, err := readString(b)
			if err != nil {
				return Record{}, err
			}
			b = b[used:]
			nTuples, sz := binary.Uvarint(b)
			if sz <= 0 {
				return Record{}, fmt.Errorf("wal: bad tuple count")
			}
			b = b[sz:]
			p := Part{Chronicle: name}
			for j := uint64(0); j < nTuples; j++ {
				t, used, err := value.DecodeTuple(b)
				if err != nil {
					return Record{}, err
				}
				p.Tuples = append(p.Tuples, t)
				b = b[used:]
			}
			r.Parts = append(r.Parts, p)
		}
		if r.Kind == RecAppendEach {
			cid, used, err := readString(b)
			if err != nil {
				return Record{}, err
			}
			b = b[used:]
			rid, used, err := readString(b)
			if err != nil {
				return Record{}, err
			}
			b = b[used:]
			r.ClientID = cid
			r.RequestID = rid
		}
	case RecDelete:
		name, used, err := readString(b)
		if err != nil {
			return Record{}, err
		}
		b = b[used:]
		t, _, err := value.DecodeTuple(b)
		if err != nil {
			return Record{}, err
		}
		r.Relation = name
		r.Tuple = t
	case RecUpsert:
		name, used, err := readString(b)
		if err != nil {
			return Record{}, err
		}
		b = b[used:]
		n, sz := binary.Uvarint(b)
		if sz <= 0 || n > uint64(len(b)) {
			return Record{}, fmt.Errorf("wal: bad tuple count")
		}
		b = b[sz:]
		r.Relation = name
		r.Tuples = make([]value.Tuple, 0, n)
		for i := uint64(0); i < n; i++ {
			t, used, err := value.DecodeTuple(b)
			if err != nil {
				return Record{}, err
			}
			r.Tuples = append(r.Tuples, t)
			b = b[used:]
		}
	default:
		return Record{}, fmt.Errorf("wal: unknown record kind %d", r.Kind)
	}
	return r, nil
}

// EncodeRecord appends r's wire encoding — the frame payload, without the
// length/CRC header — to dst and returns the extended slice. It is the
// exact bytes a Log writes for r, so a replication stream can ship tapped
// payloads and re-encoded backlog records interchangeably.
func EncodeRecord(dst []byte, r Record) []byte { return encodeRecord(dst, r) }

// DecodeRecord parses a record payload produced by EncodeRecord (or tapped
// from a Log's append path).
func DecodeRecord(b []byte) (Record, error) { return decodeRecord(b) }

// RecordSpan returns how many LSNs r occupies in the global order: an
// idempotent bulk append and an UPSERT statement assign one LSN per tuple
// (the record's LSN is the first), and every other record exactly one.
func RecordSpan(r Record) uint64 {
	switch r.Kind {
	case RecUpsert:
		return max(1, uint64(len(r.Tuples)))
	case RecAppendEach:
		var n uint64
		for _, p := range r.Parts {
			n += uint64(len(p.Tuples))
		}
		if n == 0 {
			return 1
		}
		return n
	}
	return 1
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func readString(b []byte) (string, int, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 || uint64(len(b)-sz) < n {
		return "", 0, fmt.Errorf("wal: bad string")
	}
	return string(b[sz : sz+int(n)]), sz + int(n), nil
}
