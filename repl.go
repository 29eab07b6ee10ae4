package chronicledb

// Log-shipping replication glue. The chronicle model makes this unusually
// clean: state is a pure function of the totally-ordered WAL, and replay
// applies every record at the LSNs it carries — so a follower that applies the
// primary's committed records in LSN order through the recovery apply paths
// reproduces the primary's exact state, LSN for LSN, views included.
//
// The primary side (internal/repl.Source, wired in Open) releases frames
// only after their fsync, in global LSN order. Followers tail the stream
// (internal/repl.Replica), apply frames into the live engine, write them to
// their own WAL through the normal recorders, and serve lock-free snapshot
// reads. Catch-up from any LSN is served from the manifest's segment set
// (ReplBacklog). A follower whose position was compacted below the
// checkpoint chain bootstraps from the primary's own files (ReplSnapshot):
// the catalog prefix the chain was cut against and the chain files byte
// for byte, restored through the same restoreChain recovery uses.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"time"

	"chronicledb/internal/fault"
	"chronicledb/internal/repl"
	"chronicledb/internal/sqlparse"
	"chronicledb/internal/wal"
)

// ErrReplGone reports that the requested replication start LSN has been
// compacted below the checkpoint chain: the follower must resync from a
// full snapshot (the server maps this to 410 Gone).
var ErrReplGone = errors.New("chronicledb: requested LSN compacted away; snapshot resync required")

// errStopReplay stops ReplayMergedFS once the backlog upper bound is
// reached; it never escapes ReplBacklog.
var errStopReplay = errors.New("stop replay")

// roleGate rejects writes on a replica.
func (db *DB) roleGate() error {
	if db.replicaMode.Load() {
		return ErrNotPrimary
	}
	return nil
}

// ackWait implements the "sync" ack mode: after a local-durable write, wait
// (bounded) until some follower has acknowledged the engine's LSN frontier,
// so the acked write survives the loss of the primary. Timeout or zero
// followers degrades — the write is still acked and the counter moves —
// rather than wedging the write path on a dead follower.
func (db *DB) ackWait() {
	if db.opts.AckMode != "sync" || db.replSrc == nil || db.replicaMode.Load() {
		return
	}
	timeout := db.opts.SyncAckTimeout
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	if !db.replSrc.WaitAcked(db.eng.LSN(), timeout) {
		db.degradedAcks.Add(1)
	}
}

// Role reports "primary" or "replica".
func (db *DB) Role() string {
	if db.replicaMode.Load() {
		return "replica"
	}
	return "primary"
}

// DegradedAcks counts sync-mode writes acked without a follower ack.
func (db *DB) DegradedAcks() int64 { return db.degradedAcks.Load() }

// ReplSource exposes the primary-side stream source (nil without a Dir).
func (db *DB) ReplSource() *repl.Source { return db.replSrc }

// ReplState snapshots follower progress; ok is false on a primary.
func (db *DB) ReplState() (st repl.State, ok bool) {
	db.replMu.Lock()
	r := db.replica
	db.replMu.Unlock()
	if r == nil {
		return repl.State{}, false
	}
	return r.State(), true
}

// Stale reports whether follower reads have exceeded Options.MaxStaleness:
// the replica has not observed itself caught up to the primary's advertised
// cursor within that duration (disconnection counts — the caught-up stamp
// stops advancing). Always false on a primary or without a bound.
func (db *DB) Stale() bool {
	if !db.replicaMode.Load() || db.opts.MaxStaleness <= 0 {
		return false
	}
	st, ok := db.ReplState()
	if !ok {
		// Replica mode with no loop running (stopped mid-close): stale.
		return true
	}
	return time.Since(st.CaughtUpAt) > db.opts.MaxStaleness
}

// ReplErr returns the follower loop's most recent stream error (nil when
// healthy or on a primary).
func (db *DB) ReplErr() error {
	db.replMu.Lock()
	r := db.replica
	db.replMu.Unlock()
	if r == nil {
		return nil
	}
	return r.Err()
}

// ReplLag reports the follower's staleness as (LSN distance, wall-clock
// duration); both zero when caught up or on a primary.
func (db *DB) ReplLag() (lsn uint64, age time.Duration) {
	st, ok := db.ReplState()
	if !ok {
		return 0, 0
	}
	return replLag(st)
}

// replLag is one follower state's lag, as ReplLag reports it.
func replLag(st repl.State) (lsn uint64, age time.Duration) {
	if st.PrimaryLSN > st.AppliedLSN {
		lsn = st.PrimaryLSN - st.AppliedLSN
	}
	if age = time.Since(st.CaughtUpAt); age < 0 {
		age = 0
	}
	return lsn, age
}

// Promote turns a replica into a writable primary: stop applying the
// stream, seal the WAL at the last applied LSN, then open the write gate.
// Safe to call on a primary (no-op). The promoted database keeps serving
// the replication stream from the LSNs it inherited, so surviving
// followers re-target and continue.
func (db *DB) Promote() error {
	if !db.replicaMode.Load() {
		return nil
	}
	db.stopReplica()
	if err := db.Flush(); err != nil {
		return fmt.Errorf("chronicledb: promote: sealing WAL: %w", err)
	}
	db.replicaMode.Store(false)
	return nil
}

// startReplica launches the follower loop (Open, after recovery: the
// engine's LSN frontier is the resume cursor).
func (db *DB) startReplica() {
	r := repl.Start(repl.Config{
		Primary:    db.opts.ReplicaOf,
		FollowerID: db.opts.FollowerID,
		From:       db.eng.LSN(),
	}, repl.Callbacks{
		ApplyRecord: db.eng.Replay,
		ApplyDDL:    db.applyReplDDL,
		DDLCount:    db.ddlSeq.Load,
		Snapshot:    db.replSnapshotResync,
	})
	db.replMu.Lock()
	db.replica = r
	db.replMu.Unlock()
}

// stopReplica quiesces the follower loop (idempotent; used by Close and
// Promote). Must not be called under db.mu: the apply goroutine may be
// inside a DDL apply that needs it.
func (db *DB) stopReplica() {
	db.replMu.Lock()
	r := db.replica
	db.replica = nil
	db.replMu.Unlock()
	if r != nil {
		r.Stop()
	}
}

// applyReplDDL applies catalog statement idx from the stream. The index
// check makes redelivery (stream reconnect overlap) idempotent and turns a
// gap into a loud error instead of a silently divergent catalog.
func (db *DB) applyReplDDL(idx uint64, stmt string) error {
	cur := db.ddlSeq.Load()
	if idx < cur {
		return nil // already applied; redelivered after reconnect
	}
	if idx > cur {
		return fmt.Errorf("ddl gap: stream has statement %d, follower applied %d", idx, cur)
	}
	s, err := sqlparse.ParseOne(stmt)
	if err != nil {
		return fmt.Errorf("replicated ddl %d: %w", idx, err)
	}
	_, err = db.execOne(s, execReplica)
	return err
}

// replSnapshotResync bootstraps a follower from the primary's checkpoint
// files after its stream start LSN was compacted away (410 Gone). It
// replays the catalog prefix the chain was cut against through the replica
// path, writes each chain file atomically under a name of its own chain,
// flips its manifest to name them, and restores them through restoreChain,
// exactly as recovery would; the stream then resumes at the chain's tip
// with the catalog past the prefix. A power cut part way leaves the
// manifest naming the follower's previous chain, so it reopens as it was
// and resyncs again, or the whole new one. A follower holding records past
// its own chain cannot resync in place and fails loudly, as does one
// without a directory: it has nowhere to keep the files its paged views
// fault blocks from.
func (db *DB) replSnapshotResync(ctx context.Context) (uint64, error) {
	if db.opts.Dir == "" {
		return 0, fmt.Errorf("chronicledb: the primary compacted its log past this follower, which cannot bootstrap from the primary's checkpoint files without Options.Dir; give it a data directory")
	}
	if db.eng.LSN() != db.lastCkptLSN.Load() {
		return 0, errDiverged
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, strings.TrimRight(db.opts.ReplicaOf, "/")+"/repl/snapshot", nil)
	if err != nil {
		return 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return 0, fmt.Errorf("chronicledb: snapshot fetch: primary returned %s", resp.Status)
	}
	fr := repl.NewFrameReader(resp.Body)
	next := func(want byte) ([]byte, error) {
		typ, payload, err := fr.Next()
		if err == nil && typ != want {
			err = fmt.Errorf("chronicledb: snapshot frame type %d, want %d", typ, want)
		}
		return payload, err
	}
	payload, err := next(repl.FrameManifest)
	if err != nil {
		return 0, err
	}
	man, err := wal.DecodeManifest(payload)
	if err != nil {
		return 0, err
	}
	var k uint64 // no chain: the stream ships the whole catalog
	if len(man.Checkpoints) > 0 {
		k = man.Checkpoints[0].Catalog
	}
	if db.ddlSeq.Load() > k {
		return 0, errDiverged
	}
	for range k {
		if payload, err = next(repl.FrameDDL); err != nil {
			return 0, err
		}
		idx, _, stmt, err := repl.DecodeDDLFrame(payload)
		if err != nil {
			return 0, err
		}
		if err := db.applyReplDDL(idx, stmt); err != nil {
			return 0, err
		}
	}

	// The files take the next names of the follower's own chain: nothing
	// references them until the flip, and a blocked image names no file, so
	// its blocks resolve against whichever name it is restored from. db.mu
	// keeps a local checkpoint out; no barrier is needed, since the apply
	// goroutine running this is the follower's only writer.
	db.mu.Lock()
	defer db.mu.Unlock()
	db.manMu.Lock()
	seq := db.man.NextCheckpointSeq()
	db.manMu.Unlock()
	refs := make([]wal.CheckpointRef, len(man.Checkpoints))
	for i, c := range man.Checkpoints {
		refs[i] = wal.CheckpointRef{Name: wal.CheckpointFileName(seq), Seq: seq, LSN: c.LSN, Full: c.Full, Catalog: k}
		seq++
		err := wal.WriteFileAtomicFromFS(db.fs, filepath.Join(db.opts.Dir, refs[i].Name), func(w io.Writer) error {
			for {
				chunk, err := next(repl.FrameFile)
				if err != nil || len(chunk) == 0 {
					return err
				}
				if _, err := w.Write(chunk); err != nil {
					return err
				}
			}
		})
		if err != nil {
			return 0, fmt.Errorf("chronicledb: snapshot %s: %w", c.Name, err)
		}
	}
	db.manMu.Lock()
	m := db.man.Clone()
	old := m.Checkpoints
	m.Checkpoints = refs
	if err = wal.WriteManifestFS(db.fs, db.opts.Dir, m); err == nil {
		db.man = m
	}
	db.manMu.Unlock()
	if err != nil {
		return 0, fmt.Errorf("chronicledb: %w", err)
	}
	lsn, err := db.restoreChain(refs)
	if err != nil {
		return 0, fmt.Errorf("chronicledb: snapshot restore: %w", err)
	}
	// Only now does no view fault a block from the chain the flip replaced.
	for _, c := range old {
		db.fs.Remove(filepath.Join(db.opts.Dir, c.Name)) // a leftover is swept at the next open
	}
	db.ckptMarks = nil // the next local checkpoint is full and folds the chain
	db.incrSinceFull = 0
	return lsn, nil
}

// errDiverged is a follower's resync refusal once it holds state the
// primary's checkpoint files would not replace.
var errDiverged = errors.New("chronicledb: replica diverged from the primary's retained log; wipe the data directory and restart")

// ReplGone reports whether a stream from LSN `from` can no longer be
// served from the segment set (records at or below the checkpoint LSN may
// be compacted away). Checked before the stream handler commits to a 200.
func (db *DB) ReplGone(from uint64) bool {
	return from < db.lastCkptLSN.Load()
}

// ReplBacklog streams the encoded record payloads in (from, upTo] from the
// manifest's live segment set, in LSN order, to fn. The payload buffer is
// reused across calls — fn must consume it before returning. LSN
// contiguity is verified as the replay runs: a segment compacted away
// mid-read surfaces as a gap error (the stream handler closes and the
// follower re-dials into the Gone check), never as silent record loss.
func (db *DB) ReplBacklog(from, upTo uint64, fn func(payload []byte, lsn, span uint64) error) error {
	if from >= upTo {
		return nil
	}
	if db.opts.Dir == "" {
		return fmt.Errorf("chronicledb: replication backlog needs a durable database (Options.Dir)")
	}
	db.manMu.Lock()
	ckpt := db.lastCkptLSN.Load()
	segments := liveSegmentNames(db.man.Live)
	db.manMu.Unlock()
	if from < ckpt {
		return ErrReplGone
	}
	var buf []byte
	want := from + 1
	// Records stamped at or below from are skipped as they are read. One
	// that straddles from is skipped too, and the next one then shows as a
	// gap: a follower only ever applies whole records.
	_, err := wal.ReplayMergedFS(db.fs, db.opts.Dir, segments, from, func(r wal.Record) error {
		span := wal.RecordSpan(r)
		if r.LSN > upTo {
			return errStopReplay
		}
		if r.LSN != want {
			return fmt.Errorf("chronicledb: replication backlog gap at lsn %d (want %d): segment compacted mid-read", r.LSN, want)
		}
		want = r.LSN + span
		buf = wal.EncodeRecord(buf[:0], r)
		return fn(buf, r.LSN, span)
	})
	if errors.Is(err, errStopReplay) {
		err = nil
	}
	if err == nil && want <= upTo {
		return fmt.Errorf("chronicledb: replication backlog ends at lsn %d (want through %d): segment compacted mid-read", want-1, upTo)
	}
	return err
}

// ReplSnapshot streams, through send, the bootstrap of a follower whose
// start LSN was compacted away: the chain manifest, the catalog prefix the
// chain was cut against, then every chain file byte for byte (the frames
// are documented in internal/repl). The files are opened under manMu and
// streamed with no lock and no barrier held: an open handle outlives the
// compactor's Remove, so a full checkpoint that folds the chain mid-stream
// cannot pull a file out from under it, and writers never wait on a
// follower. send must consume its frame before returning.
func (db *DB) ReplSnapshot(send func(frame []byte) error) error {
	if db.opts.Dir == "" {
		return fmt.Errorf("chronicledb: snapshot needs a durable database (Options.Dir)")
	}
	db.manMu.Lock()
	refs := append([]wal.CheckpointRef(nil), db.man.Checkpoints...)
	files := make([]fault.File, 0, len(refs))
	var err error
	for _, c := range refs {
		var f fault.File
		if f, err = db.fs.Open(filepath.Join(db.opts.Dir, c.Name)); err != nil {
			break
		}
		files = append(files, f)
	}
	db.manMu.Unlock()
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()
	if err != nil {
		return fmt.Errorf("chronicledb: snapshot: %w", err)
	}
	stmts, err := db.ReplCatalogTail(0)
	if err != nil {
		return err
	}
	k, err := chainCatalog(refs, len(stmts))
	if err != nil {
		return err
	}
	for i := range refs {
		refs[i].Catalog = uint64(k)
	}
	man, err := wal.EncodeManifest(wal.Manifest{Version: wal.ManifestVersion, Checkpoints: refs})
	if err != nil {
		return err
	}
	buf := repl.AppendBodyFrame(nil, repl.FrameManifest, man)
	if err := send(buf); err != nil {
		return err
	}
	for i, stmt := range stmts[:k] {
		buf = repl.AppendDDLFrame(buf[:0], uint64(i), 0, stmt)
		if err := send(buf); err != nil {
			return err
		}
	}
	chunk := make([]byte, 64<<10)
	for i, f := range files {
		for {
			n, rerr := f.Read(chunk)
			if n > 0 {
				buf = repl.AppendBodyFrame(buf[:0], repl.FrameFile, chunk[:n])
				if err := send(buf); err != nil {
					return err
				}
			}
			if rerr == io.EOF {
				break
			}
			if rerr != nil {
				return fmt.Errorf("chronicledb: snapshot %s: %w", refs[i].Name, rerr)
			}
		}
		buf = repl.AppendBodyFrame(buf[:0], repl.FrameFile, nil) // ends the file
		if err := send(buf); err != nil {
			return err
		}
	}
	return nil
}

// ReplCatalogTail returns the catalog statements from index n on (0-based),
// each as written, without its ';' — the form StageDDL ships and ParseOne
// accepts. The stream handler replays these to a follower whose
// ddl= handshake reported fewer applied statements than the primary has.
// The statements are counted as recovery counts them, so index i is the
// statement a chain cut against a prefix of i+1 reflects.
func (db *DB) ReplCatalogTail(n uint64) ([]string, error) {
	if db.catalogPath == "" {
		return nil, nil
	}
	db.mu.Lock()
	stmts, _, _, err := db.readCatalog()
	db.mu.Unlock()
	if err != nil || n >= uint64(len(stmts)) {
		return nil, err
	}
	tail := make([]string, 0, len(stmts)-int(n))
	for _, s := range stmts[n:] {
		tail = append(tail, s.Text())
	}
	return tail, nil
}

// DDLCount reports how many catalog statements this database has applied —
// the shared index space of the replication stream's DDL frames.
func (db *DB) DDLCount() uint64 { return db.ddlSeq.Load() }
