package chronicledb

// Log-shipping replication glue. The chronicle model makes this unusually
// clean: state is a pure function of the totally-ordered WAL, and recovery
// re-assigns identical LSNs on replay — so a follower that applies the
// primary's committed records in LSN order through the recovery apply paths
// reproduces the primary's exact state, LSN for LSN, views included.
//
// The primary side (internal/repl.Source, wired in Open) releases frames
// only after their fsync, in global LSN order. Followers tail the stream
// (internal/repl.Replica), apply frames into the live engine, write them to
// their own WAL through the normal recorders, and serve lock-free snapshot
// reads. Catch-up from any LSN is served from the manifest's segment set
// (ReplBacklog); anything compacted below the checkpoint chain resyncs from
// a full snapshot image (ReplSnapshot).

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"chronicledb/internal/engine"
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
		ApplyRecord: db.applyRecord,
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

// applyRecord applies one WAL record at the coordinates it carries, so the
// kernel re-acquires the original SNs and LSNs. Recovery replay and the
// follower's stream apply share it; on a follower the recorders are
// installed, so the applied record lands in the follower's own WAL, making
// it locally durable and re-servable after promotion.
func (db *DB) applyRecord(r wal.Record) error {
	switch r.Kind {
	case wal.RecAppend:
		parts := make([]engine.MutationPart, len(r.Parts))
		for i, p := range r.Parts {
			parts[i] = engine.MutationPart{Chronicle: p.Chronicle, Tuples: p.Tuples}
		}
		_, err := db.eng.AppendBatchAt(parts, r.SN, r.Chronon)
		return err
	case wal.RecAppendEach:
		if len(r.Parts) != 1 {
			return fmt.Errorf("idempotent append record with %d parts", len(r.Parts))
		}
		p := r.Parts[0]
		// An idempotent bulk run: re-apply the tuples with their original
		// consecutive SNs and re-insert the dedup entry, so a client retry
		// after a recovery — or, after a failover, against the new primary —
		// gets its original ack, not a double apply.
		return db.eng.AppendEachAt(p.Chronicle, r.SN, r.Chronon, p.Tuples, r.ClientID, r.RequestID)
	case wal.RecUpsert:
		// One statement: its tuples take consecutive LSNs again, from the
		// record's.
		return db.eng.Upsert(r.Relation, r.Tuples...)
	case wal.RecDelete:
		_, err := db.eng.DeleteKey(r.Relation, r.Tuple)
		return err
	default:
		return fmt.Errorf("unknown WAL record kind %d", r.Kind)
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

// replSnapshotResync bootstraps an empty follower from the primary's full
// snapshot after the stream start LSN was compacted away (410 Gone). A
// non-empty follower cannot resync in place — its state diverged from the
// primary's retained log — and fails loudly instead.
func (db *DB) replSnapshotResync() (uint64, error) {
	if db.eng.LSN() != 0 || db.ddlSeq.Load() != 0 {
		return 0, fmt.Errorf("chronicledb: replica diverged from the primary's retained log; wipe the data directory and restart")
	}
	resp, err := http.Get(strings.TrimRight(db.opts.ReplicaOf, "/") + "/repl/snapshot")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return 0, fmt.Errorf("chronicledb: snapshot fetch: primary returned %s", resp.Status)
	}
	catBytes, err := strconv.Atoi(resp.Header.Get("X-Repl-Catalog-Bytes"))
	if err != nil || catBytes < 0 {
		return 0, fmt.Errorf("chronicledb: snapshot fetch: bad X-Repl-Catalog-Bytes")
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if len(body) < catBytes {
		return 0, fmt.Errorf("chronicledb: snapshot fetch: truncated body")
	}
	catalog, image := body[:catBytes], body[catBytes:]

	// Replay the primary's catalog through the replica path: it lands in
	// the follower's own catalog file and DDL counter, so the stream's
	// ddl= handshake and a later restart both line up.
	if len(strings.TrimSpace(string(catalog))) > 0 {
		stmts, err := sqlparse.Parse(string(catalog))
		if err != nil {
			return 0, fmt.Errorf("chronicledb: snapshot catalog: %w", err)
		}
		for _, s := range stmts {
			if _, err := db.execOne(s, execReplica); err != nil {
				return 0, fmt.Errorf("chronicledb: snapshot catalog: %w", err)
			}
		}
	}

	var lsn uint64
	db.mu.Lock()
	err = db.eng.Barrier(func() error {
		l, err := db.restoreCheckpoint(image, "")
		lsn = l
		return err
	})
	if err == nil {
		// Rebase the changefeed world at the restored frontier: view
		// deltas inside the snapshot are not individually replayable, so
		// Watch subscribers resume (or snapshot-splice) from lsn exactly
		// like after a checkpoint restore.
		for _, name := range db.eng.Names(engine.Views) {
			if v, ok := db.eng.View(name); ok {
				v.SetAppliedLSN(lsn)
			}
		}
		if db.hub != nil {
			db.hub.SetBase(lsn)
		}
		db.ddlDirty.Store(true)
	}
	db.mu.Unlock()
	if err != nil {
		return 0, fmt.Errorf("chronicledb: snapshot restore: %w", err)
	}
	// Cut a local checkpoint so a follower restart recovers to lsn instead
	// of finding an empty WAL and needing the snapshot again.
	if db.opts.Dir != "" {
		if err := db.Checkpoint(); err != nil {
			return 0, fmt.Errorf("chronicledb: snapshot restore: %w", err)
		}
	}
	return lsn, nil
}

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
	_, err := wal.ReplayMergedFS(db.fs, db.opts.Dir, segments, 0, func(r wal.Record) error {
		span := wal.RecordSpan(r)
		if r.LSN == 0 || span == 0 {
			return nil // a DDL annotation consumes no LSN
		}
		top := r.LSN + span - 1
		if top <= from {
			return nil
		}
		if r.LSN > upTo {
			return errStopReplay
		}
		if r.LSN != want {
			return fmt.Errorf("chronicledb: replication backlog gap at lsn %d (want %d): segment compacted mid-read", r.LSN, want)
		}
		want = top + 1
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

// ReplSnapshot builds the full-resync payload: the catalog text plus a
// self-contained full checkpoint image (every view a whole image, dedup
// table included — exactly-once survives the resync) cut under the epoch
// barrier, and the image's LSN. Holding db.mu across both keeps the
// catalog and the image mutually consistent (DDL commits under db.mu too).
func (db *DB) ReplSnapshot() (catalog, image []byte, lsn uint64, err error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.catalogPath != "" {
		catalog, err = db.fs.ReadFile(db.catalogPath)
		if err != nil && !os.IsNotExist(err) {
			return nil, nil, 0, err
		}
		err = nil
	}
	err = db.eng.Barrier(func() error {
		data, l, _, _, _, berr := db.buildCheckpointImage(true, true)
		if berr != nil {
			return berr
		}
		// buildCheckpointImage reuses db.ckptBuf; copy out before the next
		// checkpoint overwrites it.
		image = append([]byte(nil), data...)
		lsn = l
		return nil
	})
	if err != nil {
		return nil, nil, 0, fmt.Errorf("chronicledb: snapshot: %w", err)
	}
	return catalog, image, lsn, nil
}

// ReplCatalogTail returns the catalog statements from index n on (0-based),
// rendered without trailing semicolons — the form StageDDL ships and
// ParseOne accepts. The stream handler replays these to a follower whose
// ddl= handshake reported fewer applied statements than the primary has.
func (db *DB) ReplCatalogTail(n uint64) ([]string, error) {
	if db.catalogPath == "" {
		return nil, nil
	}
	db.mu.Lock()
	src, err := db.fs.ReadFile(db.catalogPath)
	db.mu.Unlock()
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	text := string(src)
	if i := strings.LastIndex(text, ";"); i >= 0 {
		text = text[:i+1]
	}
	var stmts []string
	for _, piece := range strings.Split(text, ";\n") {
		if s := strings.TrimSpace(strings.TrimSuffix(piece, ";")); s != "" {
			stmts = append(stmts, s)
		}
	}
	if n >= uint64(len(stmts)) {
		return nil, nil
	}
	return stmts[n:], nil
}

// DDLCount reports how many catalog statements this database has applied —
// the shared index space of the replication stream's DDL frames.
func (db *DB) DDLCount() uint64 { return db.ddlSeq.Load() }
