package chronicledb

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"chronicledb/internal/algebra"
	"chronicledb/internal/calendar"
	"chronicledb/internal/chronicle"
	"chronicledb/internal/dedup"
	"chronicledb/internal/engine"
	"chronicledb/internal/fault"
	"chronicledb/internal/feed"
	"chronicledb/internal/pred"
	"chronicledb/internal/relation"
	"chronicledb/internal/repl"
	"chronicledb/internal/shard"
	"chronicledb/internal/stats"
	"chronicledb/internal/value"
	"chronicledb/internal/view"
	"chronicledb/internal/wal"
)

// ErrReadOnly is wrapped by every write rejected after the database has
// degraded to read-only (a WAL append, flush, or sync failed). Reads keep
// working; writes fail fast rather than risk acking records the log
// cannot make durable.
var ErrReadOnly = errors.New("chronicledb: database is read-only after a WAL failure")

// ErrNotPrimary is wrapped by every write rejected on a replica: followers
// serve reads and apply the replication stream, and only a promotion
// (DB.Promote, POST /promote) turns one into a writable primary.
var ErrNotPrimary = errors.New("chronicledb: replica is read-only; send writes to the primary")

// FS re-exports the filesystem abstraction so callers can inject a
// fault.Disk (crash-torture tests) via Options.FS.
type FS = fault.FS

// Options configures a DB.
type Options struct {
	// Dir enables durability: the directory holds catalog.sql, the WAL,
	// and checkpoints. Empty means a purely in-memory database.
	Dir string
	// SyncWAL makes every acknowledged write durable. By default it uses
	// group commit: concurrent appends queue on the log's commit door and
	// one fsync acknowledges the whole batch. Ignored without Dir.
	SyncWAL bool
	// SyncPerAppend forces the pre-group-commit behavior: one fsync inside
	// every WAL append. Only meaningful with SyncWAL; kept for the E16
	// ablation and for callers that want strictly serial durability.
	SyncPerAppend bool
	// Shards > 0 runs the sharded execution layer: chronicle groups (and
	// their views) are hash-partitioned across that many single-writer
	// shards, each with its own engine and WAL segment; relation updates
	// apply under a cross-shard epoch barrier. Zero keeps the classic
	// single-engine kernel.
	Shards int
	// WALSegmentBytes caps each WAL segment file: an append that would push
	// the active segment past the cap first rotates to a fresh segment,
	// registered in the durable manifest, so recovery replay and disk usage
	// are bounded by write rate since the last checkpoint rather than by
	// uptime. Zero means DefaultSegmentBytes; negative selects the legacy
	// single-file-per-shard layout (one grow-until-checkpoint WAL, full
	// checkpoints into checkpoint.bin — the E20 ablation baseline).
	WALSegmentBytes int64
	// CheckpointFullEvery folds the incremental checkpoint chain: every
	// Nth checkpoint is written full and supersedes the whole chain (the
	// compactor then deletes the obsolete increments). Zero means
	// DefaultCheckpointFullEvery; 1 makes every checkpoint full. Ignored
	// in the legacy layout, where every checkpoint is full.
	CheckpointFullEvery int
	// ViewBlockBytes is the target encoded size of one view block in the
	// blocked persistent view store (segmented layout only): B-tree view
	// state is partitioned into blocks, checkpoints re-serialize only the
	// blocks dirtied since the last cut, and the block cache pages cold
	// blocks from the checkpoint chain. Zero means view.DefaultBlockBytes
	// (8 KiB); negative disables blocked stores (views stay fully resident
	// and checkpoint as whole images — the E21 ablation baseline).
	ViewBlockBytes int64
	// ViewCacheBytes bounds the bytes of view state resident in memory
	// across all views and shards; cold clean blocks are evicted (CLOCK)
	// and fault back in on demand, so total view state can exceed RAM.
	// Zero means unbounded (blocks are tracked but never evicted). Ignored
	// when blocked stores are disabled.
	ViewCacheBytes int64
	// NoCompact disables segment reclamation: sealed segments wholly below
	// the checkpoint LSN are kept instead of deleted, and superseded
	// checkpoint-chain files survive folds. Ablation baseline for E20's
	// bounded-disk claim; leave false in production.
	NoCompact bool
	// DefaultRetention applies to chronicles created without RETAIN. The
	// zero value (RetainNone) is the pure chronicle model: nothing stored.
	DefaultRetention Retention
	// RelationHistory keeps superseded relation versions for AsOf reads.
	// Needed only when recompute baselines / reference checks will run.
	RelationHistory bool
	// NoDispatchIndex disables the Section 5.2 predicate index (ablation).
	NoDispatchIndex bool
	// LockedReads restores the engine-wide read lock on every summary
	// query (the pre-snapshot behavior), so reads serialize against
	// appends. Ablation baseline for E17; leave false in production.
	LockedReads bool
	// Clock supplies chronons for appends; nil uses wall-clock nanoseconds.
	Clock func() int64
	// FS overrides the filesystem used for all durable state. Nil means
	// the real OS; tests inject a fault.Disk to simulate power cuts,
	// fsync failures, and disk-full conditions.
	FS fault.FS
	// DedupCap bounds the idempotency table (entries per shard engine).
	// Zero means the default (64Ki entries).
	DedupCap int
	// DedupDisabled turns off request deduplication: AppendRowsIdem applies
	// every delivery unconditionally (at-least-once). Ablation baseline for
	// the E18 experiment; leave false in production.
	DedupDisabled bool
	// Feed enables changefeeds: every persistent view's maintenance delta
	// is captured at commit, stamped with its LSN, and published to live
	// subscribers (DB.Watch, the server's /watch endpoint, WATCH in SQL).
	// Off by default: capture copies delta rows even with no subscribers
	// (the per-view resume tail retains them), a cost the zero-allocation
	// append path should not pay unless changefeeds are wanted.
	Feed bool
	// FeedTailFrames bounds the per-view in-memory resume window, in
	// frames (delta batches). Reconnecting subscribers whose cursor is
	// inside the window resume from memory; older cursors get a snapshot.
	// Zero means feed.DefaultTailFrames (1024). Ignored without Feed.
	FeedTailFrames int
	// FeedRing bounds each subscriber's live delivery buffer, in frames; a
	// subscriber that falls further behind is shed rather than allowed to
	// backpressure the append path. Zero means feed.DefaultRing (256).
	// Ignored without Feed.
	FeedRing int
	// MaintWorkers bounds per-append view-maintenance parallelism: once the
	// shared-delta plan has computed every affected view's delta, the folds
	// into independent view stores run across up to this many goroutines
	// (per shard engine, counting the appending one). 1 forces the serial
	// path; 0 selects GOMAXPROCS — which on a single-core host is 1, so
	// parallel maintenance turns on exactly where it can pay.
	MaintWorkers int
	// ReplicaOf makes this database a follower of the primary at the given
	// base URL (e.g. "http://10.0.0.1:7457"): it opens read-only for
	// clients, tails the primary's replication stream, and applies every
	// frame through the recovery paths, so reads, scans, and Watch serve
	// the primary's state within the replication lag. Empty means primary.
	ReplicaOf string
	// FollowerID identifies this follower in the primary's ack table and
	// stream handler. Empty generates a random id at Open; set it to keep a
	// stable identity across restarts (the id is only advisory — catch-up
	// position comes from LSNs, not the id).
	FollowerID string
	// AckMode selects when a primary acknowledges a write: "async" (or
	// empty) acks at local durability; "sync" additionally waits — bounded
	// by SyncAckTimeout — until at least one follower has acknowledged the
	// write's LSN, so the write survives the loss of the primary. On
	// timeout or with no followers attached the write is still acked and a
	// degraded-acks counter increments: availability degrades before the
	// write path wedges.
	AckMode string
	// SyncAckTimeout bounds the AckMode "sync" wait (default 2s).
	SyncAckTimeout time.Duration
	// MaxStaleness bounds follower reads: when the replica has not been
	// caught up to the primary's advertised cursor within this duration,
	// DB.Stale reports true and the server fails reads with 503
	// "stale-replica" rather than serve arbitrarily old state. Zero means
	// no bound (reads always served). Ignored on a primary.
	MaxStaleness time.Duration
	// ReplBuffer is the per-follower live fan-out buffer in frames; a
	// follower that falls further behind is dropped to disk catch-up.
	// Zero means 1024.
	ReplBuffer int
}

// Retention re-exports the chronicle retention policy.
type Retention = chronicle.Retention

// Retention constants.
const (
	RetainAll  = chronicle.RetainAll
	RetainNone = chronicle.RetainNone
)

// Row is a query result row.
type Row = value.Tuple

// Result is the outcome of Exec: either rows (queries, SHOW, EXPLAIN) or a
// message (DDL and DML acknowledgments).
type Result struct {
	Columns []string
	Rows    []Row
	Message string
}

// Kernel is the execution surface shared by the single-engine kernel
// (*engine.Engine) and the sharded router (*shard.Router). The statement
// executor, recovery, and checkpointing all run against it, so the two
// kernels are interchangeable behind the DB facade.
type Kernel interface {
	CreateGroup(name string) (*chronicle.Group, error)
	CreateChronicle(name, groupName string, schema *value.Schema, retain *chronicle.Retention) (*chronicle.Chronicle, error)
	CreateRelation(name string, schema *value.Schema, keyCols []int) (*relation.Relation, error)
	CreateView(def view.Def, kind view.StoreKind, filter pred.Predicate, filterChronicle *chronicle.Chronicle) (*view.View, error)
	CreatePeriodicView(name string, def view.Def, cal calendar.Calendar, expireAfter int64, kind view.StoreKind) (*calendar.PeriodicView, error)
	DropView(name string) error

	Append(chronicleName string, tuples []value.Tuple) (int64, error)
	AppendEach(chronicleName string, tuples []value.Tuple) (first, last int64, err error)
	AppendEachIdem(chronicleName string, tuples []value.Tuple, clientID, requestID string) (first, last int64, deduped bool, err error)
	AppendEachAt(chronicleName string, firstSN, chronon int64, tuples []value.Tuple, clientID, requestID string) error
	AppendBatch(parts []engine.MutationPart) (int64, error)
	AppendAt(chronicleName string, sn, chronon int64, tuples []value.Tuple) (int64, error)
	AppendBatchAt(parts []engine.MutationPart, sn, chronon int64) (int64, error)
	Upsert(relationName string, t value.Tuple) error
	DeleteKey(relationName string, keyVals value.Tuple) (bool, error)

	DedupEntries() []dedup.Entry
	RestoreDedupEntry(ent dedup.Entry)
	DedupStats() (entries int, hits int64, evictions int64)

	Stats() engine.Stats
	MaintenanceLatency() stats.Snapshot
	MaintWorkers() int
	ViewSharedPlan(name string) ([]algebra.PlanNodeInfo, bool)
	LSN() uint64
	RestoreLSN(lsn uint64)

	Group(name string) (*chronicle.Group, bool)
	GroupNames() []string
	Chronicle(name string) (*chronicle.Chronicle, bool)
	ChronicleNames() []string
	ChronicleRows(name string) ([]chronicle.Row, error)
	Relation(name string) (*relation.Relation, bool)
	RelationNames() []string
	RelationRows(name string) ([]value.Tuple, error)
	View(name string) (*view.View, bool)
	ViewNames() []string
	ViewLookup(name string, key value.Tuple) (value.Tuple, bool, error)
	ViewRows(name string) ([]value.Tuple, error)
	ViewScanRange(name string, lo, hi value.Tuple) ([]value.Tuple, error)
	ViewScanFunc(name string, fn func(value.Tuple) bool) error
	ViewScanAt(name string, fn func(value.Tuple) bool) (uint64, error)
	ViewScanRangeFunc(name string, lo, hi value.Tuple, fn func(value.Tuple) bool) error
	ViewScanDescFunc(name string, fn func(value.Tuple) bool) error
	ReadStats() engine.ReadStats
	OldestSnapshotUnixNano() int64
	PeriodicView(name string) (*calendar.PeriodicView, bool)
	PeriodicViewNames() []string
}

// DB is a chronicle database: Definition 2.1's (C, R, L, V) with a
// declarative statement interface, durability, and recovery.
type DB struct {
	mu   sync.Mutex
	eng  Kernel
	opts Options
	fs   fault.FS

	// Exactly one of these backs eng.
	uno    *engine.Engine
	router *shard.Router

	// hub is the changefeed fan-out; nil unless Options.Feed. It is wired
	// into the kernel before recovery so WAL replay repopulates the
	// per-view resume tails with the original LSNs.
	hub *feed.Hub

	// Open WAL logs, one per stream. Unsharded: the chronicle stream.
	// Sharded: one per shard followed by the relation stream. In the
	// legacy layout these are the fixed-name grow-until-checkpoint files;
	// in the segmented layout each log is the stream's active segment and
	// rotates at the cap.
	logs          []*wal.Log
	catalogPath   string
	catalogSynced bool // catalog.sql's dir entry is durable

	// Segmented-layout state (zero/nil in legacy mode). man is the current
	// durable manifest; manMu serializes flips (rotation hook, checkpoint,
	// stats snapshots). ckptMarks are the dirty markers captured at the
	// last checkpoint — nil forces the next checkpoint full; ddlDirty does
	// the same after DDL (drops are invisible to the monotonic markers).
	// incrSinceFull counts chain entries since the last fold; it and
	// ckptMarks are guarded by db.mu (checkpoints are serialized).
	man           wal.Manifest
	manMu         sync.Mutex
	ckptMarks     map[string]uint64
	incrSinceFull int
	ddlDirty      atomic.Bool

	// Storage observability counters.
	lastCkptLSN    atomic.Uint64
	ckptFull       atomic.Int64
	ckptIncr       atomic.Int64
	ckptsFolded    atomic.Int64
	reclaimedBytes atomic.Int64
	segsReclaimed  atomic.Int64

	// viewCache is the shared block cache behind every paged view; nil
	// when blocked view stores are disabled (legacy layout, in-memory DB,
	// or Options.ViewBlockBytes < 0). ckptDirtyBlocks/ckptTotalBlocks
	// record the block counts of the last checkpoint cut.
	viewCache       *view.Cache
	ckptDirtyBlocks atomic.Int64
	ckptTotalBlocks atomic.Int64

	// Degradation latch: the first WAL failure flips the DB read-only.
	readOnly atomic.Bool
	roMu     sync.Mutex
	roCause  error

	// Baselines captured at Open for the SHOW STATS hot-path gauges:
	// allocations per append and fsyncs per second are both measured
	// relative to these.
	openMallocs uint64
	openAppends int64
	openTime    time.Time

	// ckptBuf is buildCheckpoint's reusable serialization buffer (guarded
	// by mu: checkpoints are serialized).
	ckptBuf []byte

	// Replication state. replSrc is the primary-side stream source, wired
	// into every log's tap (nil unless the layout is durable + segmented —
	// the legacy layout truncates its WAL at checkpoints and cannot serve
	// backlog catch-up). replica is the follower loop (nil on a primary).
	// replicaMode latches while the role is replica; Promote clears it.
	// ddlSeq counts applied DDL statements — the catalog index space shared
	// by primary and follower. degradedAcks counts sync-mode writes acked
	// without a follower ack (timeout or no followers).
	replSrc      *repl.Source
	replMu       sync.Mutex // guards the replica pointer handoff (Close/Promote)
	replica      *repl.Replica
	replicaMode  atomic.Bool
	ddlSeq       atomic.Uint64
	degradedAcks atomic.Int64
}

// Open creates or reopens a database. With Options.Dir set, Open replays
// the catalog, the latest checkpoint, and the WAL tail, in that order.
// Reopening a directory with a different shard count (including switching
// between sharded and unsharded) recovers the old layout, checkpoints, and
// rewrites the WAL layout for the new count.
func Open(opts Options) (*DB, error) {
	db := &DB{opts: opts, fs: opts.FS}
	if db.fs == nil {
		db.fs = fault.OS
	}
	switch opts.AckMode {
	case "", "async", "sync":
	default:
		return nil, fmt.Errorf("chronicledb: unknown AckMode %q (want \"async\" or \"sync\")", opts.AckMode)
	}
	if opts.ReplicaOf != "" {
		db.replicaMode.Store(true)
		if db.opts.FollowerID == "" {
			db.opts.FollowerID = fmt.Sprintf("follower-%d", time.Now().UnixNano())
		}
	}
	ecfg := engine.Config{
		DefaultRetention: opts.DefaultRetention,
		RelationHistory:  opts.RelationHistory,
		DispatchIndexed:  !opts.NoDispatchIndex,
		LockedReads:      opts.LockedReads,
		Clock:            opts.Clock,
		DedupCap:         opts.DedupCap,
		DedupDisabled:    opts.DedupDisabled,
		MaintWorkers:     opts.MaintWorkers,
	}
	if db.segmented() && opts.ViewBlockBytes >= 0 {
		// Blocked view stores: B-tree views page fixed-size blocks against
		// one cache shared across shards, faulting cold blocks back from
		// the checkpoint chain through the db-level fetcher.
		db.viewCache = view.NewCache(opts.ViewCacheBytes)
		ecfg.ViewCache = db.viewCache
		ecfg.BlockFetch = db.blockFetch
		ecfg.ViewBlockBytes = opts.ViewBlockBytes
	}
	if opts.Shards > 0 {
		r, err := shard.NewRouter(shard.Config{Shards: opts.Shards, Engine: ecfg})
		if err != nil {
			return nil, fmt.Errorf("chronicledb: %w", err)
		}
		db.router = r
		db.eng = r
	} else {
		db.uno = engine.New(ecfg)
		db.eng = db.uno
	}
	if opts.Feed {
		db.hub = feed.NewHub(feed.Config{TailFrames: opts.FeedTailFrames, Ring: opts.FeedRing})
		if db.router != nil {
			// Deferred mode: the shard writer publishes after each group
			// commit, merging every shard's frames through the shared hub.
			db.router.SetFeed(db.hub)
		} else {
			db.uno.SetFeed(db.hub, false)
		}
	}
	if opts.Dir == "" {
		db.markOpen()
		if opts.ReplicaOf != "" {
			db.startReplica()
		}
		return db, nil
	}
	if err := db.fs.MkdirAll(opts.Dir, 0o755); err != nil {
		db.stopKernel()
		return nil, fmt.Errorf("chronicledb: %w", err)
	}
	db.catalogPath = filepath.Join(opts.Dir, "catalog.sql")
	if _, err := db.fs.Stat(db.catalogPath); err == nil {
		db.catalogSynced = true
	}

	oldManifest, hadManifest, err := wal.ReadManifestFS(db.fs, opts.Dir)
	if err != nil {
		db.stopKernel()
		return nil, fmt.Errorf("chronicledb: %w", err)
	}
	if err := db.recover(oldManifest, hadManifest); err != nil {
		db.stopKernel()
		return nil, err
	}
	if db.segmented() {
		if err := db.openSegmented(oldManifest, hadManifest); err != nil {
			db.stopKernel()
			return nil, err
		}
		db.installRecorders()
	} else {
		if err := db.openLogs(); err != nil {
			db.stopKernel()
			return nil, err
		}
		db.installRecorders()
		if err := db.normalizeLayout(oldManifest, hadManifest); err != nil {
			db.Close()
			return nil, err
		}
	}
	if db.segmented() {
		// Tap every log for replication fan-out. The source exists on
		// followers too: applied frames land in the follower's own WAL, so a
		// promoted primary (or a cascading follower) can serve the stream
		// from the LSNs it inherited.
		src := repl.NewSource(len(db.logs), db.eng.LSN())
		for i, l := range db.logs {
			onAppend, onDurable := src.Tap(i)
			l.SetTap(onAppend, onDurable)
		}
		db.replSrc = src
	}
	db.markOpen()
	if opts.ReplicaOf != "" {
		db.startReplica()
	}
	return db, nil
}

// blockFetch reads one durable view block from the checkpoint chain. The
// manifest invariant (a referenced chain file exists until the flip that
// drops it, and blocked images only reference files their own chain keeps)
// makes a missing file genuine corruption rather than a race.
func (db *DB) blockFetch(ref view.BlockRef) ([]byte, error) {
	f, err := db.fs.Open(filepath.Join(db.opts.Dir, ref.File))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if _, err := f.Seek(ref.Off, io.SeekStart); err != nil {
		return nil, err
	}
	buf := make([]byte, ref.Len)
	if _, err := io.ReadFull(f, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// markOpen captures the hot-path measurement baselines once recovery and
// layout normalization are done, so SHOW STATS gauges reflect only the
// serving workload.
func (db *DB) markOpen() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	db.openMallocs = ms.Mallocs
	db.openAppends = db.eng.Stats().Appends
	db.openTime = time.Now()
}

// openLogs opens the WAL files for the active kernel layout.
func (db *DB) openLogs() error {
	var paths []string
	if db.router != nil {
		for i := 0; i < db.router.NumShards(); i++ {
			paths = append(paths, filepath.Join(db.opts.Dir, wal.SegmentName(i)))
		}
		paths = append(paths, filepath.Join(db.opts.Dir, wal.RelationSegment))
	} else {
		paths = append(paths, filepath.Join(db.opts.Dir, "chronicle.wal"))
	}
	policy := db.syncPolicy()
	for _, p := range paths {
		log, err := wal.OpenPolicyFS(db.fs, p, policy)
		if err != nil {
			db.closeLogs()
			return fmt.Errorf("chronicledb: %w", err)
		}
		db.logs = append(db.logs, log)
	}
	// Make the segments' directory entries durable: a freshly created log
	// must not vanish in a power cut after records were acked into it.
	if err := db.fs.SyncDir(db.opts.Dir); err != nil {
		db.closeLogs()
		return fmt.Errorf("chronicledb: %w", err)
	}
	return nil
}

// failWrites latches the first WAL failure and degrades the DB to
// read-only: subsequent writes fail fast with ErrReadOnly instead of
// stalling on a log that can no longer guarantee durability.
func (db *DB) failWrites(err error) {
	db.roMu.Lock()
	if db.roCause == nil {
		db.roCause = err
	}
	db.roMu.Unlock()
	db.readOnly.Store(true)
}

// ReadOnly reports whether the database has degraded to read-only, and
// the first error that caused it.
func (db *DB) ReadOnly() (bool, error) {
	if !db.readOnly.Load() {
		return false, nil
	}
	db.roMu.Lock()
	defer db.roMu.Unlock()
	return true, db.roCause
}

// writeGate rejects writes once the DB is read-only.
func (db *DB) writeGate() error {
	if !db.readOnly.Load() {
		return nil
	}
	db.roMu.Lock()
	cause := db.roCause
	db.roMu.Unlock()
	if cause != nil {
		return fmt.Errorf("%w (cause: %v)", ErrReadOnly, cause)
	}
	return ErrReadOnly
}

// installRecorders wires each kernel mutation source to its WAL log, and —
// when the caller asked for durability — each mutation path to its log's
// group-commit door. Committers are installed only under SyncWAL: without
// it, acknowledged writes were never durable, so there is nothing to commit.
func (db *DB) installRecorders() {
	if db.router != nil {
		// Each shard's appends go to its own segment; relation updates
		// (which the router applies itself, under the barrier) go to the
		// relation segment.
		relLog := db.logs[len(db.logs)-1]
		for i := 0; i < db.router.NumShards(); i++ {
			log := db.logs[i]
			db.router.Engine(i).SetRecorder(db.recorder(log))
			if db.opts.SyncWAL {
				// The shard's writer goroutine commits once per coalesced
				// batch; direct AppendAt paths commit through the router.
				db.router.SetShardCommitter(i, db.committer(log))
			}
		}
		db.router.SetRelationRecorder(db.recorder(relLog))
		if db.opts.SyncWAL {
			db.router.SetRelationCommitter(db.committer(relLog))
		}
		return
	}
	db.uno.SetRecorder(db.recorder(db.logs[0]))
	if db.opts.SyncWAL {
		db.uno.SetCommitter(db.committer(db.logs[0]))
	}
}

// recorder builds the WAL recorder for one log: an append failure aborts
// the mutation (the engine applies nothing after a recorder error) and
// latches the read-only degradation. The record's Parts slice is scratch
// owned by the closure — safe because each recorder is called only under
// its engine's (or the router's relation) mutation lock, and the log copies
// everything into its frame buffer before Append returns.
func (db *DB) recorder(log *wal.Log) func(engine.Mutation) error {
	var parts []wal.Part
	return func(m engine.Mutation) error {
		if err := db.writeGate(); err != nil {
			return err
		}
		rec := wal.Record{LSN: m.LSN, SN: m.SN, Chronon: m.Chronon, Relation: m.Relation, Tuple: m.Tuple}
		switch m.Kind {
		case engine.MutAppend:
			rec.Kind = wal.RecAppend
			parts = parts[:0]
			for _, p := range m.Parts {
				parts = append(parts, wal.Part{Chronicle: p.Chronicle, Tuples: p.Tuples})
			}
			rec.Parts = parts
		case engine.MutAppendEach:
			rec.Kind = wal.RecAppendEach
			rec.ClientID = m.ClientID
			rec.RequestID = m.RequestID
			parts = parts[:0]
			for _, p := range m.Parts {
				parts = append(parts, wal.Part{Chronicle: p.Chronicle, Tuples: p.Tuples})
			}
			rec.Parts = parts
		case engine.MutUpsert:
			rec.Kind = wal.RecUpsert
		case engine.MutDelete:
			rec.Kind = wal.RecDelete
		}
		if err := log.Append(rec); err != nil {
			db.failWrites(err)
			return err
		}
		return nil
	}
}

// committer builds the commit hook for one log: it opens the group-commit
// door (fsyncing once for every record appended so far) and latches the
// read-only degradation on failure, exactly like the recorder.
func (db *DB) committer(log *wal.Log) func() error {
	return func() error {
		if err := log.Commit(); err != nil {
			db.failWrites(err)
			return err
		}
		return nil
	}
}

// normalizeLayout converts the on-disk WAL layout to the legacy shape the
// active kernel expects (it only runs in legacy mode; segmented mode
// converts inside openSegmented). Everything recovered is checkpointed
// first (so no old WAL record is still needed), the new layout's manifest
// is made durable (or removed, for the manifest-less unsharded layout),
// and only then are the old layout's files — v1 shard segments, v2
// segments and chain checkpoints, the legacy single log — removed, so a
// crash mid-conversion always leaves a manifest whose references exist.
func (db *DB) normalizeLayout(old wal.Manifest, hadManifest bool) error {
	legacyWAL := filepath.Join(db.opts.Dir, "chronicle.wal")
	oldFiles := func(keep map[string]bool) []string {
		var names []string
		for _, seg := range old.Segments {
			if !keep[seg] {
				names = append(names, seg)
			}
		}
		for _, s := range old.Live {
			if !keep[s.Name] {
				names = append(names, s.Name)
			}
		}
		for _, c := range old.Checkpoints {
			if !keep[c.Name] {
				names = append(names, c.Name)
			}
		}
		return names
	}
	if db.router == nil {
		if !hadManifest {
			return nil // classic layout already
		}
		if err := db.Checkpoint(); err != nil {
			return err
		}
		// Drop the manifest first: from here recovery takes the legacy
		// unsharded path (checkpoint.bin + chronicle.wal) and never reads
		// the old layout's files again.
		db.fs.Remove(filepath.Join(db.opts.Dir, wal.ManifestName))
		if err := db.fs.SyncDir(db.opts.Dir); err != nil {
			return fmt.Errorf("chronicledb: %w", err)
		}
		for _, name := range oldFiles(map[string]bool{"chronicle.wal": true}) {
			db.fs.Remove(filepath.Join(db.opts.Dir, name))
		}
		return db.fs.SyncDir(db.opts.Dir)
	}
	_, statErr := db.fs.Stat(legacyWAL)
	hadLegacy := statErr == nil
	if hadManifest && old.Version == 1 && old.Shards == db.router.NumShards() && !hadLegacy {
		return nil // layout already matches
	}
	if err := db.Checkpoint(); err != nil {
		return err
	}
	cur := wal.NewManifest(db.router.NumShards())
	keep := make(map[string]bool, len(cur.Segments))
	for _, seg := range cur.Segments {
		keep[seg] = true
	}
	if err := wal.WriteManifestFS(db.fs, db.opts.Dir, cur); err != nil {
		return fmt.Errorf("chronicledb: %w", err)
	}
	if hadManifest {
		for _, name := range oldFiles(keep) {
			db.fs.Remove(filepath.Join(db.opts.Dir, name))
		}
	}
	if hadLegacy {
		db.fs.Remove(legacyWAL)
	}
	return db.fs.SyncDir(db.opts.Dir)
}

// stopKernel stops shard writers and the maintenance fold pools. The
// router stops its engines' pools itself after draining the writers; the
// single-engine kernel stops its pool here (callers hold db.mu, so no
// mutation — and hence no maintenance batch — is in flight).
func (db *DB) stopKernel() {
	if db.router != nil {
		db.router.Close()
	}
	if db.uno != nil {
		db.uno.StopMaintenance()
	}
}

func (db *DB) closeLogs() error {
	var first error
	for _, l := range db.logs {
		if err := l.Close(); err != nil && first == nil {
			first = err
		}
	}
	db.logs = nil
	return first
}

// Close drains shard writers and flushes and closes the WAL. The in-memory
// state stays usable for reads but further updates will fail.
func (db *DB) Close() error {
	// Stop the replica loop before taking db.mu: its apply goroutine may be
	// inside a DDL apply that needs db.mu, and it must quiesce before the
	// logs close underneath it.
	db.stopReplica()
	db.mu.Lock()
	defer db.mu.Unlock()
	db.stopKernel()
	if db.logs == nil {
		return nil
	}
	err := db.closeLogs()
	if db.uno != nil {
		db.uno.SetRecorder(nil)
	}
	return err
}

// Flush pushes buffered WAL records to the OS (no-op in memory mode).
func (db *DB) Flush() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	var first error
	for _, l := range db.logs {
		if err := l.Sync(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Engine exposes the kernel for advanced callers (benchmarks, tests). In
// sharded mode this is the *shard.Router, otherwise the *engine.Engine.
func (db *DB) Engine() Kernel { return db.eng }

// Feed returns the changefeed hub, or nil when Options.Feed is off.
func (db *DB) Feed() *feed.Hub { return db.hub }

// FeedStats snapshots the changefeed counters (zero value when feeds are
// disabled).
func (db *DB) FeedStats() feed.Stats {
	if db.hub == nil {
		return feed.Stats{}
	}
	return db.hub.Stats()
}

// ScanViewAt streams a view's rows like ScanView and returns the applied
// LSN of the scanned state — the anchor for splicing a snapshot read into
// the live delta stream. Rows passed to fn are caller-owned.
func (db *DB) ScanViewAt(viewName string, fn func(Row) bool) (uint64, error) {
	return db.eng.ViewScanAt(viewName, fn)
}

// Router returns the shard router, or nil for a single-engine database.
func (db *DB) Router() *shard.Router { return db.router }

// Shards reports the shard count (0 for the single-engine kernel).
func (db *DB) Shards() int {
	if db.router == nil {
		return 0
	}
	return db.router.NumShards()
}

// Stats returns engine counters (summed across shards when sharded).
func (db *DB) Stats() engine.Stats { return db.eng.Stats() }

// MaintenanceLatency returns the per-append view maintenance latency
// distribution, merged across shards when sharded.
func (db *DB) MaintenanceLatency() stats.Snapshot { return db.eng.MaintenanceLatency() }

// WALStats aggregates durability counters across every open WAL segment,
// plus process-level hot-path gauges measured since Open.
type WALStats struct {
	Records int64          // WAL records appended since open
	Fsyncs  int64          // fsync calls since open
	Batches stats.Snapshot // records acked per fsync (group-commit batch size)

	Appends       int64   // kernel appends since Open
	AllocsPerOp   float64 // process mallocs per append since Open (all goroutines)
	FsyncsPerSec  float64 // fsync rate since Open
	UptimeSeconds float64 // seconds since Open

	// Segmented-layout gauges (zero in legacy mode or without a Dir).
	Segmented              bool
	SegmentCap             int64  // rotation threshold, bytes
	Segments               int    // live segment files, all streams
	SealedSegments         int    // of those, sealed (rotation completed)
	LiveBytes              int64  // bytes recovery would read (sealed + active)
	Rotations              int64  // segment rotations since open
	ReclaimedBytes         int64  // sealed bytes deleted by compaction since open
	SegmentsReclaimed      int64  // segments deleted by compaction since open
	Checkpoints            int    // checkpoint chain length
	CheckpointsFull        int64  // full images written since open
	CheckpointsIncremental int64  // incremental images written since open
	CheckpointsFolded      int64  // chain entries superseded by folds since open
	LastCheckpointLSN      uint64 // chain tip LSN (replay skip threshold)

	// Blocked view store gauges (zero when blocked stores are disabled).
	ViewCacheEnabled   bool
	ViewCacheHits      int64 // paged reads served from resident blocks
	ViewCacheMisses    int64 // block faults from the checkpoint chain
	ViewCacheEvictions int64 // blocks evicted by the CLOCK sweep
	ViewCacheBytes     int64 // bytes of view state currently resident
	ViewCacheBudget    int64 // resident-byte budget (0 = unbounded)
	CkptDirtyBlocks    int64 // blocks re-serialized by the last checkpoint
	CkptTotalBlocks    int64 // total blocks across paged views at that cut
}

// WALStats returns the merged durability and hot-path gauges. The
// allocations-per-append figure is a whole-process measurement (runtime
// mallocs divided by appends since Open), so it includes query and
// background work — useful as a trend line, not an exact per-op count;
// the exact counts are guarded by TestAllocGuards.
func (db *DB) WALStats() WALStats {
	var w WALStats
	var batches stats.Histogram
	for _, l := range db.logs {
		m := l.LogMetrics()
		w.Records += m.Records
		w.Fsyncs += m.Fsyncs
		w.Rotations += m.Rotations
		batches.Merge(&m.Batches)
	}
	w.Batches = batches.Snapshot()
	if db.segmented() {
		w.Segmented = true
		w.SegmentCap = db.segmentCap()
		for _, l := range db.logs {
			w.LiveBytes += l.LogMetrics().ActiveBytes
		}
		db.manMu.Lock()
		for _, s := range db.man.Live {
			w.Segments++
			if s.Sealed {
				w.SealedSegments++
				w.LiveBytes += s.Bytes
			}
		}
		w.Checkpoints = len(db.man.Checkpoints)
		db.manMu.Unlock()
		w.ReclaimedBytes = db.reclaimedBytes.Load()
		w.SegmentsReclaimed = db.segsReclaimed.Load()
		w.CheckpointsFull = db.ckptFull.Load()
		w.CheckpointsIncremental = db.ckptIncr.Load()
		w.CheckpointsFolded = db.ckptsFolded.Load()
		w.LastCheckpointLSN = db.lastCkptLSN.Load()
	}
	if c := db.viewCache; c != nil {
		w.ViewCacheEnabled = true
		w.ViewCacheHits = c.Hits()
		w.ViewCacheMisses = c.Misses()
		w.ViewCacheEvictions = c.Evictions()
		w.ViewCacheBytes = c.UsedBytes()
		w.ViewCacheBudget = c.Budget()
		w.CkptDirtyBlocks = db.ckptDirtyBlocks.Load()
		w.CkptTotalBlocks = db.ckptTotalBlocks.Load()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.Appends = db.eng.Stats().Appends - db.openAppends
	if w.Appends > 0 {
		w.AllocsPerOp = float64(ms.Mallocs-db.openMallocs) / float64(w.Appends)
	}
	w.UptimeSeconds = time.Since(db.openTime).Seconds()
	if w.UptimeSeconds > 0 {
		w.FsyncsPerSec = float64(w.Fsyncs) / w.UptimeSeconds
	}
	return w
}

// Chronicle implements sqlparse.Catalog.
func (db *DB) Chronicle(name string) (*chronicle.Chronicle, bool) {
	return db.eng.Chronicle(name)
}

// Relation implements sqlparse.Catalog.
func (db *DB) Relation(name string) (*relation.Relation, bool) {
	return db.eng.Relation(name)
}

// View returns a persistent view handle by name.
func (db *DB) View(name string) (*view.View, bool) { return db.eng.View(name) }

// Append inserts tuples into a chronicle with the next sequence number,
// maintaining every affected persistent view before returning.
func (db *DB) Append(chronicleName string, tuples ...value.Tuple) (int64, error) {
	if err := db.writeGate(); err != nil {
		return 0, err
	}
	if err := db.roleGate(); err != nil {
		return 0, err
	}
	sn, err := db.eng.Append(chronicleName, tuples)
	if err == nil {
		db.ackWait()
	}
	return sn, err
}

// AppendRows bulk-ingests tuples into a chronicle, one transaction (own
// sequence number and maintenance round) per tuple, applied under a single
// kernel pass and made visible to readers as one: a query sees all of the
// call's rows or none. It returns the first and last sequence numbers
// assigned; on an error at tuple i the tuples before it stay applied.
func (db *DB) AppendRows(chronicleName string, tuples []value.Tuple) (first, last int64, err error) {
	if err := db.writeGate(); err != nil {
		return 0, 0, err
	}
	if err := db.roleGate(); err != nil {
		return 0, 0, err
	}
	first, last, err = db.eng.AppendEach(chronicleName, tuples)
	if err == nil {
		db.ackWait()
	}
	return first, last, err
}

// AppendRowsIdem is AppendRows with exactly-once semantics: a request
// already applied under the same (clientID, requestID) — including in a
// previous process life — returns its original sequence-number range with
// deduped=true instead of re-applying. The run is atomic (one WAL record
// covers the rows and the dedup entry), so a crash mid-request leaves
// either the whole request durable or none of it.
//
// The write gate runs before the dedup lookup on purpose: after a commit
// failure latches the DB read-only, a retry must see ErrReadOnly — never a
// stored ack for rows whose durability was not acknowledged.
func (db *DB) AppendRowsIdem(chronicleName string, tuples []value.Tuple, clientID, requestID string) (first, last int64, deduped bool, err error) {
	if err := db.writeGate(); err != nil {
		return 0, 0, false, err
	}
	if clientID == "" || requestID == "" {
		return 0, 0, false, fmt.Errorf("chronicledb: idempotent append needs a client id and request id")
	}
	if err := db.roleGate(); err != nil {
		return 0, 0, false, err
	}
	first, last, deduped, err = db.eng.AppendEachIdem(chronicleName, tuples, clientID, requestID)
	if err == nil && !deduped {
		// A deduped retry's rows were acked (and, under sync mode, waited
		// on) by the original delivery — don't pay the follower round trip
		// twice.
		db.ackWait()
	}
	return first, last, deduped, err
}

// DedupStats reports the idempotency table's observability counters
// (summed across shards when sharded).
func (db *DB) DedupStats() (entries int, hits int64, evictions int64) {
	return db.eng.DedupStats()
}

// Upsert applies a proactive relation update.
func (db *DB) Upsert(relationName string, t value.Tuple) error {
	if err := db.writeGate(); err != nil {
		return err
	}
	if err := db.roleGate(); err != nil {
		return err
	}
	if err := db.eng.Upsert(relationName, t); err != nil {
		return err
	}
	db.ackWait()
	return nil
}

// Lookup answers a summary query from a persistent view by group key. The
// read runs lock-free against the view's latest published snapshot, which
// includes every append that has returned — the "balance check before the
// next ATM withdrawal" guarantee — without serializing against appends in
// flight. The returned row is caller-owned.
func (db *DB) Lookup(viewName string, key ...value.Value) (Row, bool, error) {
	return db.eng.ViewLookup(viewName, value.Tuple(key))
}

// LookupRange returns the view rows whose group key is ≥ lo and < hi under
// tuple comparison (lo and hi may be key prefixes), in ascending key order.
// With a BTREE store this is a lock-free index range scan over the view's
// latest snapshot. The rows are caller-owned.
func (db *DB) LookupRange(viewName string, lo, hi Tuple) ([]Row, error) {
	return db.eng.ViewScanRange(viewName, lo, hi)
}

// ScanView streams a view's rows in ascending group-key order until fn
// returns false, without materializing the result. Rows passed to fn are
// caller-owned.
func (db *DB) ScanView(viewName string, fn func(Row) bool) error {
	return db.eng.ViewScanFunc(viewName, fn)
}

// ScanViewDesc streams a view's rows in descending group-key order until
// fn returns false — walk from the top, stop early. Rows passed to fn are
// caller-owned.
func (db *DB) ScanViewDesc(viewName string, fn func(Row) bool) error {
	return db.eng.ViewScanDescFunc(viewName, fn)
}

// LatestViewRows returns the view's last n rows by group key, highest key
// first — the "latest N groups" query, answered by a descending snapshot
// walk that stops after n rows instead of materializing the view.
func (db *DB) LatestViewRows(viewName string, n int) ([]Row, error) {
	if n <= 0 {
		return nil, nil
	}
	var out []Row
	err := db.eng.ViewScanDescFunc(viewName, func(t Row) bool {
		out = append(out, t)
		return len(out) < n
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ReadStats re-exports the read-path counters and latency distribution.
type ReadStats = engine.ReadStats

// ReadStats reports read traffic: lookup and scan counts plus the
// end-to-end read latency distribution, merged across shards when sharded.
func (db *DB) ReadStats() ReadStats { return db.eng.ReadStats() }

// ViewMaintStat attributes maintenance cost to one persistent view.
type ViewMaintStat struct {
	Name      string
	Applies   int64 // maintenance invocations
	DeltaRows int64 // expression delta rows folded in
	ApplyNs   int64 // wall time inside ApplyRows (the fold)
}

// MaintWorkers reports the resolved per-engine maintenance parallelism.
func (db *DB) MaintWorkers() int { return db.eng.MaintWorkers() }

// MaintAttribution returns the k slowest persistent views by accumulated
// apply time — where per-append maintenance cost actually goes. k ≤ 0
// returns all views. Ties and ordering are by ApplyNs descending, then
// name, so repeated calls are stable.
func (db *DB) MaintAttribution(k int) []ViewMaintStat {
	names := db.eng.ViewNames()
	out := make([]ViewMaintStat, 0, len(names))
	for _, n := range names {
		v, ok := db.eng.View(n)
		if !ok {
			continue
		}
		st := v.Stats()
		out = append(out, ViewMaintStat{Name: n, Applies: st.Applies, DeltaRows: st.DeltaRows, ApplyNs: st.ApplyNs})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ApplyNs != out[j].ApplyNs {
			return out[i].ApplyNs > out[j].ApplyNs
		}
		return out[i].Name < out[j].Name
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// SnapshotAge reports how long ago the oldest live view snapshot was
// published — the staleness bound of the lock-free read path. Zero means
// no view currently publishes a snapshot (no views, or all hash-stored).
func (db *DB) SnapshotAge() time.Duration {
	at := db.eng.OldestSnapshotUnixNano()
	if at == 0 {
		return 0
	}
	return time.Duration(time.Now().UnixNano() - at)
}
