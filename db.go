package chronicledb

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"chronicledb/internal/chronicle"
	"chronicledb/internal/engine"
	"chronicledb/internal/fault"
	"chronicledb/internal/feed"
	"chronicledb/internal/keyenc"
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

// ErrUnsupportedLayout is wrapped by Open when the directory holds files of
// a storage layout this version does not read: a single-file WAL
// (chronicle.wal, shard-NNNN.wal, relations.wal), a fixed-name
// checkpoint.bin, a manifest whose version is not 2, or a checkpoint image
// whose version is not 6. Nothing in the directory is touched.
var ErrUnsupportedLayout = errors.New("chronicledb: unsupported storage layout")

// ErrInvalidOption is wrapped by Open when an Options field holds a value
// no setting gives meaning to (a negative count or size).
var ErrInvalidOption = errors.New("chronicledb: invalid option")

// ErrNoInstance is wrapped by a read of a periodic view FOR INTERVAL a start
// that names no live instance: one not born yet, one expired, or a chronon
// that starts no interval of the family's calendar. The error names the
// family and the start; EXPLAIN VIEW lists the live intervals.
var ErrNoInstance = errors.New("chronicledb: no live instance")

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
	// Shards is the number of single-writer shards chronicle groups (and
	// their views) are hash-partitioned across, each with its own engine
	// and WAL stream; relation updates apply under a cross-shard epoch
	// barrier. Zero means one; negative is rejected.
	Shards int
	// WALSegmentBytes caps each WAL segment file: an append that would push
	// the active segment past the cap first rotates to a fresh segment,
	// registered in the durable manifest, so recovery replay and disk usage
	// are bounded by write rate since the last checkpoint rather than by
	// uptime. Zero means DefaultSegmentBytes; negative is rejected.
	WALSegmentBytes int64
	// CheckpointFullEvery folds the incremental checkpoint chain: every
	// Nth checkpoint is written full and supersedes the whole chain (the
	// compactor then deletes the obsolete increments). Zero means
	// DefaultCheckpointFullEvery; 1 makes every checkpoint full.
	CheckpointFullEvery int
	// ViewBlockBytes is the target encoded size of one view block in the
	// blocked persistent view store (durable databases only): every view's
	// entries are partitioned into blocks, checkpoints re-serialize only the
	// blocks dirtied since the last cut, and the block cache pages cold
	// blocks from the checkpoint chain. Zero means view.DefaultBlockBytes
	// (8 KiB); negative is rejected.
	ViewBlockBytes int64
	// ViewCacheBytes bounds the bytes of view state resident in memory
	// across all views and shards; cold clean blocks are evicted (CLOCK)
	// and fault back in on demand, so total view state can exceed RAM.
	// Zero means unbounded (blocks are tracked but never evicted). Ignored
	// without Dir.
	ViewCacheBytes int64
	// DefaultRetention applies to chronicles created without RETAIN. The
	// zero value (RetainNone) is the pure chronicle model: nothing stored.
	DefaultRetention Retention
	// RelationHistory keeps superseded relation versions for AsOf reads.
	// What it changes today: a join view created over rows a chronicle
	// retains backfills each row against the relation as it was at the
	// row's append, not as it is now. Without it a late join view can
	// differ from one made before the relation changed (ROADMAP item 2).
	RelationHistory bool
	// Clock supplies chronons for appends; nil uses wall-clock nanoseconds.
	Clock func() int64
	// FS overrides the filesystem used for all durable state. Nil means
	// the real OS; tests inject a fault.Disk to simulate power cuts,
	// fsync failures, and disk-full conditions.
	FS fault.FS
	// DedupCap bounds the idempotency table (entries per shard engine).
	// Zero means the default (64Ki entries); a bound past 2²⁸ holds 2²⁸.
	DedupCap int
	// Feed enables changefeeds: every persistent view's maintenance delta
	// is captured at commit, stamped with its LSN, and published to live
	// subscribers (DB.Watch, the server's /watch endpoint, WATCH in SQL).
	// Off by default: capture copies delta rows even with no subscribers
	// (the per-view resume tail retains them), a cost the zero-allocation
	// append path should not pay unless changefeeds are wanted.
	Feed bool
	// FeedTailFrames bounds the per-view in-memory resume window, in
	// deltas (one per LSN). A reconnecting subscriber whose cursor is within
	// the view's last FeedTailFrames deltas resumes from memory; older
	// cursors get a snapshot. The window keeps whole frames, one per view
	// per append call, so it may hold one frame more than that. Zero means
	// feed.DefaultTailFrames (1024). Ignored without Feed.
	FeedTailFrames int
	// FeedRing bounds each subscriber's live delivery buffer, in deltas
	// (one per LSN); a subscriber that a call's frame would take past it is
	// shed rather than allowed to backpressure the append path. Zero means
	// feed.DefaultRing (256). Ignored without Feed.
	FeedRing int
	// ReplicaOf makes this database a follower of the primary at the given
	// base URL (e.g. "http://10.0.0.1:7457"): it opens read-only for
	// clients, tails the primary's replication stream, and applies every
	// frame through the recovery paths, so reads, scans, and Watch serve
	// the primary's state within the replication lag. A follower the
	// primary compacted its log past bootstraps from the primary's
	// checkpoint files, which needs Dir: without one it reports a named
	// error (DB.ReplErr) and stays put. Empty means primary.
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

// DB is a chronicle database: Definition 2.1's (C, R, L, V) with a
// declarative statement interface, durability, and recovery.
type DB struct {
	mu   sync.Mutex
	eng  *shard.Router
	opts Options
	fs   fault.FS

	// hub is the changefeed fan-out; nil unless Options.Feed. It is wired
	// into the kernel before recovery so WAL replay repopulates the
	// per-view resume tails with the original LSNs.
	hub *feed.Hub

	// Open WAL logs, one per stream: one per shard followed by the relation
	// stream. Each log is the stream's active segment and rotates at the cap.
	logs          []*wal.Log
	catalogPath   string
	catalogSynced bool // catalog.sql's dir entry is durable

	// Storage state (zero/nil without a Dir). man is the current
	// durable manifest; manMu serializes flips (rotation hook, checkpoint,
	// stats snapshots). ckptMarks are the dirty markers captured at the
	// last checkpoint — nil forces the next checkpoint full. ckptCatalog is
	// the catalog prefix the chain was cut against; DDL since then forces
	// the next checkpoint full too (drops are invisible to the monotonic
	// markers), so every image of one chain shares one prefix.
	// incrSinceFull counts chain entries since the last fold; it, ckptMarks
	// and ckptCatalog are guarded by db.mu (checkpoints are serialized).
	man           wal.Manifest
	manMu         sync.Mutex
	ckptMarks     map[string]uint64
	ckptCatalog   uint64
	incrSinceFull int

	// Storage observability counters.
	lastCkptLSN    atomic.Uint64
	ckptFull       atomic.Int64
	ckptIncr       atomic.Int64
	ckptsFolded    atomic.Int64
	reclaimedBytes atomic.Int64
	segsReclaimed  atomic.Int64

	// viewCache is the shared block cache behind every paged view; nil
	// in an in-memory DB. ckptDirtyBlocks/ckptTotalBlocks record the block
	// counts of the last checkpoint cut.
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

	// catalogViews names the views and periodic families catalog statements
	// made (guarded by mu). A checkpoint images these alone: a view made
	// through Engine() has no statement to remake it at the next Open.
	catalogViews map[string]bool

	// Replication state. replSrc is the primary-side stream source, wired
	// into every log's tap (nil without a Dir). replica is the follower
	// loop (nil on a primary).
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
// the catalog prefix the checkpoint chain was cut against, the chain, the
// rest of the catalog, and the WAL tail, in that order.
// Reopening a directory with a different shard count recovers the old
// streams, checkpoints, and rewrites the WAL streams for the new count.
func Open(opts Options) (*DB, error) {
	db := &DB{opts: opts, fs: opts.FS, catalogViews: make(map[string]bool)}
	if db.fs == nil {
		db.fs = fault.OS
	}
	switch {
	case opts.Shards < 0:
		return nil, fmt.Errorf("%w: Options.Shards is %d, want ≥ 0", ErrInvalidOption, opts.Shards)
	case opts.WALSegmentBytes < 0:
		return nil, fmt.Errorf("%w: Options.WALSegmentBytes is %d, want ≥ 0", ErrInvalidOption, opts.WALSegmentBytes)
	case opts.ViewBlockBytes < 0:
		return nil, fmt.Errorf("%w: Options.ViewBlockBytes is %d, want ≥ 0", ErrInvalidOption, opts.ViewBlockBytes)
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
		Clock:            opts.Clock,
		DedupCap:         opts.DedupCap,
	}
	if opts.Dir != "" {
		// Blocked view stores: every view pages fixed-size blocks against
		// one cache shared across shards, faulting cold blocks back from
		// the checkpoint chain through the db-level fetcher.
		db.viewCache = view.NewCache(opts.ViewCacheBytes)
		ecfg.ViewCache = db.viewCache
		ecfg.BlockFetch = db.blockFetch
		ecfg.ViewBlockBytes = opts.ViewBlockBytes
	}
	if opts.Feed {
		// Each shard's pass publishes after its commit, merging every shard's
		// frames through the shared hub.
		db.hub = feed.NewHub(feed.Config{TailFrames: opts.FeedTailFrames, Ring: opts.FeedRing})
	}
	eng, err := shard.NewRouter(shard.Config{Shards: max(1, opts.Shards), Engine: ecfg, Feed: db.hub})
	if err != nil {
		return nil, fmt.Errorf("chronicledb: %w", err)
	}
	db.eng = eng
	if opts.Dir == "" {
		db.markOpen()
		if opts.ReplicaOf != "" {
			db.startReplica()
		}
		return db, nil
	}
	if err := db.openDir(); err != nil {
		db.eng.Close()
		return nil, err
	}
	db.markOpen()
	if opts.ReplicaOf != "" {
		db.startReplica()
	}
	return db, nil
}

// openDir recovers the durable state under Options.Dir into the fresh
// kernel and opens its logs for appending.
func (db *DB) openDir() error {
	dir := db.opts.Dir
	if err := db.fs.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("chronicledb: %w", err)
	}
	if err := db.rejectOldLayout(); err != nil {
		return err
	}
	db.catalogPath = filepath.Join(dir, "catalog.sql")
	if _, err := db.fs.Stat(db.catalogPath); err == nil {
		db.catalogSynced = true
	}
	oldManifest, hadManifest, err := wal.ReadManifestFS(db.fs, dir)
	if errors.Is(err, wal.ErrManifestVersion) {
		return fmt.Errorf("%w: %v", ErrUnsupportedLayout, err)
	}
	if err != nil {
		return fmt.Errorf("chronicledb: %w", err)
	}
	if err := db.recover(oldManifest); err != nil {
		return err
	}
	if err := db.openSegmented(oldManifest, hadManifest); err != nil {
		return err
	}
	db.installRecorders()
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
	return nil
}

// rejectOldLayout refuses a directory written in a layout this version no
// longer reads (see ErrUnsupportedLayout), before recovery or the orphan
// sweep can start empty over it or delete its files.
func (db *DB) rejectOldLayout() error {
	names, err := db.fs.ReadDir(db.opts.Dir)
	if err != nil {
		return fmt.Errorf("chronicledb: %w", err)
	}
	for _, name := range names {
		if oldLayoutFile(name) {
			return fmt.Errorf("%w: %s in %s", ErrUnsupportedLayout, name, db.opts.Dir)
		}
	}
	return nil
}

// oldLayoutFile recognizes the fixed file names of the single-file layouts.
// Segment files of a shard stream are shard-NNNN-SSSSSSSS.wal and do not
// match.
func oldLayoutFile(name string) bool {
	switch name {
	case "chronicle.wal", "checkpoint.bin", "relations.wal":
		return true
	}
	rest, ok := strings.CutPrefix(name, "shard-")
	return ok && strings.HasSuffix(rest, ".wal") && !strings.Contains(rest, "-")
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
	db.openAppends = db.Stats().Appends
	db.openTime = time.Now()
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
// Each shard's appends go to its own stream; relation updates (which the
// router applies itself, under the barrier) go to the relation stream, the
// last log.
func (db *DB) installRecorders() {
	hooks := make([]shard.WAL, len(db.logs))
	for i, log := range db.logs {
		hooks[i].Record = db.recorder(log)
		if db.opts.SyncWAL {
			hooks[i].Commit = db.committer(log)
		}
	}
	db.eng.SetWAL(hooks)
}

// recorder builds the WAL recorder for one log: an append failure aborts
// the mutation (the kernel applies nothing after a recorder error) and
// latches the read-only degradation. The kernel hands over the record it
// applies; the log copies it into its frame buffer before Append returns.
func (db *DB) recorder(log *wal.Log) func(wal.Record) error {
	return func(rec wal.Record) error {
		if err := db.writeGate(); err != nil {
			return err
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

// Close answers the appends already queued, then flushes and closes the
// WAL. The in-memory state stays usable for reads but further updates will
// fail.
func (db *DB) Close() error {
	// Stop the replica loop before taking db.mu: its apply goroutine may be
	// inside a DDL apply that needs db.mu, and it must quiesce before the
	// logs close underneath it.
	db.stopReplica()
	db.mu.Lock()
	defer db.mu.Unlock()
	db.eng.Close()
	if db.logs == nil {
		return nil
	}
	return db.closeLogs()
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

// Engine exposes the kernel. Its one remaining caller is the benchmark
// suite (benchmark/host.go:80, which reads a moving-window family's
// instances); ROADMAP item 4 moves that read to SQL, after which Engine is
// unexported. Every other read goes through Exec — a periodic family's
// instances through SELECT … FROM family [FOR INTERVAL start] — and this
// package's tests reach the kernel through an accessor of their own.
func (db *DB) Engine() *shard.Router { return db.eng }

// FeedStats snapshots the changefeed counters (zero value when feeds are
// disabled).
func (db *DB) FeedStats() feed.Stats {
	if db.hub == nil {
		return feed.Stats{}
	}
	return db.hub.Stats()
}

// Shards reports the shard count.
func (db *DB) Shards() int { return db.eng.NumShards() }

// Stats returns engine counters, summed across shards, plus the relation
// updates the router applies itself.
func (db *DB) Stats() engine.Stats { return db.eng.Counters().Stats }

// MaintenanceLatency returns the view maintenance latency distribution,
// one observation per append call, merged across shards.
func (db *DB) MaintenanceLatency() stats.Snapshot {
	c := db.eng.Counters()
	return c.Maintenance.Snapshot()
}

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

	// Storage gauges (zero without a Dir).
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
func (db *DB) WALStats() WALStats { return db.walStats(db.eng.Counters().Appends) }

// walStats reads the logs, the manifest and the block cache once; appends
// is the shard sum's append count, which the allocation gauge divides by.
func (db *DB) walStats(appends int64) WALStats {
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
	if db.opts.Dir != "" {
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
	w.Appends = appends - db.openAppends
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
// maintaining every affected persistent view before returning: one
// transaction, one WAL record (wal.RecAppend).
func (db *DB) Append(chronicleName string, tuples ...value.Tuple) (int64, error) {
	if err := db.writeGate(); err != nil {
		return 0, err
	}
	if err := db.roleGate(); err != nil {
		return 0, err
	}
	sn, _, _, err := db.appendCall(wal.RecAppend, chronicleName, tuples, "", "")
	if err == nil {
		db.ackWait()
	}
	return sn, err
}

// AppendRows bulk-ingests tuples into a chronicle in one call: each tuple is
// its own transaction, with its own sequence number, chronon and LSN, and the
// call is one WAL record (wal.RecAppendEach, its LSNs one consecutive span),
// one maintenance round and one publication — a query sees all of the call's
// rows or none. It returns the first and last sequence numbers assigned; on
// an error at tuple i the tuples before it stay applied (recorded, folded and
// published as one call of i rows) and their range is returned with the
// error.
func (db *DB) AppendRows(chronicleName string, tuples []value.Tuple) (first, last int64, err error) {
	if err := db.writeGate(); err != nil {
		return 0, 0, err
	}
	if err := db.roleGate(); err != nil {
		return 0, 0, err
	}
	first, last, _, err = db.appendCall(wal.RecAppendEach, chronicleName, tuples, "", "")
	if err == nil {
		db.ackWait()
	}
	return first, last, err
}

// AppendRowsIdem is AppendRows with exactly-once semantics: a request
// already applied under the same (clientID, requestID) — including in a
// previous process life — returns its original sequence-number range with
// deduped=true instead of re-applying. The call is atomic: its one WAL
// record carries the rows and the ids, so a crash mid-request leaves either
// the whole request durable, dedup entry included, or none of it, and a
// tuple that does not fit applies none. Its rows are stamped as AppendRows
// stamps them.
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
	first, last, deduped, err = db.appendCall(wal.RecAppendEach, chronicleName, tuples, clientID, requestID)
	if err == nil && !deduped {
		// A deduped retry's rows were acked (and, under sync mode, waited
		// on) by the original delivery — don't pay the follower round trip
		// twice.
		db.ackWait()
	}
	return first, last, deduped, err
}

// onePart lends a single-chronicle call the one-part array its record points
// at while the kernel applies it: a record the caller built on its stack
// would move to the heap, because the kernel keeps the record in a request
// other goroutines read. Copying the parts into that request would not save
// it: escape analysis does not tell a record's fields apart, and the ids the
// request keeps leak the whole record.
var onePart = sync.Pool{New: func() any { return new([1]wal.Part) }}

// appendCall runs one single-chronicle append call through the kernel.
func (db *DB) appendCall(kind wal.RecordKind, chronicleName string, tuples []value.Tuple, clientID, requestID string) (first, last int64, deduped bool, err error) {
	p := onePart.Get().(*[1]wal.Part)
	p[0] = wal.Part{Chronicle: chronicleName, Tuples: tuples}
	first, last, deduped, err = db.eng.Append(wal.Record{Kind: kind, Parts: p[:], ClientID: clientID, RequestID: requestID})
	p[0] = wal.Part{}
	onePart.Put(p)
	return first, last, deduped, err
}

// DedupStats reports the idempotency table's observability counters,
// summed across shards.
func (db *DB) DedupStats() (entries int, hits int64, evictions int64) {
	c := db.eng.Counters()
	return c.DedupEntries, c.DedupHits, c.DedupEvictions
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
	v, err := db.viewNamed(viewName)
	if err != nil {
		return nil, false, err
	}
	row, ok := db.eng.ViewLookup(v, value.Tuple(key))
	return row, ok, nil
}

// LookupRange returns the view rows whose group key is ≥ lo and < hi under
// tuple comparison (lo and hi may be key prefixes; an empty lo starts at the
// first group, an empty hi runs past the last), in ascending key order: a
// lock-free walk of the view's key order, O(log |V| + answer), and on a
// paged view it faults only the blocks the range overlaps. The rows are
// caller-owned.
func (db *DB) LookupRange(viewName string, lo, hi Tuple) ([]Row, error) {
	return db.collectNamed(viewName, view.Window{Lo: keyenc.AppendTuple(nil, lo), Hi: keyenc.AppendTuple(nil, hi)})
}

// ScanView streams a view's rows in ascending group-key order until fn
// returns false, without materializing the result. Rows passed to fn are
// caller-owned.
func (db *DB) ScanView(viewName string, fn func(Row) bool) error {
	v, err := db.viewNamed(viewName)
	if err == nil {
		db.eng.ViewScan(v, view.Window{}, fn)
	}
	return err
}

// ScanViewDesc streams a view's rows in descending group-key order until
// fn returns false — walk from the top, stop early. Rows passed to fn are
// caller-owned.
func (db *DB) ScanViewDesc(viewName string, fn func(Row) bool) error {
	v, err := db.viewNamed(viewName)
	if err == nil {
		db.eng.ViewScan(v, view.Window{Desc: true}, fn)
	}
	return err
}

// LatestViewRows returns the view's last n rows by group key, highest key
// first — the "latest N groups" query, answered by a descending walk of the
// key order that stops after n rows instead of materializing the view; on a paged
// view it faults the blocks that hold those n rows and no other.
func (db *DB) LatestViewRows(viewName string, n int) ([]Row, error) {
	if n <= 0 {
		return nil, nil
	}
	return db.collectNamed(viewName, view.Window{Desc: true, Limit: n})
}

// viewNamed finds the persistent view a read method names.
func (db *DB) viewNamed(name string) (*view.View, error) {
	if v, ok := db.eng.View(name); ok {
		return v, nil
	}
	return nil, fmt.Errorf("chronicledb: unknown view %q", name)
}

// collectNamed materializes one window of the view a read method names.
func (db *DB) collectNamed(viewName string, w view.Window) ([]Row, error) {
	v, err := db.viewNamed(viewName)
	if err != nil {
		return nil, err
	}
	return db.collect(v, w), nil
}

// collect materializes one window of a view.
func (db *DB) collect(v *view.View, w view.Window) []Row {
	var out []Row
	db.eng.ViewScan(v, w, func(t Row) bool {
		out = append(out, t)
		return true
	})
	return out
}

// ReadStats is the read-path counters and latency distribution.
type ReadStats struct {
	Lookups int64
	Scans   int64
	Latency stats.Snapshot
}

// ReadStats reports read traffic: lookup and scan counts plus the
// end-to-end read latency distribution, merged across shards.
func (db *DB) ReadStats() ReadStats {
	c := db.eng.Counters()
	return ReadStats{Lookups: c.Lookups, Scans: c.Scans, Latency: c.Read.Snapshot()}
}

// ViewMaintStat attributes maintenance cost to one persistent view. Views
// that share a table (view.Join) are folded once for all of them, and each
// reports that work: the table's.
type ViewMaintStat struct {
	Name      string
	Applies   int64 // maintenance invocations
	DeltaRows int64 // expression delta rows folded in
	ApplyNs   int64 // wall time inside ApplyRows (the fold)
}

// MaintAttribution returns the k slowest persistent views by accumulated
// apply time — where per-append maintenance cost actually goes. k ≤ 0
// returns all views. Ties and ordering are by ApplyNs descending, then
// name, so repeated calls are stable.
func (db *DB) MaintAttribution(k int) []ViewMaintStat {
	names := db.eng.Names(shard.Views)
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
