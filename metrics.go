package chronicledb

import (
	"fmt"
	"sort"

	"chronicledb/internal/value"
)

// Metric is one named statistic. Metrics declares each statistic the
// database keeps exactly once, and SHOW STATS, GET /stats and GET /healthz
// all render that one list.
type Metric struct {
	Name string
	// Unit is what one count of Value is, with its unit of observation where
	// it has one: "ns/call" is nanoseconds with one observation per append
	// call, "views/call" counts one per affected view per call, "rows" one
	// per appended row.
	Unit string
	Help string
	// Health marks the entries GET /healthz reports beside its status.
	Health bool
	// Value is an int64, float64, bool or string.
	Value any
}

// Metrics reads every statistic from one gather — one pass over the shard
// engines, one read of the WAL logs, manifest and block cache, one of the
// changefeed hub and one of the replication state — in that fixed order.
// Some entries exist only in some states: read_only_cause on a read-only
// database, replica_* on a follower, repl_* where a replication source runs
// (every durable database).
func (db *DB) Metrics() []Metric {
	c := db.eng.Counters()
	maint, read := c.Maintenance.Snapshot(), c.Read.Snapshot()
	ms := []Metric{
		{"shards", "count", "single-writer shards the chronicle groups are hash-partitioned across", false, int64(db.Shards())},
		{"appends", "rows", "append transactions: each row of an append call is its own, with its own SN", false, c.Appends},
		{"tuples_appended", "rows", "tuples appended", false, c.TuplesAppended},
		{"relation_updates", "updates", "relation upserts and deletes", false, c.RelationUpdates},
		{"views_maintained", "views/call", "view maintenance visits, one per affected view per append call", false, c.ViewsMaintained},
		{"maintenance_ns", "ns", "time spent maintaining and publishing views", false, c.MaintenanceNs},
		{"maintenance_p50_ns", "ns/call", "median view maintenance time of an append call: the view language's IM class, operationally", false, int64(maint.P50)},
		{"maintenance_p99_ns", "ns/call", "99th-percentile view maintenance time of an append call", false, int64(maint.P99)},
		{"maintenance_max_ns", "ns/call", "longest view maintenance time of an append call", false, int64(maint.Max)},
		{"maint_shared_hits", "nodes/call", "plan-node deltas served from the shared plan's per-call cache", false, c.SharedHits},
		{"read_lookups", "requests", "point lookups served off published view entries", false, c.Lookups},
		{"read_scans", "requests", "scans served off published view entries", false, c.Scans},
		{"read_p50_ns", "ns/request", "median latency of a lookup or scan", false, int64(read.P50)},
		{"read_p99_ns", "ns/request", "99th-percentile latency of a lookup or scan", false, int64(read.P99)},
		{"read_max_ns", "ns/request", "longest lookup or scan", false, int64(read.Max)},
		{"dedup_entries", "entries", "idempotency entries held", false, int64(c.DedupEntries)},
		{"dedup_hits", "requests", "idempotent appends answered with their original ack", false, c.DedupHits},
		{"dedup_evictions", "entries", "idempotency entries pushed out by the capacity bound", false, c.DedupEvictions},
		{"view_dir_keys", "keys", "group keys held by the key directories of views and of periodic families that keep their instances: each once, however many share its directory", false, c.DirKeys},
	}
	for i, v := range db.MaintAttribution(5) {
		ms = append(ms, Metric{fmt.Sprintf("maint_top_%d", i+1), "text", "the i-th slowest view by accumulated fold time", false,
			fmt.Sprintf("%s apply_ns=%d delta_rows=%d applies=%d", v.Name, v.ApplyNs, v.DeltaRows, v.Applies)})
	}
	ro, cause := db.ReadOnly()
	ms = append(ms, Metric{"read_only", "bool", "writes are refused after a WAL failure", false, ro})
	if cause != nil {
		ms = append(ms, Metric{"read_only_cause", "text", "the WAL failure that made the database read-only", false, cause.Error()})
	}

	w := db.walStats(c.Appends)
	ms = append(ms, []Metric{
		{"allocs_per_append", "allocs/row", "process mallocs per appended row since Open, all goroutines: a trend line, TestAllocGuards holds the exact counts", false, w.AllocsPerOp},
		{"wal_records", "records", "WAL records appended since Open", false, w.Records},
		{"wal_fsyncs", "fsyncs", "WAL fsyncs since Open; fewer than wal_records under group commit", false, w.Fsyncs},
		{"fsyncs_per_sec", "fsyncs/s", "fsync rate since Open", false, w.FsyncsPerSec},
		{"commit_batch_count", "fsyncs", "group commits observed", false, int64(w.Batches.Count)},
		{"commit_batch_mean", "records/fsync", "mean records acked per fsync (group-commit batch size)", false, float64(w.Batches.Mean)},
		{"commit_batch_p95", "records/fsync", "95th-percentile records acked per fsync", false, int64(w.Batches.P95)},
		{"commit_batch_max", "records/fsync", "most records acked by one fsync", false, int64(w.Batches.Max)},
		{"wal_segments", "segments", "live WAL segment files, all streams", false, int64(w.Segments)},
		{"wal_sealed_segments", "segments", "live segments whose rotation completed", false, int64(w.SealedSegments)},
		{"wal_segment_cap", "bytes", "segment rotation threshold", false, w.SegmentCap},
		{"wal_live_bytes", "bytes", "WAL bytes recovery would read: rising with a still last_checkpoint_lsn means the checkpointer stalled", true, w.LiveBytes},
		{"wal_rotations", "rotations", "segment rotations since Open", false, w.Rotations},
		{"wal_reclaimed_bytes", "bytes", "sealed bytes the compactor deleted since Open", false, w.ReclaimedBytes},
		{"wal_segments_reclaimed", "segments", "segments the compactor deleted since Open", false, w.SegmentsReclaimed},
		{"checkpoint_chain_len", "checkpoints", "images in the checkpoint chain", false, int64(w.Checkpoints)},
		{"checkpoint_full_total", "checkpoints", "full images written since Open", false, w.CheckpointsFull},
		{"checkpoint_incremental_total", "checkpoints", "incremental images written since Open", false, w.CheckpointsIncremental},
		{"checkpoints_folded", "checkpoints", "chain entries superseded by folds since Open", false, w.CheckpointsFolded},
		{"last_checkpoint_lsn", "lsn", "LSN of the chain tip: replay skips what it covers", true, int64(w.LastCheckpointLSN)},
		{"view_cache_enabled", "bool", "views page blocks against the block cache (a durable database)", false, w.ViewCacheEnabled},
		{"view_cache_hits", "blocks", "paged reads served from resident blocks", false, w.ViewCacheHits},
		{"view_cache_misses", "blocks", "block faults from the checkpoint chain", false, w.ViewCacheMisses},
		{"view_cache_evictions", "blocks", "blocks evicted by the CLOCK sweep", false, w.ViewCacheEvictions},
		{"view_cache_bytes", "bytes", "view state resident in memory: alarm if it nears the budget with a rising miss rate", true, w.ViewCacheBytes},
		{"view_cache_budget", "bytes", "resident-byte budget (0: unbounded)", false, w.ViewCacheBudget},
		{"ckpt_dirty_blocks", "blocks", "blocks the last checkpoint re-serialized", true, w.CkptDirtyBlocks},
		{"ckpt_total_blocks", "blocks", "blocks across paged views at the last checkpoint", true, w.CkptTotalBlocks},
	}...)

	f := db.FeedStats()
	ms = append(ms, []Metric{
		{"feed_subscribers", "subscribers", "live changefeed subscriptions", true, f.Subscribers},
		{"feed_subscribed_total", "subscribers", "subscriptions ever registered", false, int64(f.SubscribedTotal)},
		{"feed_published", "deltas", "deltas published, one per view per LSN", false, int64(f.Published)},
		{"feed_rows_published", "rows", "delta rows across the published frames", false, int64(f.RowsPublished)},
		{"feed_dropped_slow", "subscribers", "subscribers shed for falling behind their ring", false, int64(f.DroppedSlow)},
		{"feed_catchups_tail", "subscribers", "resumes served from the in-memory tail", false, int64(f.CatchupsTail)},
		{"feed_catchups_snapshot", "subscribers", "resumes that needed a snapshot read", false, int64(f.CatchupsSnapshot)},
		{"feed_evicted", "deltas", "deltas evicted from the tails as the resume horizon advanced", false, int64(f.Evicted)},
		{"role", "text", "primary or replica", true, db.Role()},
		{"degraded_acks", "requests", "sync-mode writes acked without a follower ack (timeout or no follower)", false, db.DegradedAcks()},
	}...)
	if st, ok := db.ReplState(); ok {
		lagLSN, lagAge := replLag(st)
		ms = append(ms, []Metric{
			{"replica_lag_lsn", "lsn", "LSNs this follower trails the primary's advertised cursor by", true, int64(lagLSN)},
			{"replica_lag_ns", "ns", "time since this follower last saw itself caught up", true, int64(lagAge)},
			{"replica_applied_lsn", "lsn", "last LSN applied", true, int64(st.AppliedLSN)},
			{"replica_primary_lsn", "lsn", "the primary's advertised durable cursor", false, int64(st.PrimaryLSN)},
			{"replica_connected", "bool", "the replication stream is connected", true, st.Connected},
			{"replica_resyncs", "resyncs", "full-snapshot resyncs", false, st.Resyncs},
			{"replica_frames_applied", "frames", "stream frames applied", false, st.FramesApplied},
			{"replica_stale", "bool", "reads are refused: the lag exceeds MaxStaleness", false, db.Stale()},
		}...)
	}
	if src := db.ReplSource(); src != nil {
		rs := src.Stats()
		ms = append(ms, []Metric{
			{"repl_cursor", "lsn", "durable LSN released to the stream", false, int64(rs.Cursor)},
			{"repl_frames_staged", "frames", "frames staged for release", false, rs.Staged},
			{"repl_frames_emitted", "frames", "frames released to the followers", false, rs.Emitted},
			{"repl_overflows", "overflows", "follower buffer overflows", false, rs.Overflows},
			{"repl_followers", "followers", "followers attached", false, int64(rs.Followers)},
		}...)
		acks := src.Followers()
		sort.Slice(acks, func(i, j int) bool { return acks[i].ID < acks[j].ID })
		for _, a := range acks {
			ms = append(ms, Metric{fmt.Sprintf("repl_follower_%s_acked_lsn", a.ID), "lsn", "highest LSN this follower has acknowledged", false, int64(a.AckedLSN)})
		}
	}
	return ms
}

// sqlValue types a metric's value for SHOW STATS.
func (m Metric) sqlValue() value.Value {
	switch v := m.Value.(type) {
	case int64:
		return value.Int(v)
	case float64:
		return value.Float(v)
	case bool:
		return value.Bool(v)
	}
	return value.Str(fmt.Sprint(m.Value))
}
