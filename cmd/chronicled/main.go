// Command chronicled serves a chronicle database over HTTP.
//
// Usage:
//
//	chronicled [-addr :7457] [-dir /var/lib/chronicledb] [-sync]
//	           [-retain all|none|N] [-checkpoint-every 1m] [-shards N]
//	           [-wal-segment-bytes N] [-checkpoint-full-every N]
//	           [-request-timeout 30s] [-max-body 8388608] [-drain-timeout 10s]
//	           [-max-inflight N] [-max-queue N] [-retry-after 1s]
//	           [-dedup-cap N]
//	           [-feed] [-feed-tail N] [-max-subscribers N] [-heartbeat 10s]
//	           [-view-cache-bytes N] [-view-block-bytes N]
//	           [-replica-of URL] [-follower-id ID] [-ack async|sync]
//	           [-ack-timeout 2s] [-max-staleness D] [-repl-heartbeat 500ms]
//
// With -dir, the database is durable: appends hit a rotated, size-capped
// WAL (segment cap -wal-segment-bytes, default 16 MiB) and the
// -checkpoint-every ticker cuts
// incremental checkpoints, so recovery time and disk footprint are bounded
// by write rate since the last checkpoint, not by uptime. Each checkpoint
// also compacts: sealed segments wholly below the checkpoint LSN are
// deleted. Without -dir, the database is in-memory.
//
// With -replica-of, the process starts as a read-only follower of the
// named primary: it streams committed WAL frames, applies them through
// the recovery path, serves reads and /watch with an advertised staleness
// bound (-max-staleness turns lag past the bound into 503s), and becomes
// a writable primary on POST /promote. On a primary, -ack sync holds each
// append ack until some follower confirms the LSN durable (bounded by
// -ack-timeout, after which the write acks anyway and the degraded-ack
// counter ticks).
//
// On SIGINT/SIGTERM the server shuts down gracefully: it stops accepting,
// drains in-flight requests (bounded by -drain-timeout), flushes and syncs
// the WAL, and — in durable mode — cuts a final checkpoint so the next
// start replays an empty log tail.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"syscall"
	"time"

	chronicledb "chronicledb"
	"chronicledb/internal/server"
)

func main() {
	var (
		addr       = flag.String("addr", ":7457", "listen address")
		dir        = flag.String("dir", "", "data directory (empty = in-memory)")
		sync       = flag.Bool("sync", false, "durable WAL: group-commit fsync acks every append")
		retain     = flag.String("retain", "none", "default chronicle retention: all, none, or a row count")
		ckptEvery  = flag.Duration("checkpoint-every", time.Minute, "checkpoint interval (0 disables; durable mode only)")
		segBytes   = flag.Int64("wal-segment-bytes", 0, "WAL segment rotation cap in bytes (0 = default 16MiB)")
		ckptFull   = flag.Int("checkpoint-full-every", 0, "fold the incremental chain into a full checkpoint every N checkpoints (0 = default 8)")
		initFile   = flag.String("init", "", "SQL file executed at startup (idempotence is the caller's concern)")
		shards     = flag.Int("shards", runtime.GOMAXPROCS(0), "single-writer shards (0 = 1)")
		reqTimeout = flag.Duration("request-timeout", 30*time.Second, "per-request handling timeout")
		maxBody    = flag.Int64("max-body", 8<<20, "maximum request body bytes")
		drain      = flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown drain bound")
		maxInFl    = flag.Int("max-inflight", 0, "concurrent writes admitted before queueing (0 = default 64)")
		maxQueue   = flag.Int("max-queue", 0, "writes queued beyond in-flight before 429 shedding (0 = default 128)")
		retryAfter = flag.Duration("retry-after", 0, "Retry-After hint on shed requests (0 = default 1s)")
		dedupCap   = flag.Int("dedup-cap", 0, "idempotency dedup entries retained per shard (0 = default 65536)")
		cacheBytes = flag.Int64("view-cache-bytes", 0, "resident-byte budget for blocked view stores (0 = unbounded; durable mode only)")
		blockBytes = flag.Int64("view-block-bytes", 0, "blocked view store block size in bytes (0 = default 8KiB; durable mode only)")
		feed       = flag.Bool("feed", true, "changefeeds: capture view deltas for /watch subscribers")
		feedTail   = flag.Int("feed-tail", 0, "per-view resume window in deltas, one per LSN (0 = default 1024)")
		maxSubs    = flag.Int("max-subscribers", 0, "concurrent /watch subscribers before 429 shedding (0 = default 4096)")
		heartbeat  = flag.Duration("heartbeat", 0, "keep-alive cadence on idle /watch streams (0 = default 10s)")
		replicaOf  = flag.String("replica-of", "", "primary base URL; start as a read-only follower (e.g. http://primary:7457)")
		followerID = flag.String("follower-id", "", "stable follower identity for ack tracking (default: generated)")
		ackMode    = flag.String("ack", "async", "replication ack mode on the primary: async or sync")
		ackTimeout = flag.Duration("ack-timeout", 0, "sync-ack wait bound before degrading to async (0 = default 2s)")
		maxStale   = flag.Duration("max-staleness", 0, "advertised replica staleness bound; reads past it answer 503 (0 = never stale)")
		replHB     = flag.Duration("repl-heartbeat", 0, "cursor heartbeat cadence on idle /repl/stream connections (0 = default 500ms)")
	)
	flag.Parse()

	retention, err := parseRetention(*retain)
	if err != nil {
		log.Fatal(err)
	}
	db, err := chronicledb.Open(chronicledb.Options{
		Dir:                 *dir,
		SyncWAL:             *sync,
		Shards:              *shards,
		DefaultRetention:    retention,
		WALSegmentBytes:     *segBytes,
		CheckpointFullEvery: *ckptFull,
		DedupCap:            *dedupCap,
		Feed:                *feed,
		FeedTailFrames:      *feedTail,
		ViewCacheBytes:      *cacheBytes,
		ViewBlockBytes:      *blockBytes,
		ReplicaOf:           *replicaOf,
		FollowerID:          *followerID,
		AckMode:             *ackMode,
		SyncAckTimeout:      *ackTimeout,
		MaxStaleness:        *maxStale,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	if *initFile != "" {
		src, err := os.ReadFile(*initFile)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := db.Exec(string(src)); err != nil {
			log.Fatalf("init script: %v", err)
		}
		log.Printf("executed init script %s", *initFile)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *dir != "" && *ckptEvery > 0 {
		go func() {
			t := time.NewTicker(*ckptEvery)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					if err := db.Checkpoint(); err != nil {
						log.Printf("checkpoint: %v", err)
					}
				}
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("chronicled listening on %s (dir=%q retain=%s shards=%d role=%s)", *addr, *dir, *retain, *shards, db.Role())
	srv := server.NewWith(db, server.Config{
		MaxBodyBytes:   *maxBody,
		RequestTimeout: *reqTimeout,
		MaxInFlight:    *maxInFl,
		MaxQueue:       *maxQueue,
		RetryAfter:     *retryAfter,
		MaxSubscribers: *maxSubs,
		Heartbeat:      *heartbeat,
		ReplHeartbeat:  *replHB,
	})
	err = server.Serve(ctx, ln, srv, *reqTimeout, *drain)
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	log.Printf("chronicled: drained, WAL flushed")
	if *dir != "" {
		// Final checkpoint: best-effort (a degraded DB refuses it), but on a
		// healthy exit the next start replays an empty tail.
		if err := db.Checkpoint(); err != nil {
			log.Printf("final checkpoint: %v", err)
		}
	}
}

func parseRetention(s string) (chronicledb.Retention, error) {
	switch s {
	case "all":
		return chronicledb.RetainAll, nil
	case "none":
		return chronicledb.RetainNone, nil
	default:
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil || n < 0 {
			return 0, fmt.Errorf("chronicled: -retain must be all, none, or a non-negative count")
		}
		return chronicledb.Retention(n), nil
	}
}
