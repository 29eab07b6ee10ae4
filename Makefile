# chronicledb — build and verification targets

GO ?= go

.PHONY: all build test race vet check cover bench bench-allocs bench-reads bench-ckpt bench-maint prof-load maint-stress fuzz examples torture chaos repl-chaos watch-stress loc clean

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# vet fails on a file gofmt would change, naming it.
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then printf 'gofmt -l lists:\n%s\n' "$$out"; exit 1; fi

# torture enumerates every crash point of the scripted workload on the
# simulated disk (internal/fault) and verifies exact recovery, under the
# race detector; then it races DDL (create, drop, re-create under another
# definition) against checkpoints, twenty times, power-cutting and
# reopening after every round — a checkpoint that took its catalog prefix
# outside the DDL exclusion fails it. -count defeats test caching: the
# harness is the gate for durability changes and must actually run.
torture:
	$(GO) test -race -count=1 -run 'TestCrashTorture' -v .
	$(GO) test -race -count=20 -run 'TestDDLRacesCheckpoint' .

# chaos is the network-torture gate: concurrent retrying clients push
# idempotent appends through a fault-injecting transport and a chaos TCP
# proxy (dropped requests, responses lost after apply, duplicated
# deliveries, connections reset mid-body) across a mid-run power cut, and
# the harness asserts exactly-once totals — plus its at-least-once control
# (the idempotency pair stripped on the way in) over-applying by exactly the
# ambiguous-delivery count. -count=1 defeats caching: this is the gate for
# ingestion-reliability changes and must actually run.
chaos:
	$(GO) test -race -count=1 -run 'TestNetworkChaos' -v .

# repl-chaos is the replication failover gate: the E18 harness pointed at
# a sync-ack primary + follower pair — concurrent retrying clients through
# the chaos proxy and fault-injecting transport, a mid-run primary
# power-cut, POST /promote on the follower, proxy retarget — asserting the
# acked SN ranges tile exactly on the promoted database (zero lost, zero
# duplicated acks), plus the stream/bootstrap/sync-ack/staleness suite and
# the bootstrap's own: DDL after a checkpoint on a bootstrapped and a
# restarted follower, a chain folded while it streams, a power cut at every
# disk operation of a bootstrap, a follower without a directory, a
# bootstrap into a view cache a few blocks wide, and a follower of a
# two-shard primary under eight concurrent idempotent writers, which must
# reach the primary's LSN with every row at its SN, chronon and LSN.
# -count=1 defeats caching: this is the gate for replication changes and
# must actually run.
repl-chaos:
	$(GO) test -race -count=1 -run 'TestReplChaosFailover|TestReplBasic|TestReplSnapshotBootstrap|TestReplSyncAck|TestReplStaleReads|TestReplPromoteFailover|TestRetryable503Codes|TestRestoreAgainstCatalogPrefix|TestReplBootstrapWhileChainFolds|TestReplBootstrapPowerCut|TestReplFollowerWithoutDir|TestReplResyncLargerThanViewCache|TestReplConvergesUnderConcurrentCalls' -v .

# watch-stress is the changefeed fan-out gate: many SSE subscribers and
# concurrent appenders race under the race detector while every delivered
# stream must conserve the append total with strictly increasing LSNs,
# plus the network-chaos run that kills and resumes subscribers mid-stream
# across a power cut, and the resume test that restarts a watch from every
# LSN of one append call (a hub frame holds the whole call) and from both
# sides of the tail's horizon. -count=1 defeats caching: this is the gate for
# changefeed changes and must actually run.
watch-stress:
	$(GO) test -race -count=1 -run 'TestWatchStress|TestWatchNetworkChaos|TestWatchResumesInsideACall' -v .

# bench-allocs is the allocation-regression gate: the AllocsPerRun guards
# pin the hot path's steady-state allocation counts (zero for the micro
# paths, a small fixed budget end-to-end, with a periodic family or without,
# a few objects for a 64-row call into a key-join view, one per group for a
# 64-row call through a grouping on the sequencing attribute), and the append
# benchmarks print the allocs/op trend; the dedup guards pin that a Put of a
# new id into a full idempotency table and a Lookup allocate nothing; the
# feed-tail guard pins the live heap a changefeed's resume tails keep per
# delta when nobody watches (one packed frame per view per call); the layout
# test pins a value.Value at two words (16 bytes), since every tuple in flight
# is a slice of them. -count=1 defeats caching — the guards must run.
bench-allocs:
	$(GO) test -count=1 -run 'TestAllocGuards|TestReplAllocGuards|TestKeyJoinAllocGuard|TestGroupBySNAllocGuard|TestFeedTailBytes' -v .
	$(GO) test -count=1 -run 'TestTableAllocGuard|TestTableMemoryBound' -v ./internal/dedup
	$(GO) test -count=1 -run 'TestValueLayout' -v ./internal/value
	$(GO) test -run=NONE -bench 'BenchmarkAppendHotPath' -benchmem -benchtime 200x .

# bench-reads is the read-path regression gate: the alloc guards pin the
# lock-free lookup and latest-N allocation counts; the structural guard pins
# that a summary query by group key is an index look-up at any view size — on
# a paged view of 1 000 and of 20 000 groups SELECT … WHERE acct = 'k' is one
# probe, faults at most one block and allocates within one budget, and
# latest-20 faults at most two; the read hot-path benchmarks print ns/op for
# the lock-free walks and for the SQL point query and latest-20, resident
# and paged, at both sizes; the lock guards pin that every read shape and an
# append to another shard complete while a CREATE VIEW holds the DDL lock
# waiting for its home shard's engine, and while every shard's engine lock
# is held. -count=1 defeats caching — the guards must run.
bench-reads:
	$(GO) test -count=1 -run 'TestReadAllocGuards|TestPointSelectTouchesOneBlock' -v .
	$(GO) test -count=1 -run 'TestReadsDoNotWaitForDDL|TestReadsDoNotAcquireEngineLock' -v ./internal/shard
	$(GO) test -run=NONE -bench 'BenchmarkReadHotPath' -benchmem -benchtime 200x .

# bench-ckpt is the blocked-checkpoint regression gate: the structural
# guards pin that an incremental cut re-serializes the dirty block set,
# not the view (same dirty blocks at 4x the cardinality) and that paged
# hot-key lookups stay on the lock-free read path's allocation budget;
# the benchmark prints one incremental cut's wall time with its
# dirty/total block counts. -count=1 defeats caching — the guards must run.
bench-ckpt:
	$(GO) test -count=1 -run 'TestCheckpointBlockGuards' -v .
	$(GO) test -run=NONE -bench 'BenchmarkBlockedCheckpoint' -benchmem -benchtime 5x .

# maint-stress is the shared-delta pipeline gate: concurrent appenders
# race the per-view folds and WATCH subscribers with mid-run checkpoints,
# asserting per-view delta conservation and strictly increasing feed
# LSNs — a fold that dropped or duplicated a delta would break either. -count=1 defeats caching: this is
# the gate for maintenance-pipeline changes and must actually run.
maint-stress:
	$(GO) test -race -count=1 -run 'TestMaintParallelStress' -v .

# bench-maint is the maintenance fan-out regression gate: the alloc guard
# pins that appending with 64 views sharing one σ prefix stays on the
# single-view allocation budget (the shared-delta fan-out adds zero
# allocs/op) and that the shared plan's hit counter grows ≥ V-1 per
# batch; the structural guards pin that a 64-row call is one maintenance
# round — each view visited, folded and published exactly once, not once per
# row; the benchmark prints maint-ns/append across view counts
# for the shared vs duplicated shapes, B/op of a 64-row call against a
# 20 000-group view (a copy of an entry the store
# stopped recycling, or an existing key ordered again, would show there; the
# tree-call guard pins that call at 512 B and 2 objects), and the cost of a
# 1 000-row load call of new groups into 64 views (the suite's set-up shape;
# per-row rounds would show there). The load guard pins that call's
# allocation ceiling (a new group is carved, not allocated), the group-bytes
# guard pins the live heap a new group costs a view of one and of three
# aggregates, a DISTINCT view, views sharing one σ and its table, and a view
# made late beside them with a table of its own (a group is its key, its
# place in the key order, and its states), the relation- and
# dedup-bytes guards pin what a relation row (one string in a tree whose
# leaves in-order loads fill, loaded by UPSERT or restored from a checkpoint)
# and an idempotency entry (one ring record, its key's bytes and an index
# slot, in a part-full table and in a full one that keeps evicting) cost, the
# dedup reader test (ten runs under the race detector) races Lookup, Len and
# Range against Put, the hash-count guard prints what a call costs views
# sharing a key directory in hashes, probes and key comparisons per row and
# entry versions per group, the resolution guard pins that views of two table
# keys folded in interleaved order hash a call once a table key, the
# lock-free reader test races readers against a directory that
# doubles eleven times, its sibling twin (ten runs under the race detector)
# races readers of each of three members publishing at different points of one
# call, the order twin (ten runs under the race detector) races range, latest-N
# and whole walks and checkpoints of three such members, plain and paged,
# against a writer that grows the key order at random places, the
# late-member test pins that a view joining a populated directory holds none
# of its keys, the two shell tests (ten runs under the race detector) pin that
# a reader that never leaves strands carved shells in limbo only, whether the
# fold or a whole-image restore carved them, and the drop test drops one of six members and checks the
# others across a checkpoint, a reopen and a follower resync. For periodic
# families: the counted test pins that four families of one σ resolve each run
# of a call once a family, for both of its instances; the mixed-membership
# test checks a paged view and a family sharing a directory across a
# checkpoint, a power cut, a follower resync and a drop of either; the bound
# test pins that a family expiring its instances over changing keys holds the
# keys of its live instances only; and the resolution twin (ten runs under the
# race detector) pins that an instance folding two equally long runs of one
# call is handed each run's own resolution. For shared tables: the twin test
# pins that every view of a table equals its twin with a table of its own and
# its expression recomputed, across late members and a drop and re-create;
# and the reader test (ten runs under the
# race detector) races lookups, scans and latest-N on every view of a table
# against the one writer that publishes it and drops one of the views. For
# the shared plan: the counted guard pins that the n-th CREATE VIEW or
# CREATE PERIODIC VIEW keys its own expression's plan nodes and no other view's,
# for n up to 2 000, and that dropping every view empties the plan; and the
# reader test (ten runs under the race detector) races EXPLAIN VIEW, SHOW
# VIEWS and point SELECTs against CREATE/DROP churn and appends. For family
# reads: the reader test (ten runs under the race detector) races SELECTs of
# a tumbling and an overlapping family, by latest instance and FOR INTERVAL,
# against 16-row calls that bear and expire their instances. For panes:
# the whole-call test (ten runs under the race detector) races SELECTs of an
# overlapping family's open instances against 16-row calls that straddle a
# span boundary, so fold into two panes that publish one after the other,
# and pins that no read sees one pane of a call without the other; the
# overlap benchmark (E55) prints the µs per 16-row call into one family at
# 1, 2, 8 and 30 windows a chronon, and the pane groups each row costs the
# windows that close.
# -count=1 defeats caching — the guards must run.
bench-maint:
	$(GO) test -count=1 -run 'TestMaintAllocGuards|TestLoadAllocGuard|TestGroupBytesGuard|TestTreeCallBytesGuard|TestRelationBytesGuard|TestDedupBytesGuard|TestMaintPublishesOncePerCall|TestMaintFoldsOncePerCall|TestDirMembersSurviveADrop|TestFamilyRunResolvedOnce|TestFamilyAndViewShareADirectory|TestExpiringFamilyKeysStayBounded|TestSharedTableEqualsTwins|TestViewsOfOneKeyShareADirectory|TestDirResolvesOncePerTableKey' -v .
	$(GO) test -race -count=10 -run 'TestFamilyCallFoldEqualsRowFolds|TestSharedTableReadersLockFree|TestPlanReadersDuringDDL|TestFamilyReadersDuringMaintenance|TestFamilyReadsSeeWholeCalls' .
	$(GO) test -count=1 -run 'TestCreateViewKeysItsOwnNodes' -v ./internal/engine
	$(GO) test -race -count=10 -run 'TestTableConcurrentReaders' ./internal/dedup
	$(GO) test -count=1 -run 'TestHashStoreCounts|TestHashLockFreeThroughGrowth|TestDirMembersOfOtherKeys' -v ./internal/view
	$(GO) test -race -count=10 -run 'TestDirSiblingsLockFreeThroughGrowth|TestDirLateMember|TestDirOrderUnderReaders|TestHashShellsBoundedUnderPermanentReader|TestRestoredShellsUnderPermanentReader' ./internal/view
	$(GO) test -run=NONE -bench 'BenchmarkMaintainFanout' -benchmem -benchtime 50x .
	$(GO) test -run=NONE -bench 'BenchmarkFamilyOverlap' -benchtime 2000x .

# prof-load profiles the two shapes the suite's maintain-fanout workload is
# made of — the 1 000-row load call of new groups into 64 views and the
# four moving windows (set-up) and
# the 64-row call into a 20 000-group view (the
# timed phase's versioning side) — and prints where the time and the allocated bytes go, and for
# the load what the loaded views keep (in-use bytes: 20 000 groups in each of
# 64 views and the four windows' one pane, which their open instances read
# through), so the next performance or memory change sizes its claim from one
# command. Profiles and the test binary land in .prof/ (git-ignored). Not
# part of check.
PROF_DIR := .prof
prof-load:
	mkdir -p $(PROF_DIR)
	$(GO) test -c -o $(PROF_DIR)/chronicledb.test .
	for b in load1000 call64/groups=20000; do \
		n=$$(echo $$b | tr -c 'a-z0-9\n' '_'); \
		$(PROF_DIR)/chronicledb.test -test.run '^$$' -test.bench "BenchmarkMaintainFanout/$$b$$" -test.benchtime 200x -test.benchmem \
			-test.cpuprofile $(PROF_DIR)/$$n.cpu -test.memprofile $(PROF_DIR)/$$n.mem || exit 1; \
		$(GO) tool pprof -top -cum -nodecount 25 $(PROF_DIR)/chronicledb.test $(PROF_DIR)/$$n.cpu 2>/dev/null | sed -n '1,33p'; \
		$(GO) tool pprof -sample_index=alloc_space -top -cum -nodecount 25 $(PROF_DIR)/chronicledb.test $(PROF_DIR)/$$n.mem 2>/dev/null | sed -n '1,32p'; \
		if [ $$b = load1000 ]; then \
			$(GO) tool pprof -sample_index=inuse_space -top -nodecount 25 $(PROF_DIR)/chronicledb.test $(PROF_DIR)/$$n.mem 2>/dev/null | sed -n '1,32p'; \
		fi; \
	done

# check is the gate for every change: static analysis plus the full suite
# under the race detector (the kernel is concurrent by design),
# plus the crash-torture enumeration, the network-torture harness, the
# replication failover harness, the changefeed fan-out stress, the
# maintenance stress, and the allocation-regression guards for
# the append, read, and follower-apply hot paths, the blocked-checkpoint
# guards, and the shared-delta maintenance guards.
check: build vet race torture chaos repl-chaos watch-stress maint-stress bench-allocs bench-reads bench-ckpt bench-maint

cover:
	$(GO) test -cover ./...

bench:
	$(GO) test -bench=. -benchmem ./...

fuzz:
	$(GO) test -run=NONE -fuzz=FuzzParse -fuzztime=30s ./internal/sqlparse/
	$(GO) test -run=NONE -fuzz=FuzzDecodeValue -fuzztime=30s ./internal/value/
	$(GO) test -run=NONE -fuzz=FuzzDecodeTuple -fuzztime=30s ./internal/value/
	$(GO) test -run=NONE -fuzz=FuzzKeyenc -fuzztime=30s ./internal/keyenc/
	$(GO) test -run=NONE -fuzz=FuzzDecodeRecord -fuzztime=30s ./internal/wal/
	$(GO) test -run=NONE -fuzz=FuzzManifest -fuzztime=30s ./internal/wal/
	$(GO) test -run=NONE -fuzz='^FuzzBlock$$' -fuzztime=30s ./internal/view/
	$(GO) test -run=NONE -fuzz=FuzzBlockedImage -fuzztime=30s ./internal/view/
	$(GO) test -run=NONE -fuzz=FuzzReplFrame -fuzztime=30s ./internal/repl/
	$(GO) test -run=NONE -fuzz=FuzzDecodeStates -fuzztime=30s ./internal/aggregate/
	$(GO) test -run=NONE -fuzz=FuzzDedupSnapshot -fuzztime=30s ./internal/dedup/
	$(GO) test -run=NONE -fuzz=FuzzTypedEval -fuzztime=30s ./internal/pred/

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/frequentflyer
	$(GO) run ./examples/telecom
	$(GO) run ./examples/banking
	$(GO) run ./examples/stocktrading
	$(GO) run ./examples/eventmonitor
	$(GO) run ./examples/livewatch

# loc prints the size numbers ROADMAP tracks: non-test source lines outside
# benchmark/, test lines, Options fields, exported DB, shard.Router and
# engine.Engine methods (all three read from non-test files), chronicled
# flags, the non-test lines of internal/bench (the telecom workload), and the
# declared stats (one entry each in metrics.go, plus the server's own in
# internal/server/server.go).
loc:
	@printf 'non-test source lines (excluding benchmark/): '
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' -print0 | xargs -0 cat | wc -l
	@printf 'test lines: '
	@find . -name '*_test.go' ! -path './.bench_build/*' -print0 | xargs -0 cat | wc -l
	@printf 'Options fields: '
	@awk '/^type Options struct/{f=1;next} f&&/^}/{exit} f&&/^\t[A-Z][A-Za-z]* /{n++} END{print n}' db.go
	@printf 'exported DB methods: '
	@find . -maxdepth 1 -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | grep -c '^func (db \*DB) [A-Z]'
	@printf 'exported shard.Router methods: '
	@grep -c '^func (r \*Router) [A-Z]' internal/shard/router.go
	@printf 'exported engine.Engine methods: '
	@grep -c '^func (e \*Engine) [A-Z]' internal/engine/engine.go
	@printf 'chronicled flags: '
	@grep -c '= flag\.[A-Z][a-z0-9]*(' cmd/chronicled/main.go
	@printf 'internal/bench non-test lines: '
	@find internal/bench -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l
	@printf 'declared stats: '
	@cat metrics.go internal/server/server.go | grep -cE '^\s*\{"|Metric\{(fmt\.Sprintf\()?"|Metric\{Name: "'

clean:
	$(GO) clean ./...
