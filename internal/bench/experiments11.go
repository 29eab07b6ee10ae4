package bench

import (
	"fmt"
	"os"
	"time"

	chronicledb "chronicledb"
)

// RunE20 — recovery time and disk footprint vs uptime. A WAL that is never
// checkpointed couples both to the age of the database: everything since
// the last checkpoint replays on reopen. A full checkpoint serializes the
// entire engine state, so running one often enough to bound recovery costs
// state-size work per interval. Size-capped segments with incremental
// checkpoints break the coupling twice over: checkpoints write only the stores dirtied since
// the previous one (plus a chain entry), and the compactor deletes
// sealed segments wholly below the checkpoint LSN — so both the reopen
// replay and the on-disk footprint are bounded by the write rate within
// one checkpoint interval, flat in total uptime.
//
// Three modes, total appends n standing in for uptime:
//
//   - one-checkpoint: one checkpoint early on and none after, so nothing is
//     ever compacted — the grow-forever baseline; recovery and disk scale
//     with n.
//   - full-periodic:  a full checkpoint every interval
//     (CheckpointFullEvery: 1) — recovery flattens, but each checkpoint
//     rewrites the whole state, so cumulative checkpoint time scales with
//     n x state size.
//   - segmented:      an incremental checkpoint every interval, folded
//     every 8 — recovery, disk, and per-interval checkpoint cost all flat
//     in n.
//
// All three run the same segment cap with compaction on. (Through PR 15 the
// two baselines ran a single-file WAL layout since removed; EXPERIMENTS.md
// keeps those rows.)
//
// The schema has one hot chronicle/view pair taking every measured append
// and four cold pairs written only during setup: the incremental
// checkpoints skip the cold stores entirely, which is where their
// per-interval cost advantage over the full dumps comes from.
func RunE20(cfg Config) (*Table, error) {
	sizes := []int{8_000, 16_000, 32_000}
	interval, coldRows := 2_000, 8_000
	// The segment cap sits well under one interval's WAL bytes so sealed
	// segments actually fall below the checkpoint LSN and compact; a cap
	// above the interval would leave every record in the active segment.
	segCap := int64(16 << 10)
	if cfg.Quick {
		sizes = []int{1_000, 2_000}
		interval, coldRows, segCap = 500, 1_000, 4<<10
	}
	t := &Table{
		ID:     "E20",
		Title:  "recovery and disk vs uptime: incremental checkpoints vs none and vs full ones",
		Claim:  "with rotated segments and incremental checkpoints, reopen time, disk footprint, and per-interval checkpoint cost are bounded by the write rate since the last checkpoint, not by uptime; checkpointing once, or always in full, ties at least one of them to total history",
		Header: []string{"mode", "appends", "ckpts", "ckpt total", "disk at close", "reopen"},
	}
	for _, mode := range []string{"one-checkpoint", "full-periodic", "segmented"} {
		for _, n := range sizes {
			r, err := e20Run(mode, n, interval, coldRows, segCap)
			if err != nil {
				return nil, err
			}
			t.AddRow(mode, fmtCount(n), fmt.Sprintf("%d", r.ckpts),
				fmtNs(r.ckptNs), fmtBytes(r.diskBytes), fmtNs(r.reopenNs))
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("checkpoint interval %s appends; %s segment cap and compaction on in every mode; segmented folds the chain every 8 checkpoints", fmtCount(interval), fmtBytes(segCap)),
		"disk at close sums every file in the data directory; one-checkpoint carries the whole post-checkpoint history in uncompacted segments",
		"cold stores (4 of 5 view/chronicle pairs) are untouched after setup, so incremental checkpoints skip them; full checkpoints rewrite them every interval")
	return t, nil
}

type e20Result struct {
	ckpts     int
	ckptNs    float64
	diskBytes int64
	reopenNs  float64
}

func e20Run(mode string, n, interval, coldRows int, segCap int64) (e20Result, error) {
	dir, err := os.MkdirTemp("", "chronbench-e20-")
	if err != nil {
		return e20Result{}, err
	}
	defer os.RemoveAll(dir)

	opts := chronicledb.Options{Dir: dir, WALSegmentBytes: segCap, CheckpointFullEvery: 8}
	if mode == "full-periodic" {
		opts.CheckpointFullEvery = 1
	}
	db, err := chronicledb.Open(opts)
	if err != nil {
		return e20Result{}, err
	}
	ddl := `CREATE CHRONICLE hot (acct STRING, minutes INT);
		CREATE VIEW hot_usage AS SELECT acct, SUM(minutes) AS total, COUNT(*) AS n FROM hot GROUP BY acct;`
	for c := 0; c < 4; c++ {
		ddl += fmt.Sprintf(`CREATE CHRONICLE cold%d (acct STRING, minutes INT);
			CREATE VIEW cold%d_usage AS SELECT acct, SUM(minutes) AS total FROM cold%d GROUP BY acct;`, c, c, c)
	}
	if _, err := db.Exec(ddl); err != nil {
		return e20Result{}, err
	}
	// Cold state: written once, never touched again — the part a full
	// checkpoint keeps re-serializing and an incremental one skips.
	for c := 0; c < 4; c++ {
		for i := 0; i < coldRows; i++ {
			if _, err := db.Append(fmt.Sprintf("cold%d", c), chronicledb.Tuple{
				chronicledb.Str(Acct(i)), chronicledb.Int(int64(i % 90)),
			}); err != nil {
				return e20Result{}, err
			}
		}
	}
	var res e20Result
	checkpoint := func() error {
		start := time.Now()
		if err := db.Checkpoint(); err != nil {
			return err
		}
		res.ckptNs += float64(time.Since(start).Nanoseconds())
		res.ckpts++
		return nil
	}
	if err := checkpoint(); err != nil { // baseline: cold state durable
		return e20Result{}, err
	}
	for i := 1; i <= n; i++ {
		if _, err := db.Append("hot", chronicledb.Tuple{
			chronicledb.Str(Acct(i % 512)), chronicledb.Int(int64(i % 90)),
		}); err != nil {
			return e20Result{}, err
		}
		if mode != "one-checkpoint" && i%interval == 0 {
			if err := checkpoint(); err != nil {
				return e20Result{}, err
			}
		}
	}
	if err := db.Close(); err != nil {
		return e20Result{}, err
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		return e20Result{}, err
	}
	for _, e := range entries {
		info, err := e.Info()
		if err == nil {
			res.diskBytes += info.Size()
		}
	}

	start := time.Now()
	db2, err := chronicledb.Open(opts)
	if err != nil {
		return e20Result{}, err
	}
	res.reopenNs = float64(time.Since(start).Nanoseconds())
	defer db2.Close()
	row, ok, err := db2.Lookup("hot_usage", chronicledb.Str(Acct(1)))
	if err != nil || !ok || row[2].AsInt() <= 0 {
		return e20Result{}, fmt.Errorf("E20 %s: recovered view wrong: %v %v %v", mode, row, ok, err)
	}
	row, ok, err = db2.Lookup("cold0_usage", chronicledb.Str(Acct(1)))
	if err != nil || !ok {
		return e20Result{}, fmt.Errorf("E20 %s: cold view lost: %v %v %v", mode, row, ok, err)
	}
	return res, nil
}

// fmtBytes renders a byte count with a friendly unit.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
