package bench

import (
	"fmt"

	chronicledb "chronicledb"
)

// RunE13 — the paper's operational thesis, end to end: "the transaction
// rate that can be supported by a chronicle system is determined by the
// complexity of incremental maintenance of its persistent views"
// (Section 3). The full engine path (append → WAL-less record → dispatch →
// delta → maintain) is driven under sustained load and the per-append
// maintenance latency distribution is reported: IM-Constant view sets keep
// the tail flat; the dispatch index keeps fan-out cost off the append path
// (E7 measures the index against the linear §5.2 baseline directly).
func RunE13(cfg Config) (*Table, error) {
	appends := 50_000
	if cfg.Quick {
		appends = 5_000
	}
	t := &Table{
		ID:     "E13",
		Title:  "end-to-end maintenance latency distribution (full engine path)",
		Claim:  "SCA1 maintenance keeps a flat tail regardless of history; dispatch indexing removes per-view overhead (Secs. 3, 5.2)",
		Header: []string{"configuration", "p50", "p95", "p99", "max"},
	}

	run := func(label string, views int, filtered bool) error {
		db, err := chronicledb.Open(chronicledb.Options{})
		if err != nil {
			return err
		}
		defer db.Close()
		if _, err := db.Exec(`CREATE CHRONICLE calls (acct STRING, minutes INT)`); err != nil {
			return err
		}
		for i := 0; i < views; i++ {
			var stmt string
			if filtered {
				// Per-account views: each append affects exactly one.
				stmt = fmt.Sprintf(`CREATE VIEW v%d AS SELECT acct, SUM(minutes) AS m
					FROM calls WHERE acct = '%s' GROUP BY acct`, i, Acct(i))
			} else {
				// Unfiltered views: each append maintains all of them.
				stmt = fmt.Sprintf(`CREATE VIEW v%d AS SELECT acct, SUM(minutes) AS m
					FROM calls GROUP BY acct`, i)
			}
			if _, err := db.Exec(stmt); err != nil {
				return err
			}
		}
		for i := 0; i < appends; i++ {
			if _, err := db.Append("calls", chronicledb.Tuple{
				chronicledb.Str(Acct(i % 64)), chronicledb.Int(int64(i % 90)),
			}); err != nil {
				return err
			}
		}
		lat := db.MaintenanceLatency()
		t.AddRow(label, fmt.Sprint(lat.P50), fmt.Sprint(lat.P95), fmt.Sprint(lat.P99), fmt.Sprint(lat.Max))
		return nil
	}

	if err := run("1 unfiltered SCA1 view", 1, false); err != nil {
		return nil, err
	}
	if err := run("16 unfiltered SCA1 views", 16, false); err != nil {
		return nil, err
	}
	if err := run("64 per-account views, indexed dispatch", 64, true); err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"per-account views with the predicate index cost like a single view; the linear-dispatch row is recorded in EXPERIMENTS.md (E7 measures the same ablation live)")
	return t, nil
}
