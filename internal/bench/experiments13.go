package bench

import (
	"fmt"

	chronicledb "chronicledb"
)

// RunE22 — shared-delta maintenance: CSE across view expressions. With V views registered over one chronicle, the
// classic pipeline evaluates V expression trees per append; when the views
// share structure (the common case: dashboards define many summaries over
// the same filtered stream), that work is duplicated. The shared plan
// hash-conses σ/Π/join prefixes at DDL time into a DAG, computes each
// distinct node's delta once per maintenance batch, and fans the rows out —
// so delta computation scales with *distinct* subexpressions while only the
// unavoidable per-view fold stays linear in V.
//
// The sweep runs V for two shapes with identical fold work (every probe
// row passes every filter): "shared" gives all V views one σ prefix (one
// plan node serves everyone), "duplicated" gives each view its own constant
// (V σ nodes, nothing shared above the scan leaf). The gap between the
// shapes is exactly the σ evaluation the DAG deduplicates; the hit ratio
// column checks the accounting identity hits = (V-1)·appends — every batch
// evaluates the shared prefix once and serves the other V-1 views from the
// batch cache.
//
// The 1-vs-4 fold-worker comparison this experiment used to carry is frozen
// in EXPERIMENTS.md: the worker pool lost on every measurement and is gone.
func RunE22(cfg Config) (*Table, error) {
	views := []int{1, 4, 16, 64, 256}
	warm, appends := 200, 2000
	if cfg.Quick {
		views = []int{1, 4, 16, 64}
		warm, appends = 50, 500
	}
	t := &Table{
		ID:     "E22",
		Title:  "shared-delta maintenance: CSE fan-out",
		Claim:  "hash-consing common view subexpressions makes per-batch delta computation scale with distinct plan nodes, not view count",
		Header: []string{"shape", "views", "maint/append", "hits/append", "hits/(V-1)·appends"},
	}
	for _, shape := range []string{"shared", "duplicated"} {
		for _, V := range views {
			// Best of 3 trials: single-µs per-append cells on a busy host carry
			// scheduler and GC noise that would swamp the shape gap.
			r, err := e22Best(shape, V, warm, appends, 3)
			if err != nil {
				return nil, err
			}
			ratio := "—"
			if V > 1 {
				ratio = fmt.Sprintf("%.2f", float64(r.hits)/float64((V-1)*appends))
			}
			t.AddRow(shape, fmt.Sprintf("%d", V), fmtNs(r.maintNs/float64(appends)),
				fmt.Sprintf("%.1f", float64(r.hits)/float64(appends)), ratio)
		}
	}
	t.Notes = append(t.Notes,
		"both shapes fold identical rows into identical view states (the probe row passes every filter); the shapes differ only in how much σ evaluation the shared plan can deduplicate",
		"the duplicated shape still shares the scan leaf, so its hit counter also reads V-1 per append — the ns column, not the hit count, is where the shapes separate",
		"the per-view fold (one hash-store upsert per view per append) is inherently linear in V; the sharing claim is about the delta-computation term above it")
	return t, nil
}

// e22Best runs e22Fanout `trials` times and keeps the fastest run (hits are
// deterministic and identical across trials).
func e22Best(shape string, V, warm, appends, trials int) (e22Result, error) {
	var best e22Result
	for i := 0; i < trials; i++ {
		r, err := e22Fanout(shape, V, warm, appends)
		if err != nil {
			return e22Result{}, err
		}
		if i == 0 {
			best = r
			continue
		}
		best.maintNs = min(best.maintNs, r.maintNs)
	}
	return best, nil
}

type e22Result struct {
	maintNs float64 // engine-attributed maintenance time over the measured appends
	hits    int64   // shared-plan cache hits over the measured appends
}

// e22Fanout builds an in-memory DB with V summary views over one chronicle
// and measures per-append maintenance over a steady-state run. The σ prefix
// is a 6-atom conjunction so predicate evaluation is a visible fraction of
// maintenance; "shared" interns it into one plan node, "duplicated" varies
// the last constant per view so each view owns its σ.
func e22Fanout(shape string, V, warm, appends int) (e22Result, error) {
	db, err := chronicledb.Open(chronicledb.Options{})
	if err != nil {
		return e22Result{}, err
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE CHRONICLE calls (acct STRING, minutes INT)`); err != nil {
		return e22Result{}, err
	}
	for i := 0; i < V; i++ {
		last := 0
		if shape == "duplicated" {
			last = i // distinct constant → distinct σ fingerprint per view
		}
		stmt := fmt.Sprintf(`CREATE VIEW v%d AS SELECT acct, SUM(minutes) AS m FROM calls
			WHERE minutes >= 0 AND minutes <= 1000000 AND minutes >= 1 AND minutes <= 999999
			AND minutes >= 2 AND minutes >= %d GROUP BY acct`, i, last)
		if _, err := db.Exec(stmt); err != nil {
			return e22Result{}, err
		}
	}
	// minutes = 1000 passes every atom of every view in both shapes (the
	// duplicated constants top out at V-1 ≤ 255), so fold work is identical.
	tuple := chronicledb.Tuple{chronicledb.Str("acct-fan"), chronicledb.Int(1000)}
	for i := 0; i < warm; i++ {
		if _, err := db.Append("calls", tuple); err != nil {
			return e22Result{}, err
		}
	}
	st0 := db.Stats()
	for i := 0; i < appends; i++ {
		if _, err := db.Append("calls", tuple); err != nil {
			return e22Result{}, err
		}
	}
	st1 := db.Stats()
	return e22Result{
		maintNs: float64(st1.MaintenanceNs - st0.MaintenanceNs),
		hits:    st1.SharedHits - st0.SharedHits,
	}, nil
}
