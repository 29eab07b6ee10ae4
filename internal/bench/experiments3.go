package bench

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	chronicledb "chronicledb"
	"chronicledb/internal/chronicle"
	"chronicledb/internal/tiers"
	"chronicledb/internal/value"
	"chronicledb/internal/view"
)

// RunE9 — Section 5.3: the telephone discount plan computed incrementally
// per record vs in batch at period end. The incremental tracker's result is
// current after every record; the batch result exists only once per period.
func RunE9(cfg Config) (*Table, error) {
	periods := []int{1_000, 10_000, 100_000}
	if cfg.Quick {
		periods = []int{1_000, 10_000}
	}
	sched, err := tiers.NewSchedule(tiers.AllUnits,
		tiers.Tier{Threshold: 10, Rate: 0.10},
		tiers.Tier{Threshold: 25, Rate: 0.20},
	)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "E9",
		Title:  "tiered discount plan: incremental per record vs batch at period end",
		Claim:  "batch results are out-of-date or inaccurate before period end; the incremental mapping is O(1)/record (Sec. 5.3)",
		Header: []string{"records/period", "incremental/record", "batch at period end", "divergence"},
	}
	for _, n := range periods {
		rng := rand.New(rand.NewSource(3))
		amounts := make([]float64, n)
		for i := range amounts {
			amounts[i] = float64(rng.Intn(500)) / 100
		}
		tr := tiers.NewTracker(sched)
		start := time.Now()
		for _, a := range amounts {
			tr.Add("k", a)
		}
		incrNs := float64(time.Since(start).Nanoseconds()) / float64(n)

		start = time.Now()
		batch := tiers.BatchCompute(sched, amounts)
		batchNs := float64(time.Since(start).Nanoseconds())

		diff := batch.Discount - tr.Current("k").Discount
		if diff < 0 {
			diff = -diff
		}
		t.AddRow(fmtCount(n), fmtNs(incrNs), fmtNs(batchNs), fmt.Sprintf("%.2g", diff))
	}
	t.Notes = append(t.Notes,
		"divergence is 0: the incremental mapping is exact at every prefix, so summary fields are never stale")
	return t, nil
}

// RunE10 — Theorem 4.4's O(t·log|V|) bound and the "modulo index look ups"
// caveat of Section 3: the B-tree store realizes the log|V| bound (and
// ordered scans); the hash store is the expected-O(1) fast path.
func RunE10(cfg Config) (*Table, error) {
	sizes := []int{1_000, 10_000, 100_000, 1_000_000}
	if cfg.Quick {
		sizes = []int{1_000, 10_000}
	}
	t := &Table{
		ID:     "E10",
		Title:  "view store ablation: per-append maintenance vs view size |V|",
		Claim:  "maintenance is O(t·log|V|) with an ordered index and O(t) expected with hashing; both independent of |C| (Thm 4.4)",
		Header: []string{"|V| groups", "hash store/append", "btree store/append"},
	}
	for _, size := range sizes {
		row := make([]string, 0, 3)
		row = append(row, fmtCount(size))
		for _, kind := range []view.StoreKind{view.StoreHash, view.StoreBTree} {
			w, err := NewTelecom(size, chronicle.RetainNone, false)
			if err != nil {
				return nil, err
			}
			v := MustView(w.UsageDef("usage"), kind)
			// Populate |V| groups directly: one synthesized row per account.
			for i := 0; i < size; i++ {
				v.ApplyRows([]chronicle.Row{{SN: int64(i), Vals: value.Tuple{
					value.Str(Acct(i)), value.Int(1), value.Float(0.1)}}})
			}
			v.Publish()
			probes := 5000
			start := time.Now()
			for i := 0; i < probes; i++ {
				d, _, err := w.NextCall()
				if err != nil {
					return nil, err
				}
				v.Apply(d)
			}
			row = append(row, fmtNs(float64(time.Since(start).Nanoseconds())/float64(probes)))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"the B-tree column grows ~log|V|; the hash column stays flat; neither depends on |C|")
	return t, nil
}

// RunE11 — Section 2.3 / Example 2.2: proactive updates and the implicit
// temporal join. Incremental maintenance under interleaved relation updates
// must agree exactly with the AsOf reference evaluation, and relation
// update cost must not depend on |C|.
func RunE11(cfg Config) (*Table, error) {
	sizes := []int{1_000, 10_000, 100_000}
	if cfg.Quick {
		sizes = []int{1_000, 10_000}
	}
	t := &Table{
		ID:     "E11",
		Title:  "proactive relation updates under a temporal-join view",
		Claim:  "proactive updates affect only later appends; views never need reprocessing (Sec. 2.3, Ex. 2.2)",
		Header: []string{"|C|", "update/op", "append/op", "divergent rows"},
	}
	for _, size := range sizes {
		w, err := NewTelecom(256, chronicle.RetainAll, true)
		if err != nil {
			return nil, err
		}
		if err := w.FillCustomers(256); err != nil {
			return nil, err
		}
		kd, err := w.KeyJoinDef("by_state")
		if err != nil {
			return nil, err
		}
		v := MustView(kd, view.StoreBTree)
		rng := rand.New(rand.NewSource(9))
		states := []string{"nj", "ny", "ca", "tx", "wa"}

		var updNs, appNs time.Duration
		updates, appends := 0, 0
		for i := 0; i < size; i++ {
			if rng.Intn(10) == 0 {
				acct := Acct(rng.Intn(256))
				tup := value.Tuple{value.Str(acct), value.Str(states[rng.Intn(len(states))]), value.Int(0)}
				start := time.Now()
				w.lsn++
				if err := w.Cust.Upsert(w.lsn, tup); err != nil {
					return nil, err
				}
				updNs += time.Since(start)
				updates++
				continue
			}
			start := time.Now()
			d, _, err := w.NextCall()
			if err != nil {
				return nil, err
			}
			v.Apply(d)
			appNs += time.Since(start)
			appends++
		}

		// Cross-check against the AsOf reference.
		want, err := v.Recompute()
		if err != nil {
			return nil, err
		}
		got := v.Rows()
		divergent := diffCount(got, want)
		t.AddRow(fmtCount(size),
			fmtNs(float64(updNs.Nanoseconds())/float64(updates)),
			fmtNs(float64(appNs.Nanoseconds())/float64(appends)),
			fmt.Sprint(divergent))
	}
	t.Notes = append(t.Notes,
		"divergent rows must be 0 at every size; update cost is flat (no chronicle reprocessing)")
	return t, nil
}

func diffCount(a, b []value.Tuple) int {
	counts := map[string]int{}
	for _, t := range a {
		counts[t.FullKey()]++
	}
	for _, t := range b {
		counts[t.FullKey()]--
	}
	n := 0
	for _, c := range counts {
		if c != 0 {
			n++
		}
	}
	return n
}

// RunE12 — recovery: a transaction-recording system must come back without
// reprocessing its history. Checkpoint + WAL-tail recovery is compared with
// full-log replay at increasing log lengths.
func RunE12(cfg Config) (*Table, error) {
	sizes := []int{1_000, 10_000, 50_000}
	if cfg.Quick {
		sizes = []int{500, 2_000}
	}
	t := &Table{
		ID:     "E12",
		Title:  "recovery time: checkpoint + WAL tail vs full WAL replay",
		Claim:  "the view is the durable summary; recovery cost is the log tail, not the history",
		Header: []string{"appends", "full replay", "checkpoint@90% + tail", "speedup"},
	}
	for _, n := range sizes {
		fullNs, err := recoveryRun(n, false)
		if err != nil {
			return nil, err
		}
		ckptNs, err := recoveryRun(n, true)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmtCount(n), fmtNs(fullNs), fmtNs(ckptNs), fmt.Sprintf("%.1fx", fullNs/ckptNs))
	}
	return t, nil
}

// recoveryRun writes n appends (optionally checkpointing at 90%) and
// measures the reopen time.
func recoveryRun(n int, checkpoint bool) (float64, error) {
	dir, err := os.MkdirTemp("", "chronbench-e12-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)

	db, err := chronicledb.Open(chronicledb.Options{Dir: dir})
	if err != nil {
		return 0, err
	}
	if _, err := db.Exec(`CREATE CHRONICLE calls (acct STRING, minutes INT);
		CREATE VIEW usage AS SELECT acct, SUM(minutes) AS total FROM calls GROUP BY acct`); err != nil {
		return 0, err
	}
	for i := 0; i < n; i++ {
		if _, err := db.Append("calls", chronicledb.Tuple{
			chronicledb.Str(Acct(i % 512)), chronicledb.Int(int64(i % 90)),
		}); err != nil {
			return 0, err
		}
		if checkpoint && i == n*9/10 {
			if err := db.Checkpoint(); err != nil {
				return 0, err
			}
		}
	}
	if err := db.Close(); err != nil {
		return 0, err
	}

	start := time.Now()
	db2, err := chronicledb.Open(chronicledb.Options{Dir: dir})
	if err != nil {
		return 0, err
	}
	elapsed := time.Since(start)
	// Sanity: the recovered view must hold all n appends.
	res, err := db2.Exec(`SHOW STATS`)
	if err != nil {
		return 0, err
	}
	_ = res
	row, ok, err := db2.Lookup("usage", chronicledb.Str(Acct(1)))
	if err != nil || !ok || row[1].AsInt() <= 0 {
		db2.Close()
		return 0, fmt.Errorf("E12: recovered view wrong: %v %v %v", row, ok, err)
	}
	db2.Close()
	return float64(elapsed.Nanoseconds()), nil
}
