// Benchmarks, one per experiment in DESIGN.md (E1–E14). The paper has no
// measured tables or figures of its own — it is a theory extended abstract —
// so these benchmarks regenerate its quantitative *claims*: the IM
// complexity-class separations (Theorems 4.2/4.4/4.5, Proposition 3.1) and
// the Section-5 design arguments. cmd/chronbench prints the same
// experiments as formatted sweep tables; EXPERIMENTS.md records the
// claim-vs-measured comparison.
package chronicledb_test

import (
	"fmt"
	"sync"
	"testing"

	chronicledb "chronicledb"
	"chronicledb/internal/aggregate"
	"chronicledb/internal/algebra"
	"chronicledb/internal/baseline"
	"chronicledb/internal/bench"
	"chronicledb/internal/calendar"
	"chronicledb/internal/chronicle"
	"chronicledb/internal/dispatch"
	"chronicledb/internal/pred"
	"chronicledb/internal/tiers"
	"chronicledb/internal/value"
	"chronicledb/internal/view"
)

func mustTelecom(b *testing.B, nAccts int, retain chronicle.Retention, history bool) *bench.Telecom {
	b.Helper()
	w, err := bench.NewTelecom(nAccts, retain, history)
	if err != nil {
		b.Fatal(err)
	}
	return w
}

func feed(b *testing.B, w *bench.Telecom, v *view.View, n int) {
	b.Helper()
	for i := 0; i < n; i++ {
		d, _, err := w.NextCall()
		if err != nil {
			b.Fatal(err)
		}
		if v != nil {
			v.Apply(d)
		}
	}
}

// BenchmarkE1_MaintenanceVsChronicleSize — Thm 4.4/4.5 vs Prop 3.1.
func BenchmarkE1_MaintenanceVsChronicleSize(b *testing.B) {
	for _, size := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("C=%d/sca1-incremental", size), func(b *testing.B) {
			w := mustTelecom(b, 1024, chronicle.RetainAll, false)
			v := bench.MustView(w.UsageDef("usage"), view.StoreHash)
			feed(b, w, v, size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d, _, err := w.NextCall()
				if err != nil {
					b.Fatal(err)
				}
				v.Apply(d)
			}
		})
		b.Run(fmt.Sprintf("C=%d/recompute", size), func(b *testing.B) {
			w := mustTelecom(b, 1024, chronicle.RetainAll, false)
			feed(b, w, nil, size)
			rc, err := baseline.NewRecompute(w.UsageDef("usage"))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rc.Refresh(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE2_MaintenanceVsRelationSize — Thm 4.5 class separation in |R|.
func BenchmarkE2_MaintenanceVsRelationSize(b *testing.B) {
	for _, size := range []int{1_000, 64_000} {
		build := func(b *testing.B, class string) (*bench.Telecom, *view.View) {
			w := mustTelecom(b, size, chronicle.RetainNone, false)
			if err := w.FillCustomers(size); err != nil {
				b.Fatal(err)
			}
			var def view.Def
			var err error
			switch class {
			case "sca1":
				def = w.UsageDef("v")
			case "scakey":
				def, err = w.KeyJoinDef("v")
			case "scacross":
				def, err = w.CrossDef("v")
			}
			if err != nil {
				b.Fatal(err)
			}
			return w, bench.MustView(def, view.StoreHash)
		}
		for _, class := range []string{"sca1", "scakey", "scacross"} {
			b.Run(fmt.Sprintf("R=%d/%s", size, class), func(b *testing.B) {
				w, v := build(b, class)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					d, _, err := w.NextCall()
					if err != nil {
						b.Fatal(err)
					}
					v.Apply(d)
				}
			})
		}
	}
}

// BenchmarkE3_Throughput — Sec. 3: appends/sec with k views per class.
func BenchmarkE3_Throughput(b *testing.B) {
	for _, k := range []int{1, 16, 64} {
		b.Run(fmt.Sprintf("sca1-views=%d", k), func(b *testing.B) {
			w := mustTelecom(b, 1024, chronicle.RetainNone, false)
			var views []*view.View
			for i := 0; i < k; i++ {
				views = append(views, bench.MustView(w.UsageDef(fmt.Sprintf("v%d", i)), view.StoreHash))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d, _, err := w.NextCall()
				if err != nil {
					b.Fatal(err)
				}
				for _, v := range views {
					v.Apply(d)
				}
			}
		})
	}
	b.Run("engine-dispatch-sca1-views=64", func(b *testing.B) {
		// The full engine path: WAL-less append → dispatch → maintenance.
		db, err := chronicledb.Open(chronicledb.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := db.Exec(`CREATE CHRONICLE calls (acct STRING, minutes INT)`); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 64; i++ {
			stmt := fmt.Sprintf(`CREATE VIEW v%d AS SELECT acct, SUM(minutes) AS total
				FROM calls WHERE acct = '%s' GROUP BY acct`, i, bench.Acct(i))
			if _, err := db.Exec(stmt); err != nil {
				b.Fatal(err)
			}
		}
		tuple := chronicledb.Tuple{chronicledb.Str(bench.Acct(7)), chronicledb.Int(3)}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := db.Append("calls", tuple); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE4_QueryLatency — Sec. 1: view lookup vs chronicle scan.
func BenchmarkE4_QueryLatency(b *testing.B) {
	for _, size := range []int{10_000, 100_000} {
		w := mustTelecom(b, 1024, chronicle.RetainAll, false)
		v := bench.MustView(w.UsageDef("usage"), view.StoreHash)
		feed(b, w, v, size)
		key := value.Tuple{value.Str(bench.Acct(7))}
		b.Run(fmt.Sprintf("C=%d/view-lookup", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, ok := v.Lookup(key); !ok {
					b.Fatal("miss")
				}
			}
		})
		b.Run(fmt.Sprintf("C=%d/chronicle-scan", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := baseline.ScanQuery(w.Calls, 0, key[0], aggregate.Sum, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE5_DeltaVsExprShape — Thm 4.2: delta cost for (u, j) shapes.
func BenchmarkE5_DeltaVsExprShape(b *testing.B) {
	const relSize = 64
	shapes := []struct {
		u, j int
		key  bool
	}{
		{0, 0, false}, {2, 0, false}, {0, 2, false}, {2, 2, false}, {2, 2, true},
	}
	for _, s := range shapes {
		kind := "cross"
		if s.key {
			kind = "keyjoin"
		}
		b.Run(fmt.Sprintf("u=%d/j=%d/%s", s.u, s.j, kind), func(b *testing.B) {
			w := mustTelecom(b, 64, chronicle.RetainNone, false)
			if err := w.FillCustomers(relSize); err != nil {
				b.Fatal(err)
			}
			var expr algebra.Node = algebra.NewScan(w.Calls)
			for i := 0; i < s.u; i++ {
				sel, err := algebra.NewSelect(algebra.NewScan(w.Calls),
					pred.Or(pred.ColConst(1, pred.Ge, value.Int(0))))
				if err != nil {
					b.Fatal(err)
				}
				un, err := algebra.NewUnion(expr, sel)
				if err != nil {
					b.Fatal(err)
				}
				expr = un
			}
			for i := 0; i < s.j; i++ {
				if s.key {
					je, err := algebra.NewJoinRel(expr, w.Cust, []int{0}, []int{0})
					if err != nil {
						b.Fatal(err)
					}
					expr = je
				} else {
					ce, err := algebra.NewCrossRel(expr, w.Cust)
					if err != nil {
						b.Fatal(err)
					}
					expr = ce
				}
			}
			d, _, err := w.NextCall()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				algebra.Delta(expr, d)
			}
		})
	}
}

// BenchmarkE6_MovingWindow — Sec. 5.1: cyclic buffer vs re-aggregation.
func BenchmarkE6_MovingWindow(b *testing.B) {
	for _, buckets := range []int{32, 512} {
		b.Run(fmt.Sprintf("W=%d/ring", buckets), func(b *testing.B) {
			ring, _ := calendar.NewMovingWindow(aggregate.Sum, 1, buckets)
			for i := 0; i < b.N; i++ {
				ch := int64(i / 16)
				ring.Add("k", ch, value.Int(3))
				ring.Value("k", ch)
			}
		})
		b.Run(fmt.Sprintf("W=%d/fast-sum", buckets), func(b *testing.B) {
			fast, _ := calendar.NewMovingSum(1, buckets)
			for i := 0; i < b.N; i++ {
				ch := int64(i / 16)
				fast.Add("k", ch, 3)
				fast.Value("k", ch)
			}
		})
		b.Run(fmt.Sprintf("W=%d/naive", buckets), func(b *testing.B) {
			naive, _ := calendar.NewNaiveWindow(aggregate.Sum, int64(buckets))
			for i := 0; i < b.N; i++ {
				ch := int64(i / 16)
				naive.Add("k", ch, value.Int(3))
				naive.Value("k", ch)
			}
		})
	}
}

// BenchmarkE7_DispatchVsViewCount — Sec. 5.2: predicate-indexed dispatch.
func BenchmarkE7_DispatchVsViewCount(b *testing.B) {
	for _, n := range []int{256, 16384} {
		g := chronicle.NewGroup("g")
		c, err := g.NewChronicle("calls", value.NewSchema(
			value.Column{Name: "acct", Kind: value.KindString},
			value.Column{Name: "minutes", Kind: value.KindInt},
		), chronicle.RetainNone)
		if err != nil {
			b.Fatal(err)
		}
		register := func(d *dispatch.Dispatcher) {
			for i := 0; i < n; i++ {
				d.Register(&dispatch.Target{
					ID:              fmt.Sprintf("t%d", i),
					Chronicles:      []*chronicle.Chronicle{c},
					Filter:          pred.Or(pred.ColConst(0, pred.Eq, value.Str(bench.Acct(i)))),
					FilterChronicle: c,
				})
			}
		}
		rows := []chronicle.Row{{SN: 1, Vals: value.Tuple{value.Str(bench.Acct(3)), value.Int(7)}}}
		b.Run(fmt.Sprintf("N=%d/indexed", n), func(b *testing.B) {
			d := dispatch.New(true)
			register(d)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Affected(c, rows)
			}
		})
		b.Run(fmt.Sprintf("N=%d/linear", n), func(b *testing.B) {
			d := dispatch.New(false)
			register(d)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Affected(c, rows)
			}
		})
	}
}

// BenchmarkE8_PeriodicLifecycle — Sec. 5.1: appends across billing periods.
func BenchmarkE8_PeriodicLifecycle(b *testing.B) {
	for _, policy := range []struct {
		name   string
		expire int64
	}{{"expire", 1000}, {"keep-forever", -1}} {
		b.Run(policy.name, func(b *testing.B) {
			w := mustTelecom(b, 64, chronicle.RetainNone, false)
			cal, _ := calendar.NewPeriodic(0, 1000, 1000)
			pv, err := calendar.NewPeriodicView("m", w.UsageDef("m"), cal, policy.expire, view.StoreHash)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d, _, err := w.NextCallAt(int64(i / 200 * 1000))
				if err != nil {
					b.Fatal(err)
				}
				if err := pv.Apply(d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE9_TiersIncrementalVsBatch — Sec. 5.3.
func BenchmarkE9_TiersIncrementalVsBatch(b *testing.B) {
	sched, err := tiers.NewSchedule(tiers.AllUnits,
		tiers.Tier{Threshold: 10, Rate: 0.10}, tiers.Tier{Threshold: 25, Rate: 0.20})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("incremental-per-record", func(b *testing.B) {
		tr := tiers.NewTracker(sched)
		for i := 0; i < b.N; i++ {
			tr.Add("k", 0.42)
		}
	})
	b.Run("batch-period=10000", func(b *testing.B) {
		amounts := make([]float64, 10_000)
		for i := range amounts {
			amounts[i] = 0.42
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tiers.BatchCompute(sched, amounts)
		}
	})
}

// BenchmarkE10_ViewStoreAblation — Thm 4.4: hash vs B-tree group stores.
func BenchmarkE10_ViewStoreAblation(b *testing.B) {
	for _, size := range []int{10_000, 1_000_000} {
		for _, kind := range []view.StoreKind{view.StoreHash, view.StoreBTree} {
			b.Run(fmt.Sprintf("V=%d/%s", size, kind), func(b *testing.B) {
				w := mustTelecom(b, size, chronicle.RetainNone, false)
				v := bench.MustView(w.UsageDef("usage"), kind)
				for i := 0; i < size; i++ {
					v.ApplyRows([]chronicle.Row{{SN: int64(i), Vals: value.Tuple{
						value.Str(bench.Acct(i)), value.Int(1), value.Float(0.1)}}})
				}
				v.Publish()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					d, _, err := w.NextCall()
					if err != nil {
						b.Fatal(err)
					}
					v.Apply(d)
				}
			})
		}
	}
}

// BenchmarkE11_ProactiveUpdates — Sec. 2.3: relation updates under a
// temporal-join view.
func BenchmarkE11_ProactiveUpdates(b *testing.B) {
	w := mustTelecom(b, 256, chronicle.RetainNone, false)
	if err := w.FillCustomers(256); err != nil {
		b.Fatal(err)
	}
	kd, err := w.KeyJoinDef("by_state")
	if err != nil {
		b.Fatal(err)
	}
	v := bench.MustView(kd, view.StoreHash)
	b.Run("append-under-join-view", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d, _, err := w.NextCall()
			if err != nil {
				b.Fatal(err)
			}
			v.Apply(d)
		}
	})
	b.Run("proactive-update", func(b *testing.B) {
		tup := value.Tuple{value.Str(bench.Acct(1)), value.Str("nj"), value.Int(0)}
		lsn := uint64(1 << 30)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lsn++
			if err := w.Cust.Upsert(lsn, tup); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE12_Recovery — checkpoint + WAL tail vs full replay.
func BenchmarkE12_Recovery(b *testing.B) {
	const appends = 2_000
	for _, mode := range []struct {
		name       string
		checkpoint bool
	}{{"full-replay", false}, {"checkpoint90+tail", true}} {
		b.Run(fmt.Sprintf("appends=%d/%s", appends, mode.name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dir := b.TempDir()
				db, err := chronicledb.Open(chronicledb.Options{Dir: dir})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := db.Exec(`CREATE CHRONICLE calls (acct STRING, minutes INT);
					CREATE VIEW usage AS SELECT acct, SUM(minutes) AS total FROM calls GROUP BY acct`); err != nil {
					b.Fatal(err)
				}
				for j := 0; j < appends; j++ {
					if _, err := db.Append("calls", chronicledb.Tuple{
						chronicledb.Str(bench.Acct(j % 128)), chronicledb.Int(1)}); err != nil {
						b.Fatal(err)
					}
					if mode.checkpoint && j == appends*9/10 {
						if err := db.Checkpoint(); err != nil {
							b.Fatal(err)
						}
					}
				}
				if err := db.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				db2, err := chronicledb.Open(chronicledb.Options{Dir: dir})
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				db2.Close()
			}
		})
	}
}

// BenchmarkE13_EndToEndAppend — the full engine path (append → dispatch →
// delta → maintenance) under per-account views and the Section 5.2
// predicate index (BenchmarkE7 times the index against a linear check).
func BenchmarkE13_EndToEndAppend(b *testing.B) {
	db, err := chronicledb.Open(chronicledb.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := db.Exec(`CREATE CHRONICLE calls (acct STRING, minutes INT)`); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		stmt := fmt.Sprintf(`CREATE VIEW v%d AS SELECT acct, SUM(minutes) AS m
			FROM calls WHERE acct = '%s' GROUP BY acct`, i, bench.Acct(i))
		if _, err := db.Exec(stmt); err != nil {
			b.Fatal(err)
		}
	}
	tuple := chronicledb.Tuple{chronicledb.Str(bench.Acct(7)), chronicledb.Int(3)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Append("calls", tuple); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE14_ShardScaling — the sharded execution layer: concurrent
// clients on disjoint chronicle groups, routed to single-writer shards.
// Throughput should grow with the shard count up to the host's core count
// (on a single-core host the curve is flat by design).
func BenchmarkE14_ShardScaling(b *testing.B) {
	const clients = 8
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			db, err := chronicledb.Open(chronicledb.Options{Shards: shards})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			for c := 0; c < clients; c++ {
				stmts := fmt.Sprintf(`CREATE CHRONICLE calls%[1]d (acct STRING, minutes INT) IN GROUP g%[1]d;
					CREATE VIEW usage%[1]d AS SELECT acct, SUM(minutes) AS total FROM calls%[1]d GROUP BY acct`, c)
				if _, err := db.Exec(stmts); err != nil {
					b.Fatal(err)
				}
			}
			batch := make([]chronicledb.Tuple, 64)
			for i := range batch {
				batch[i] = chronicledb.Tuple{chronicledb.Str(bench.Acct(i % 64)), chronicledb.Int(3)}
			}
			b.ResetTimer()
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					name := fmt.Sprintf("calls%d", c)
					for done := 0; done < b.N/clients; done += len(batch) {
						n := len(batch)
						if b.N/clients-done < n {
							n = b.N/clients - done
						}
						if _, _, err := db.AppendRows(name, batch[:n]); err != nil {
							b.Error(err)
							return
						}
					}
				}(c)
			}
			wg.Wait()
		})
	}
}
