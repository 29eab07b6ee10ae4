// End-to-end append benchmarks with allocation reporting — the measured
// side of the append hot path (E16, recorded). `make bench-allocs` runs these with
// -benchmem so the allocs/op column is tracked alongside the AllocsPerRun
// guards.
package chronicledb_test

import (
	"fmt"
	"testing"

	chronicledb "chronicledb"
)

// BenchmarkAppendHotPath measures the full engine append path. The mem
// cases run the in-memory kernel (one maintained SUM view) at batch sizes
// 1 and 64; the durable case runs against a real directory with SyncWAL
// under group commit, with concurrent appenders sharing fsyncs.
func BenchmarkAppendHotPath(b *testing.B) {
	for _, batch := range []int{1, 64} {
		b.Run(fmt.Sprintf("mem/batch=%d", batch), func(b *testing.B) {
			db, err := chronicledb.Open(chronicledb.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := db.Exec(`CREATE CHRONICLE calls (acct STRING, minutes INT);
				CREATE VIEW usage AS SELECT acct, SUM(minutes) AS total FROM calls GROUP BY acct`); err != nil {
				b.Fatal(err)
			}
			tuples := make([]chronicledb.Tuple, batch)
			for i := range tuples {
				tuples[i] = chronicledb.Tuple{chronicledb.Str(acct(i % 64)), chronicledb.Int(3)}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; done += batch {
				if _, _, err := db.AppendRows("calls", tuples); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("durable/group-commit", func(b *testing.B) {
		db, err := chronicledb.Open(chronicledb.Options{Dir: b.TempDir(), SyncWAL: true})
		if err != nil {
			b.Fatal(err)
		}
		defer db.Close()
		if _, err := db.Exec(`CREATE CHRONICLE calls (acct STRING, minutes INT);
			CREATE VIEW usage AS SELECT acct, SUM(minutes) AS total FROM calls GROUP BY acct`); err != nil {
			b.Fatal(err)
		}
		tuple := chronicledb.Tuple{chronicledb.Str(acct(7)), chronicledb.Int(3)}
		b.ReportAllocs()
		b.SetParallelism(4) // concurrent appenders even on one core: the commit door needs queued callers to coalesce
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := db.Append("calls", tuple); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}
