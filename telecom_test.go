// The synthetic telecom workload the theorem tests (theorems_test.go) and the
// allocation guards run on: a call-record chronicle, a keyed customer
// relation, and a deterministic call generator, driven through the database.
package chronicledb_test

import (
	"fmt"
	"math/rand"
	"testing"

	chronicledb "chronicledb"
	"chronicledb/internal/aggregate"
	"chronicledb/internal/algebra"
	"chronicledb/internal/calendar"
	"chronicledb/internal/chronicle"
	"chronicledb/internal/value"
	"chronicledb/internal/view"
)

// acct returns the i-th account id.
func acct(i int) string { return fmt.Sprintf("acct%07d", i) }

// telecom is an in-memory database holding the chronicle calls (acct,
// minutes, cost) and the relation customers (acct, state, bonus) keyed by
// acct, with a generator of pseudo-random calls over accts accounts. Every
// tuple of an append is stamped with the chronon in now (Options.Clock).
type telecom struct {
	db    *chronicledb.DB
	now   int64
	rng   *rand.Rand
	accts int
}

// newTelecom opens the workload's database with opts, its calls chronicle
// retaining rows as retain says (ALL, NONE or a count), and runs stmts.
func newTelecom(t *testing.T, accts int, retain string, opts chronicledb.Options, stmts ...string) *telecom {
	t.Helper()
	w := &telecom{rng: rand.New(rand.NewSource(1)), accts: accts}
	opts.Clock = func() int64 { return w.now }
	db, err := chronicledb.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	w.db = db
	mustExec(t, db, `CREATE CHRONICLE calls (acct STRING, minutes INT, cost FLOAT) RETAIN `+retain)
	mustExec(t, db, `CREATE RELATION customers (acct STRING, state STRING, bonus INT, KEY(acct))`)
	for _, stmt := range stmts {
		mustExec(t, db, stmt)
	}
	return w
}

// fillCustomers upserts customers 0 … n-1, one update each.
func (w *telecom) fillCustomers(t *testing.T, n int) {
	t.Helper()
	states := []string{"nj", "ny", "ca", "tx"}
	for i := 0; i < n; i++ {
		if err := w.db.Upsert("customers", value.Tuple{value.Str(acct(i)), value.Str(states[i%len(states)]), value.Int(int64(i % 1000))}); err != nil {
			t.Fatal(err)
		}
	}
}

// call returns the next pseudo-random call.
func (w *telecom) call() value.Tuple {
	a, minutes := acct(w.rng.Intn(w.accts)), int64(w.rng.Intn(120))
	return value.Tuple{value.Str(a), value.Int(minutes), value.Float(float64(minutes) * 0.25)}
}

// appendCalls appends n calls, each an append call of its own: one
// transaction, one maintenance round.
func (w *telecom) appendCalls(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		w.appendRows(t, w.call())
	}
}

// load appends n calls in append calls of up to a thousand.
func (w *telecom) load(t *testing.T, n int) {
	t.Helper()
	for n > 0 {
		rows := make([]value.Tuple, min(n, 1000))
		for i := range rows {
			rows[i] = w.call()
		}
		w.appendRows(t, rows...)
		n -= len(rows)
	}
}

// appendRows appends rows in one call.
func (w *telecom) appendRows(t *testing.T, rows ...value.Tuple) {
	t.Helper()
	if _, _, err := w.db.AppendRows("calls", rows); err != nil {
		t.Fatal(err)
	}
}

// calls returns the database's calls chronicle.
func (w *telecom) calls(t *testing.T) *chronicle.Chronicle {
	t.Helper()
	c, ok := chronicledb.Kernel(w.db).Chronicle("calls")
	if !ok {
		t.Fatal("no chronicle calls")
	}
	return c
}

// family returns the periodic view name.
func (w *telecom) family(t *testing.T, name string) *calendar.PeriodicView {
	t.Helper()
	pv, ok := chronicledb.Kernel(w.db).PeriodicView(name)
	if !ok {
		t.Fatalf("no periodic view %s", name)
	}
	return pv
}

// scanQuery answers the summary query "SUM(col) of the rows whose keyCol is
// key" by scanning the stored sequence: the world without persistent views
// that the paper's introduction argues against. It fails when the chronicle
// has discarded rows, since the answer would silently be wrong.
func scanQuery(c *chronicle.Chronicle, keyCol int, key value.Value, col int) (int64, error) {
	if c.Dropped() > 0 {
		return 0, fmt.Errorf("chronicle %s dropped %d rows; a scan answer would be wrong", c.Name(), c.Dropped())
	}
	var sum int64
	c.Scan(func(r chronicle.Row) bool {
		if value.Equal(r.Vals[keyCol], key) {
			sum += r.Vals[col].AsInt()
		}
		return true
	})
	return sum, nil
}

// callsChronicle returns a calls chronicle outside any database, for the
// tests that drive one layer on its own.
func callsChronicle(t *testing.T) *chronicle.Chronicle {
	t.Helper()
	c, err := chronicle.NewGroup("telecom").NewChronicle("calls", value.NewSchema(
		value.Column{Name: "acct", Kind: value.KindString},
		value.Column{Name: "minutes", Kind: value.KindInt},
		value.Column{Name: "cost", Kind: value.KindFloat},
	), chronicle.RetainNone)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// usageDef is the canonical CA₁ view over c: total minutes and calls per
// account.
func usageDef(c *chronicle.Chronicle) view.Def {
	return view.Def{
		Name:      "usage",
		Expr:      algebra.NewScan(c),
		Mode:      view.SummarizeGroupBy,
		GroupCols: []int{0},
		Aggs: []aggregate.Spec{
			{Func: aggregate.Sum, Col: 1, Name: "total_minutes"},
			{Func: aggregate.Count, Col: -1, Name: "n"},
		},
	}
}
