// Package bench is the synthetic telecom workload the paper's experiments run
// on: a call-record chronicle, a keyed customer relation, and the canonical
// CA₁, CA⋈ and cross-product views over them. Its test asserts each claim of
// E1–E13 (DESIGN.md §3) on counted work — rows read, probes, hashes, tree
// heights, views maintained — so the theorems gate every go test run; the
// root alloc guards drive the same generator. Timing is benchmark/'s job.
package bench

import (
	"fmt"
	"math/rand"

	"chronicledb/internal/aggregate"
	"chronicledb/internal/algebra"
	"chronicledb/internal/chronicle"
	"chronicledb/internal/relation"
	"chronicledb/internal/value"
	"chronicledb/internal/view"
)

// Telecom is the shared workload: a call-record chronicle, a keyed customer
// relation, and helpers to drive them deterministically.
type Telecom struct {
	Group *chronicle.Group
	Calls *chronicle.Chronicle
	Cust  *relation.Relation

	rng   *rand.Rand
	lsn   uint64
	nAcct int
}

// NewTelecom builds the workload. nAccts controls key cardinality; retain
// the chronicle retention; history whether the relation keeps versions.
func NewTelecom(nAccts int, retain chronicle.Retention, history bool) (*Telecom, error) {
	g := chronicle.NewGroup("telecom")
	calls, err := g.NewChronicle("calls", value.NewSchema(
		value.Column{Name: "acct", Kind: value.KindString},
		value.Column{Name: "minutes", Kind: value.KindInt},
		value.Column{Name: "cost", Kind: value.KindFloat},
	), retain)
	if err != nil {
		return nil, err
	}
	cust, err := relation.New("customers", value.NewSchema(
		value.Column{Name: "acct", Kind: value.KindString},
		value.Column{Name: "state", Kind: value.KindString},
		value.Column{Name: "bonus", Kind: value.KindInt},
	), []int{0}, history)
	if err != nil {
		return nil, err
	}
	return &Telecom{
		Group: g, Calls: calls, Cust: cust,
		rng: rand.New(rand.NewSource(1)), nAcct: nAccts,
	}, nil
}

// Acct returns the i-th account id.
func Acct(i int) string { return fmt.Sprintf("acct%07d", i) }

// FillCustomers upserts n customers.
func (w *Telecom) FillCustomers(n int) error {
	states := []string{"nj", "ny", "ca", "tx"}
	for i := 0; i < n; i++ {
		w.lsn++
		t := value.Tuple{
			value.Str(Acct(i)),
			value.Str(states[i%len(states)]),
			value.Int(int64(i % 1000)),
		}
		if err := w.Cust.Upsert(w.lsn, t); err != nil {
			return err
		}
	}
	return nil
}

// NextCall appends one pseudo-random call and returns its batch delta.
func (w *Telecom) NextCall() (algebra.BatchDelta, int64, error) {
	return w.NextCallAt(int64(w.Group.NextSN())) // 1 chronon per sequence number
}

// NextCallAt is NextCall with the call's chronon chosen by the caller
// (periodic families read the chronon off the rows).
func (w *Telecom) NextCallAt(chronon int64) (algebra.BatchDelta, int64, error) {
	acct := Acct(w.rng.Intn(w.nAcct))
	minutes := int64(w.rng.Intn(120))
	w.lsn++
	rows, err := w.Calls.Append(w.Group.NextSN(), chronon, w.lsn,
		[]value.Tuple{{value.Str(acct), value.Int(minutes), value.Float(float64(minutes) * 0.25)}})
	if err != nil {
		return nil, 0, err
	}
	return algebra.BatchDelta{w.Calls: rows}, chronon, nil
}

// UsageDef is the canonical SCA₁ view: totals per account.
func (w *Telecom) UsageDef(name string) view.Def {
	return view.Def{
		Name:      name,
		Expr:      algebra.NewScan(w.Calls),
		Mode:      view.SummarizeGroupBy,
		GroupCols: []int{0},
		Aggs: []aggregate.Spec{
			{Func: aggregate.Sum, Col: 1, Name: "total_minutes"},
			{Func: aggregate.Count, Col: -1, Name: "n"},
		},
	}
}

// KeyJoinDef is the canonical SCA⋈ view: per-state totals via a key join.
func (w *Telecom) KeyJoinDef(name string) (view.Def, error) {
	jr, err := algebra.NewJoinRel(algebra.NewScan(w.Calls), w.Cust, []int{0}, []int{0})
	if err != nil {
		return view.Def{}, err
	}
	return view.Def{
		Name:      name,
		Expr:      jr,
		Mode:      view.SummarizeGroupBy,
		GroupCols: []int{4}, // state
		Aggs:      []aggregate.Spec{{Func: aggregate.Sum, Col: 1, Name: "total_minutes"}},
	}, nil
}

// CrossDef is the canonical plain-SCA view: a cross product with the
// relation (per-append cost O(|R|)).
func (w *Telecom) CrossDef(name string) (view.Def, error) {
	cr, err := algebra.NewCrossRel(algebra.NewScan(w.Calls), w.Cust)
	if err != nil {
		return view.Def{}, err
	}
	return view.Def{
		Name:      name,
		Expr:      cr,
		Mode:      view.SummarizeGroupBy,
		GroupCols: []int{4}, // state
		Aggs:      []aggregate.Spec{{Func: aggregate.Count, Col: -1, Name: "n"}},
	}, nil
}

// MustView materializes a definition or panics (for tests).
func MustView(def view.Def, kind view.StoreKind) *view.View {
	v, err := view.New(def, kind)
	if err != nil {
		panic(err)
	}
	return v
}
