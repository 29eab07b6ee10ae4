// Package baseline implements the comparison points the chronicle model is
// measured against.
//
//   - Recompute is Proposition 3.1 made concrete: full relational algebra
//     with grouping/aggregation over a stored chronicle is in IM-Cᵏ — after
//     every append, deriving the current view costs time polynomial in the
//     chronicle size, because the whole stored sequence is re-evaluated.
//
//   - ScanQuery is the world the introduction motivates against: no summary
//     fields at all, every summary query answered by scanning the stored
//     sequence of transaction records.
//
// Both require the chronicle to be retained in full; they fail loudly on
// windowed chronicles — which is itself the paper's argument.
package baseline

import (
	"fmt"

	"chronicledb/internal/aggregate"
	"chronicledb/internal/algebra"
	"chronicledb/internal/chronicle"
	"chronicledb/internal/value"
	"chronicledb/internal/view"
)

// Recompute re-derives a view definition from scratch on demand.
type Recompute struct {
	def       view.Def
	refreshes int64
}

// NewRecompute validates the definition eagerly (by instantiating a
// throwaway view) and returns the baseline.
func NewRecompute(def view.Def) (*Recompute, error) {
	if _, err := view.New(def); err != nil {
		return nil, err
	}
	return &Recompute{def: def}, nil
}

// Refresh evaluates the expression over the fully retained chronicles and
// summarizes from scratch — the per-append cost of the IM-Cᵏ strategy.
func (r *Recompute) Refresh() ([]value.Tuple, error) {
	r.refreshes++
	rows, err := algebra.Evaluate(r.def.Expr)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	v, err := view.New(r.def)
	if err != nil {
		return nil, err
	}
	v.ApplyRows(rows)
	v.Publish()
	return v.Rows(), nil
}

// Lookup answers a single summary query by recomputing and probing.
func (r *Recompute) Lookup(key value.Tuple) (value.Tuple, bool, error) {
	rows, err := algebra.Evaluate(r.def.Expr)
	if err != nil {
		return nil, false, fmt.Errorf("baseline: %w", err)
	}
	v, err := view.New(r.def)
	if err != nil {
		return nil, false, err
	}
	v.ApplyRows(rows)
	v.Publish()
	t, ok := v.Lookup(key)
	return t, ok, nil
}

// Refreshes returns how many times the baseline recomputed.
func (r *Recompute) Refreshes() int64 { return r.refreshes }

// ScanQuery aggregates column col of the rows in c whose keyCol equals key,
// by scanning the retained sequence — the no-persistent-view summary query.
// It returns an error when the chronicle has discarded rows, since the
// answer would silently be wrong.
func ScanQuery(c *chronicle.Chronicle, keyCol int, key value.Value, fn aggregate.Func, col int) (value.Value, error) {
	if c.Dropped() > 0 {
		return value.Null(), fmt.Errorf("baseline: chronicle %s dropped %d rows; scan answer would be wrong", c.Name(), c.Dropped())
	}
	in := value.KindInt
	if col >= 0 {
		in = c.Schema().Col(col).Kind
	}
	l, err := aggregate.NewLayout([]aggregate.Spec{{Func: fn, Col: col}}, []value.Kind{in})
	if err != nil {
		return value.Null(), fmt.Errorf("baseline: %w", err)
	}
	g := l.New()
	c.Scan(func(r chronicle.Row) bool {
		if value.Equal(r.Vals[keyCol], key) {
			l.Step(g, r.Vals)
		}
		return true
	})
	return l.Result(g, 0), nil
}
