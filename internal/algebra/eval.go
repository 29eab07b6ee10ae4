package algebra

import (
	"fmt"

	"chronicledb/internal/chronicle"
)

// Evaluate computes the full output of a chronicle algebra expression from
// the retained base chronicles, set-at-a-time. It is the reference
// semantics that incremental maintenance must agree with, and the engine of
// the IM-Cᵏ recompute baseline (Proposition 3.1).
//
// Evaluate requires every base chronicle to be fully retained; it returns
// an error if any rows were discarded by a retention window — which is the
// paper's point: a system without persistent views simply cannot answer
// over a partially stored chronicle.
func Evaluate(n Node) ([]chronicle.Row, error) {
	for _, c := range Analyze(n).Chronicles {
		if c.Dropped() > 0 {
			return nil, fmt.Errorf("algebra: chronicle %s has dropped %d rows; full evaluation impossible",
				c.Name(), c.Dropped())
		}
	}
	return eval(n), nil
}

func eval(n Node) []chronicle.Row {
	switch n := n.(type) {
	case *Scan:
		return append([]chronicle.Row(nil), n.C.Rows()...)
	case *Select:
		var out []chronicle.Row
		for _, r := range eval(n.In) {
			if n.P.Eval(r.Vals) {
				out = append(out, r)
			}
		}
		return out
	case *Project:
		in := eval(n.In)
		out := make([]chronicle.Row, len(in))
		for i, r := range in {
			out[i] = chronicle.Row{SN: r.SN, Chronon: r.Chronon, LSN: r.LSN, Vals: r.Vals.Project(n.Cols)}
		}
		return out
	case *Union:
		return dedupRows(append(append([]chronicle.Row(nil), eval(n.L)...), eval(n.R)...))
	case *Diff:
		return diffRows(eval(n.L), eval(n.R))
	case *JoinSN:
		return joinSN(eval(n.L), eval(n.R))
	case *GroupBySN:
		return groupBySN(n, eval(n.In))
	case *CrossRel:
		return deltaCrossRel(n, eval(n.In), new(RelWork))
	case *JoinRel:
		return deltaJoinRel(n, eval(n.In), nil, new(joinScratch), new(RelWork))
	default:
		panic(fmt.Sprintf("algebra: unknown node %T", n))
	}
}
