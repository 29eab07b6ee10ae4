package algebra

import (
	"fmt"

	"chronicledb/internal/aggregate"
	"chronicledb/internal/chronicle"
	"chronicledb/internal/value"
)

// BatchDelta is the rows one append call inserted into base chronicles: per
// chronicle, in ascending SN order — one SN for a simultaneous append, many
// for a call of per-tuple transactions. Rows sharing an SN share its chronon
// and LSN. Chronicles not present have an empty delta.
//
// The order rule: every Δ-rule keys on the sequencing attribute, so the delta
// of a call is the concatenation of its per-SN deltas, row for row, and every
// operator's output is again ascending in SN. FIRST/LAST aggregates and the
// changefeed's per-LSN frames depend on that order, not just on the set.
type BatchDelta map[*chronicle.Chronicle][]chronicle.Row

// Delta computes the rows this append adds to the expression's output — the
// Δ-rules from the proof of Theorem 4.1. The computation is batch-local: it
// never reads stored chronicles, never materializes intermediate views, and
// touches relations only through current-version (or AsOf) lookups. That
// locality is exactly why the paper's maintenance complexity is independent
// of both |C| and the view size.
//
// The rules, per operator (Δ over old state E; fresh SNs make cross terms
// with old state provably empty):
//
//	σ:      Δ = σ(ΔE)
//	Π:      Δ = Π(ΔE)
//	∪:      Δ = ΔE₁ ∪ ΔE₂        (merged by SN, dedup within the batch)
//	−:      Δ = ΔE₁ − ΔE₂        (within the batch)
//	⋈SN:    Δ = ΔE₁ ⋈ ΔE₂        (old⋈new terms empty: SNs are fresh)
//	γ(SN):  group the batch only  (new SNs form brand-new groups)
//	×R:     Δ = ΔE × R(version at the tuple's instant)
//	⋈key R: per-Δ-tuple key lookup
func Delta(n Node, d BatchDelta) []chronicle.Row {
	switch n := n.(type) {
	case *Scan:
		return d[n.C]
	case *Select:
		in := Delta(n.In, d)
		var out []chronicle.Row
		for _, r := range in {
			if n.P.Eval(r.Vals) {
				out = append(out, r)
			}
		}
		return out
	case *Project:
		in := Delta(n.In, d)
		out := make([]chronicle.Row, len(in))
		for i, r := range in {
			out[i] = chronicle.Row{SN: r.SN, Chronon: r.Chronon, LSN: r.LSN, Vals: r.Vals.Project(n.Cols)}
		}
		return out
	case *Union:
		return unionRows(Delta(n.L, d), Delta(n.R, d))
	case *Diff:
		return diffRows(Delta(n.L, d), Delta(n.R, d))
	case *JoinSN:
		return joinSN(Delta(n.L, d), Delta(n.R, d))
	case *GroupBySN:
		return groupBySN(n, Delta(n.In, d))
	case *CrossRel:
		return deltaCrossRel(n, Delta(n.In, d))
	case *JoinRel:
		return deltaJoinRel(n, Delta(n.In, d))
	default:
		panic(fmt.Sprintf("algebra: unknown node %T", n))
	}
}

// DeltaInto is Delta writing its output, when the operator permits, into
// scratch's backing array, so a view can reuse one delta buffer across
// batches. It returns the delta rows plus the buffer the caller should
// retain for the next batch; the two are distinct because a Scan delta *is*
// the batch's stored rows — those must never become the reuse buffer, or
// the next batch would overwrite rows the chronicle retains. The invariant:
// rows either starts at keep's backing array index 0 (so an enclosing
// operator may transform it in place, write index ≤ read index) or is
// entirely foreign and keep is untouched scratch. Operators with
// batch-local σ/Π output fill the buffer; everything else falls back to
// Delta and allocates as before.
func DeltaInto(n Node, d BatchDelta, scratch []chronicle.Row) (rows, keep []chronicle.Row) {
	switch n := n.(type) {
	case *Scan:
		return d[n.C], scratch
	case *Select:
		in, buf := DeltaInto(n.In, d, scratch)
		out := buf[:0]
		for _, r := range in {
			if n.P.Eval(r.Vals) {
				out = append(out, r)
			}
		}
		return out, out
	case *Project:
		in, buf := DeltaInto(n.In, d, scratch)
		out := buf[:0]
		for _, r := range in {
			out = append(out, chronicle.Row{SN: r.SN, Chronon: r.Chronon, LSN: r.LSN, Vals: r.Vals.Project(n.Cols)})
		}
		return out, out
	default:
		return Delta(n, d), scratch
	}
}

// deltaCrossRel pairs each input delta row with the relation version at the
// row's instant (Δ(E × R) = ΔE × R@t).
func deltaCrossRel(n *CrossRel, in []chronicle.Row) []chronicle.Row {
	var out []chronicle.Row
	for _, r := range in {
		n.R.ScanAsOf(r.LSN, func(rt value.Tuple) bool {
			out = append(out, concatRow(r, rt))
			return true
		})
	}
	return out
}

// deltaJoinRel joins each input delta row against the relation version at
// the row's instant (per-Δ-tuple key lookup when the join is on the key).
func deltaJoinRel(n *JoinRel, in []chronicle.Row) []chronicle.Row {
	var out []chronicle.Row
	for _, r := range in {
		for _, rt := range relMatches(n, r) {
			out = append(out, concatRow(r, rt))
		}
	}
	return out
}

// relMatches returns the relation tuples joining with row r, honoring the
// temporal-join semantics via the row's LSN. A key join is a single
// O(log|R|) lookup; a non-key join scans (the CA-but-not-CA⋈ cost).
func relMatches(n *JoinRel, r chronicle.Row) []value.Tuple {
	if n.onKey {
		keyCols := n.R.KeyCols()
		ordered := make(value.Tuple, len(keyCols))
		for i, kc := range keyCols {
			for j, rc := range n.RelCols {
				if rc == kc {
					ordered[i] = r.Vals[n.InCols[j]]
				}
			}
		}
		if t, ok := n.R.GetAsOf(r.LSN, ordered); ok {
			return []value.Tuple{t}
		}
		return nil
	}
	var out []value.Tuple
	n.R.ScanAsOf(r.LSN, func(rt value.Tuple) bool {
		for i, rc := range n.RelCols {
			if !value.Equal(r.Vals[n.InCols[i]], rt[rc]) {
				return true
			}
		}
		out = append(out, rt)
		return true
	})
	return out
}

func concatRow(r chronicle.Row, rel value.Tuple) chronicle.Row {
	vals := make(value.Tuple, 0, len(r.Vals)+len(rel))
	vals = append(vals, r.Vals...)
	vals = append(vals, rel...)
	return chronicle.Row{SN: r.SN, Chronon: r.Chronon, LSN: r.LSN, Vals: vals}
}

// rowKey identifies a row up to set semantics: sequence number plus tuple.
func rowKey(r chronicle.Row) string {
	return fmt.Sprintf("%d|%s", r.SN, r.Vals.FullKey())
}

// unionRows is l ∪ r under set semantics in SN order: a stable merge by SN —
// an SN's l-rows before its r-rows, which is what the union of that SN alone
// yields — then dedup. Concatenating l and r would interleave the SNs of a
// multi-SN batch out of order.
func unionRows(l, r []chronicle.Row) []chronicle.Row {
	out := make([]chronicle.Row, 0, len(l)+len(r))
	for len(l) > 0 && len(r) > 0 {
		if r[0].SN < l[0].SN {
			out, r = append(out, r[0]), r[1:]
		} else {
			out, l = append(out, l[0]), l[1:]
		}
	}
	out = append(append(out, l...), r...)
	return dedupRows(out)
}

// dedupRows removes duplicate (SN, tuple) pairs, keeping first occurrences
// in order.
func dedupRows(rows []chronicle.Row) []chronicle.Row {
	if len(rows) <= 1 {
		return rows
	}
	seen := make(map[string]bool, len(rows))
	out := rows[:0:0]
	for _, r := range rows {
		k := rowKey(r)
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, r)
	}
	return out
}

// diffRows returns l − r under set semantics.
func diffRows(l, r []chronicle.Row) []chronicle.Row {
	if len(l) == 0 {
		return nil
	}
	drop := make(map[string]bool, len(r))
	for _, row := range r {
		drop[rowKey(row)] = true
	}
	var out []chronicle.Row
	seen := make(map[string]bool, len(l))
	for _, row := range l {
		k := rowKey(row)
		if drop[k] || seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, row)
	}
	return out
}

// joinSN hash-joins two row sets on the sequencing attribute.
func joinSN(l, r []chronicle.Row) []chronicle.Row {
	if len(l) == 0 || len(r) == 0 {
		return nil
	}
	bySN := make(map[int64][]chronicle.Row, len(r))
	for _, row := range r {
		bySN[row.SN] = append(bySN[row.SN], row)
	}
	var out []chronicle.Row
	for _, lr := range l {
		for _, rr := range bySN[lr.SN] {
			out = append(out, concatRow(lr, rr.Vals))
		}
	}
	return dedupRows(out)
}

// groupBySN groups rows by (SN, GroupCols) and aggregates. Because grouping
// includes the sequencing attribute and batch SNs are fresh, the groups are
// complete within the batch ("the new inserted tuples form one or more
// brand new groups" — proof of Theorem 4.2). Groups come out in the order
// their first rows arrive: the input ascends in SN, so that is SN order, then
// encounter order within an SN.
func groupBySN(n *GroupBySN, in []chronicle.Row) []chronicle.Row {
	if len(in) == 0 {
		return nil
	}
	type grp struct {
		first  chronicle.Row
		states []aggregate.State
	}
	index := make(map[string]int)
	var groups []grp
	for _, r := range in {
		k := fmt.Sprintf("%d|%s", r.SN, r.Vals.Key(n.GroupCols))
		i, ok := index[k]
		if !ok {
			i = len(groups)
			index[k] = i
			groups = append(groups, grp{first: r, states: aggregate.NewStates(n.Aggs)})
		}
		aggregate.Apply(groups[i].states, n.Aggs, r.Vals)
	}
	out := make([]chronicle.Row, 0, len(groups))
	for _, g := range groups {
		vals := make(value.Tuple, 0, len(n.GroupCols)+len(n.Aggs))
		vals = append(vals, g.first.Vals.Project(n.GroupCols)...)
		vals = append(vals, aggregate.Results(g.states)...)
		out = append(out, chronicle.Row{SN: g.first.SN, Chronon: g.first.Chronon, LSN: g.first.LSN, Vals: vals})
	}
	return out
}
