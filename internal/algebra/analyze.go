package algebra

import (
	"chronicledb/internal/chronicle"
	"chronicledb/internal/pred"
	"chronicledb/internal/relation"
)

// Lang is the chronicle-algebra fragment an expression belongs to
// (Definitions 4.1 and 4.2).
type Lang uint8

const (
	// LangCA1 is CA₁: no chronicle–relation operation at all.
	LangCA1 Lang = iota
	// LangCAKey is CA⋈: relation access only through key joins.
	LangCAKey
	// LangCA is full CA: cross products (or non-key joins) with relations.
	LangCA
)

// String names the fragment as in the paper.
func (l Lang) String() string {
	switch l {
	case LangCA1:
		return "CA1"
	case LangCAKey:
		return "CA⋈"
	default:
		return "CA"
	}
}

// IMClass is an incremental-maintenance complexity class (Section 3).
type IMClass uint8

const (
	// IMConstant: maintenance in constant time per append.
	IMConstant IMClass = iota
	// IMLogR: maintenance in time logarithmic in the relation sizes.
	IMLogR
	// IMRk: maintenance in time polynomial in the relation sizes.
	IMRk
	// IMCk: maintenance may need time polynomial in the chronicle size —
	// the class full relational algebra falls into (Proposition 3.1), and
	// the class every recompute baseline lives in.
	IMCk
)

// String names the class as in the paper.
func (c IMClass) String() string {
	switch c {
	case IMConstant:
		return "IM-Constant"
	case IMLogR:
		return "IM-log(R)"
	case IMRk:
		return "IM-R^k"
	default:
		return "IM-C^k"
	}
}

// Info summarizes the static analysis of a chronicle algebra expression:
// its language fragment and the parameters u (unions) and j (equijoins and
// cross products) of Theorem 4.2's bounds
//
//	CA:  Time = O((u·|R|)^j · log|R|)   Space = O((u·|R|)^j)
//	CA⋈: Time = O(u^j · log|R|)         Space = O(u^j)
//	CA₁: Time = O(u^j)                  Space = O(u^j)
type Info struct {
	Lang       Lang
	Unions     int // u
	Joins      int // j: SN-joins + relation joins + cross products
	Nodes      int
	Depth      int
	Chronicles []*chronicle.Chronicle
	Relations  []*relation.Relation
}

// IMClass returns the maintenance class of a summarized (SCA) view over
// this expression, per Theorem 4.5: SCA₁ ⊆ IM-Constant, SCA⋈ ⊆ IM-log(R),
// SCA ⊆ IM-Rᵏ.
func (i Info) IMClass() IMClass {
	switch i.Lang {
	case LangCA1:
		return IMConstant
	case LangCAKey:
		return IMLogR
	default:
		return IMRk
	}
}

// Analyze walks the expression and computes its Info.
func Analyze(n Node) Info {
	info := Info{Lang: LangCA1}
	seenC := map[*chronicle.Chronicle]bool{}
	seenR := map[*relation.Relation]bool{}
	var walk func(n Node, depth int)
	walk = func(n Node, depth int) {
		info.Nodes++
		if depth > info.Depth {
			info.Depth = depth
		}
		switch n := n.(type) {
		case *Scan:
			if !seenC[n.C] {
				seenC[n.C] = true
				info.Chronicles = append(info.Chronicles, n.C)
			}
		case *Union:
			info.Unions++
		case *JoinSN:
			info.Joins++
		case *CrossRel:
			info.Joins++
			info.Lang = LangCA
			if !seenR[n.R] {
				seenR[n.R] = true
				info.Relations = append(info.Relations, n.R)
			}
		case *JoinRel:
			info.Joins++
			if n.OnKey() {
				if info.Lang == LangCA1 {
					info.Lang = LangCAKey
				}
			} else {
				info.Lang = LangCA
			}
			if !seenR[n.R] {
				seenR[n.R] = true
				info.Relations = append(info.Relations, n.R)
			}
		}
		for _, c := range n.children() {
			walk(c, depth+1)
		}
	}
	walk(n, 1)
	return info
}

// DispatchFilter is the Section 5.2 dispatch filter an expression's own
// definition gives it: an append to base whose rows all fail filter cannot
// affect the expression. It walks down to the base scan through σ nodes,
// projections, GROUP BY SN and the left input of SN-joins, relation joins and
// cross products, and takes the σ nearest the scan that tests a column of
// base for equality with a constant and has only σ nodes and left join inputs
// between it and the scan. A union or a difference on the way, or no such σ,
// gives the true filter and a nil base.
func DispatchFilter(n Node) (filter pred.Predicate, base *chronicle.Chronicle) {
	var path []pred.Predicate // the σ predicates below the last Π or GROUP BY, top down
	for {
		switch m := n.(type) {
		case *Select:
			path = append(path, m.P)
			n = m.In
		case *Project:
			path, n = path[:0], m.In
		case *GroupBySN:
			path, n = path[:0], m.In
		case *JoinSN:
			n = m.L
		case *JoinRel:
			n = m.In
		case *CrossRel:
			n = m.In
		case *Scan:
			for i := len(path) - 1; i >= 0; i-- {
				if col, k, ok := path[i].EqualityConstant(); ok && col < m.C.Schema().Len() {
					return pred.Or(pred.ColConst(col, pred.Eq, k)), m.C
				}
			}
			return pred.True(), nil
		default: // a union or a difference
			return pred.True(), nil
		}
	}
}

// KeySource traces cols, columns of n's output, through a chain of σ and Π
// to the scan they are read from: every row of n carries, at cols, the
// values its base row holds at base. ok is false when the chain meets any
// other operator. Views that group by one key source meet the same keys
// whatever their σ, so they can share a key directory.
func KeySource(n Node, cols []int) (scan *Scan, base []int, ok bool) {
	base = append([]int(nil), cols...)
	for {
		switch m := n.(type) {
		case *Select:
			n = m.In
		case *Project:
			for i, c := range base {
				base[i] = m.Cols[c]
			}
			n = m.In
		case *Scan:
			return m, base, true
		default:
			return nil, nil, false
		}
	}
}
