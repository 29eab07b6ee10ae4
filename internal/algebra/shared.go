// Shared-delta planning: common-subexpression elimination across the view
// expressions of one engine. Views over the same group overwhelmingly share
// structure — the same σ filter, the same Π column list, the same key-join
// against a dimension relation — and the Δ-rules of Theorem 4.1 are purely
// structural, so two structurally identical subexpressions have identical
// deltas for every batch. A SharedPlan hash-conses every view expression
// into a DAG of interned nodes; per batch, each node's delta is computed at
// most once and fanned out to every view that consumes it, turning
// per-append maintenance cost from Σ(per-view tree cost) into the cost of
// the distinct subexpressions.
package algebra

import (
	"fmt"
	"sort"
	"strings"

	"chronicledb/internal/chronicle"
	"chronicledb/internal/pred"
	"chronicledb/internal/value"
)

// Fingerprint returns a structural key for an expression: two nodes with
// equal fingerprints compute equal deltas on every batch (and equal results
// under reference evaluation). Leaves key on object identity (the chronicle
// or relation pointer — names can be reused across engine generations, the
// objects cannot), interior nodes on operator plus parameters plus child
// fingerprints. Predicate constants are encoded with the type-tagged key
// encoding so `'1'` and `1` never collide.
func Fingerprint(n Node) string {
	var sb strings.Builder
	fingerprint(n, &sb)
	return sb.String()
}

func fingerprint(n Node, sb *strings.Builder) {
	switch n := n.(type) {
	case *Scan:
		fmt.Fprintf(sb, "scan(%p)", n.C)
	case *Select:
		sb.WriteString("sel[")
		predFingerprint(n.P, sb)
		sb.WriteString("](")
		fingerprint(n.In, sb)
		sb.WriteByte(')')
	case *Project:
		fmt.Fprintf(sb, "proj%v(", n.Cols)
		fingerprint(n.In, sb)
		sb.WriteByte(')')
	case *Union:
		sb.WriteString("union(")
		fingerprint(n.L, sb)
		sb.WriteByte(',')
		fingerprint(n.R, sb)
		sb.WriteByte(')')
	case *Diff:
		sb.WriteString("diff(")
		fingerprint(n.L, sb)
		sb.WriteByte(',')
		fingerprint(n.R, sb)
		sb.WriteByte(')')
	case *JoinSN:
		sb.WriteString("joinsn(")
		fingerprint(n.L, sb)
		sb.WriteByte(',')
		fingerprint(n.R, sb)
		sb.WriteByte(')')
	case *GroupBySN:
		fmt.Fprintf(sb, "group%v[", n.GroupCols)
		for i, a := range n.Aggs {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(sb, "%d:%d:%s", a.Func, a.Col, a.Name)
		}
		sb.WriteString("](")
		fingerprint(n.In, sb)
		sb.WriteByte(')')
	case *CrossRel:
		fmt.Fprintf(sb, "cross(%p)(", n.R)
		fingerprint(n.In, sb)
		sb.WriteByte(')')
	case *JoinRel:
		fmt.Fprintf(sb, "joinrel(%p)%v=%v(", n.R, n.InCols, n.RelCols)
		fingerprint(n.In, sb)
		sb.WriteByte(')')
	default:
		panic(fmt.Sprintf("algebra: unknown node %T", n))
	}
}

// predFingerprint renders a predicate structurally. Atom order matters (a
// disjunction is order-insensitive semantically, but treating reordered
// predicates as distinct only costs a missed sharing opportunity, never a
// wrong delta).
func predFingerprint(p pred.Predicate, sb *strings.Builder) {
	for i, a := range p.Atoms() {
		if i > 0 {
			sb.WriteByte('|')
		}
		fmt.Fprintf(sb, "%d %s ", a.Left, a.Op)
		if a.Right.IsCol {
			fmt.Fprintf(sb, "$%d", a.Right.Col)
		} else {
			sb.Write(value.AppendKey(nil, a.Right.Const))
		}
	}
}

// PlanNode is one interned subexpression of a SharedPlan: the unit of delta
// sharing. Identity: two structurally equal subexpressions anywhere in the
// plan's views are the same *PlanNode.
//
// The per-batch fields (epoch, rows, buf) are owned by the maintenance
// path, which the engine serializes under its mutation lock; everything
// else is immutable after the plan is built.
type PlanNode struct {
	// ID is the node's position in plan build order (stable across the
	// plan's lifetime; EXPLAIN surfaces it).
	ID int
	// Expr is a representative expression node (the first interned).
	Expr Node
	// Consumers is the number of views whose expression contains this node.
	Consumers int

	key      string
	children []*PlanNode

	// epoch stamps the batch rows was computed for; rows is valid only
	// while epoch equals the plan's current batch epoch. buf is the node's
	// persistent output buffer for σ, Π, key joins and groupings, reused
	// across batches so steady-state delta computation allocates nothing
	// (and released by a batch that needs under a quarter of it: see Reuse);
	// join is a key join's probe and value slab, and group a grouping's key,
	// index and word slab, reused the same way. Reuse is safe
	// because no consumer keeps a delta row past its round: a view's fold
	// encodes the key it keeps and steps states by value, and the changefeed
	// copies each frame (feed.Batch.Capture).
	epoch uint64
	rows  []chronicle.Row
	buf   []chronicle.Row
	join  joinScratch
	group groupScratch
}

// PlanNodeInfo describes one plan node for EXPLAIN.
type PlanNodeInfo struct {
	ID        int
	Consumers int
	Expr      string
}

// SharedPlan is the hash-consed delta DAG over a set of view expressions.
// Build it at DDL time (it is immutable structurally thereafter); evaluate
// it per batch under the engine's mutation lock — BeginBatch and DeltaFor
// are NOT safe for concurrent use.
type SharedPlan struct {
	nodes []*PlanNode
	byKey map[string]*PlanNode
	roots map[string]*PlanNode // view name -> root node

	epoch      uint64
	sharedHits int64
}

// NewSharedPlan returns an empty plan.
func NewSharedPlan() *SharedPlan {
	return &SharedPlan{
		byKey: make(map[string]*PlanNode),
		roots: make(map[string]*PlanNode),
	}
}

// AddView interns a view's expression into the DAG. Call once per view, in
// a deterministic order if stable node IDs matter (the engine sorts by view
// name).
func (p *SharedPlan) AddView(name string, expr Node) {
	touched := make(map[*PlanNode]bool)
	root := p.intern(expr, touched)
	for n := range touched {
		n.Consumers++
	}
	p.roots[name] = root
}

func (p *SharedPlan) intern(expr Node, touched map[*PlanNode]bool) *PlanNode {
	key := Fingerprint(expr)
	if n, ok := p.byKey[key]; ok {
		// Already interned: mark the whole reachable subgraph as touched by
		// this view (children were interned before their parent).
		p.markReachable(n, touched)
		return n
	}
	n := &PlanNode{Expr: expr, key: key}
	for _, c := range expr.children() {
		n.children = append(n.children, p.intern(c, touched))
	}
	// The ID is assigned at append time, after the children interned above
	// claimed theirs — so IDs are distinct and children number below parents.
	n.ID = len(p.nodes) + 1
	p.nodes = append(p.nodes, n)
	p.byKey[key] = n
	touched[n] = true
	return n
}

func (p *SharedPlan) markReachable(n *PlanNode, touched map[*PlanNode]bool) {
	if touched[n] {
		return
	}
	touched[n] = true
	for _, c := range n.children {
		p.markReachable(c, touched)
	}
}

// Views returns the number of view roots in the plan.
func (p *SharedPlan) Views() int { return len(p.roots) }

// Nodes returns the number of distinct interned subexpressions.
func (p *SharedPlan) Nodes() int { return len(p.nodes) }

// ViewNodes lists the plan nodes of one view's expression in post-order
// (children before parents, root last), for EXPLAIN. Nil when the view is
// not in the plan.
func (p *SharedPlan) ViewNodes(view string) []PlanNodeInfo {
	root, ok := p.roots[view]
	if !ok {
		return nil
	}
	var out []PlanNodeInfo
	seen := make(map[*PlanNode]bool)
	var walk func(n *PlanNode)
	walk = func(n *PlanNode) {
		if seen[n] {
			return
		}
		seen[n] = true
		for _, c := range n.children {
			walk(c)
		}
		out = append(out, PlanNodeInfo{ID: n.ID, Consumers: n.Consumers, Expr: n.Expr.String()})
	}
	walk(root)
	return out
}

// SharedNodes lists every node consumed by more than one view, by ID.
func (p *SharedPlan) SharedNodes() []PlanNodeInfo {
	var out []PlanNodeInfo
	for _, n := range p.nodes {
		if n.Consumers > 1 {
			out = append(out, PlanNodeInfo{ID: n.ID, Consumers: n.Consumers, Expr: n.Expr.String()})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// BeginBatch opens a new batch: previously cached node deltas become stale.
// The rows returned by DeltaFor during the previous batch — including the
// Scan leaves' aliases of the batch's stored rows — must no longer be
// referenced.
func (p *SharedPlan) BeginBatch() { p.epoch++ }

// TakeHits returns and resets the shared-hit counter: the number of times a
// node's delta was served from the batch cache instead of recomputed.
func (p *SharedPlan) TakeHits() int64 {
	h := p.sharedHits
	p.sharedHits = 0
	return h
}

// DeltaFor computes (or returns the batch-cached) expression delta for one
// view root. The rows are valid until the next BeginBatch and must be
// treated as immutable: they may be shared with other views, with the
// node's reuse buffer, or (for a bare Scan) with the chronicle's stored
// rows.
func (p *SharedPlan) DeltaFor(view string, d BatchDelta) ([]chronicle.Row, bool) {
	root, ok := p.roots[view]
	if !ok {
		return nil, false
	}
	return p.eval(root, d), true
}

// eval is Delta with per-batch memoization. σ/Π write into the node's
// persistent buffer (never into a child's cache — a child's rows may be
// shared with other parents, or alias chronicle storage); the remaining
// operators reuse the allocation behavior of Delta via the shared helpers.
func (p *SharedPlan) eval(n *PlanNode, d BatchDelta) []chronicle.Row {
	if n.epoch == p.epoch {
		p.sharedHits++
		return n.rows
	}
	n.epoch = p.epoch
	switch e := n.Expr.(type) {
	case *Scan:
		n.rows = d[e.C]
	case *Select:
		in := p.eval(n.children[0], d)
		out := Reuse(n.buf, len(in))
		for _, r := range in {
			if e.P.Eval(r.Vals) {
				out = append(out, r)
			}
		}
		n.buf, n.rows = out, out
	case *Project:
		in := p.eval(n.children[0], d)
		out := Reuse(n.buf, len(in))
		for _, r := range in {
			out = append(out, chronicle.Row{SN: r.SN, Chronon: r.Chronon, LSN: r.LSN, Vals: r.Vals.Project(e.Cols)})
		}
		n.buf, n.rows = out, out
	case *Union:
		l, r := p.eval(n.children[0], d), p.eval(n.children[1], d)
		n.rows = unionRows(l, r)
	case *Diff:
		l, r := p.eval(n.children[0], d), p.eval(n.children[1], d)
		n.rows = diffRows(l, r)
	case *JoinSN:
		l, r := p.eval(n.children[0], d), p.eval(n.children[1], d)
		n.rows = joinSN(l, r)
	case *GroupBySN:
		in := p.eval(n.children[0], d)
		n.buf = groupBySN(e, in, Reuse(n.buf, len(in)), &n.group)
		n.rows = n.buf
	case *CrossRel:
		n.rows = deltaCrossRel(e, p.eval(n.children[0], d), &e.Work)
	case *JoinRel:
		in := p.eval(n.children[0], d)
		n.buf = deltaJoinRel(e, in, Reuse(n.buf, len(in)), &n.join, &e.Work)
		n.rows = n.buf
	default:
		panic(fmt.Sprintf("algebra: unknown node %T", n.Expr))
	}
	return n.rows
}
