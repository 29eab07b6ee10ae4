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
	"encoding/binary"
	"fmt"
	"sort"

	"chronicledb/internal/chronicle"
	"chronicledb/internal/keyenc"
)

// Fingerprint returns a structural key for an expression: two nodes with
// equal fingerprints compute equal deltas on every batch (and equal results
// under reference evaluation). Leaves key on object identity (the chronicle
// or relation pointer — names can be reused across engine generations, the
// objects cannot), interior nodes on operator plus parameters plus child
// fingerprints. Predicate constants are in their keyenc encoding, so `'1'`
// and `1` never collide.
func Fingerprint(n Node) string { return string(appendFingerprint(nil, n)) }

func appendFingerprint(dst []byte, n Node) []byte {
	op, obj := operator(n)
	dst = append(dst, op)
	if obj != nil {
		dst = fmt.Appendf(dst, "%p;", obj)
	}
	dst = appendParams(dst, n)
	dst = append(dst, '(')
	for i, c := range n.children() {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendFingerprint(dst, c)
	}
	return append(dst, ')')
}

// operator names n's operator, and the chronicle or relation it reads,
// which a leaf or a relation operator keys on by identity.
func operator(n Node) (op byte, obj any) {
	switch n := n.(type) {
	case *Scan:
		return 's', n.C
	case *Select:
		return 'f', nil
	case *Project:
		return 'p', nil
	case *Union:
		return 'u', nil
	case *Diff:
		return 'd', nil
	case *JoinSN:
		return 'j', nil
	case *GroupBySN:
		return 'g', nil
	case *CrossRel:
		return 'x', n.R
	case *JoinRel:
		return 'r', n.R
	}
	panic(fmt.Sprintf("algebra: unknown node %T", n))
}

// appendParams appends n's own parameters — not its children's — to dst,
// each list behind its length and each constant as its self-delimiting
// keyenc encoding, so two different parameter sets of one operator never
// encode alike. Atom order matters (a disjunction is order-insensitive
// semantically, but treating reordered predicates as distinct only costs a
// missed sharing opportunity, never a wrong delta).
func appendParams(dst []byte, n Node) []byte {
	ints := func(dst []byte, xs []int) []byte {
		dst = binary.AppendUvarint(dst, uint64(len(xs)))
		for _, x := range xs {
			dst = binary.AppendVarint(dst, int64(x))
		}
		return dst
	}
	switch n := n.(type) {
	case *Select:
		atoms := n.P.Atoms()
		dst = binary.AppendUvarint(dst, uint64(len(atoms)))
		for _, a := range atoms {
			dst = append(binary.AppendVarint(dst, int64(a.Left)), byte(a.Op))
			if a.Right.IsCol {
				dst = binary.AppendVarint(append(dst, 'c'), int64(a.Right.Col))
			} else {
				dst = keyenc.AppendValue(append(dst, 'k'), a.Right.Const)
			}
		}
	case *Project:
		dst = ints(dst, n.Cols)
	case *GroupBySN:
		dst = binary.AppendUvarint(ints(dst, n.GroupCols), uint64(len(n.Aggs)))
		for _, a := range n.Aggs {
			dst = binary.AppendVarint(binary.AppendUvarint(dst, uint64(a.Func)), int64(a.Col))
			dst = append(binary.AppendUvarint(dst, uint64(len(a.Name))), a.Name...)
		}
	case *JoinRel:
		dst = ints(ints(dst, n.InCols), n.RelCols)
	}
	return dst
}

// nodeKey is what a plan node is hash-consed by: its operator, the object a
// leaf or relation operator reads, its own parameters, and its children's
// node ids. Children are interned first, and two live nodes never share an
// id, so equal keys are structurally equal subexpressions — and a key is
// built from the node alone, never from its subtree.
type nodeKey struct {
	op     byte
	obj    any
	params string
	l, r   int // the children's ids; 0 for none
}

// PlanNode is one interned subexpression of a SharedPlan: the unit of delta
// sharing. Identity: two structurally equal subexpressions anywhere in the
// plan's views are the same *PlanNode.
//
// The per-batch fields (epoch, rows, buf) are owned by the maintenance
// path, which the engine serializes under its mutation lock, as it does
// the plan's DDL.
type PlanNode struct {
	// ID numbers the node in creation order: it is never reused in the
	// plan's lifetime, and children number below parents. EXPLAIN surfaces
	// it.
	ID int
	// Expr is a representative expression node (the first interned).
	Expr Node
	// Consumers is the number of views whose expression contains this node.
	Consumers int

	key      nodeKey
	children []*PlanNode
	pos      int // the node's index in the plan's nodes

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
	// Work is what the node's own deltas have read of its relation, zero
	// but for a relation operator. The plan counts it on the expression
	// the node was interned from, the first view's that held it, so a
	// view's own expression counts nothing its node shares.
	Work RelWork
}

// info describes n.
func (n *PlanNode) info() PlanNodeInfo {
	in := PlanNodeInfo{ID: n.ID, Consumers: n.Consumers, Expr: n.Expr.String()}
	switch e := n.Expr.(type) {
	case *CrossRel:
		in.Work = e.Work
	case *JoinRel:
		in.Work = e.Work
	}
	return in
}

// SharedPlan is the hash-consed delta DAG over a set of view expressions.
// It changes one view at a time: AddView interns the nodes of the view's
// expression that are new and counts the view in each of its nodes,
// DropView counts it out and unlinks the nodes no view holds any more, so a
// DDL statement costs its own expression, whatever the plan holds. Nothing
// here is safe for concurrent use: the engine changes and evaluates the
// plan under its mutation lock, and reads it (ViewNodes) under the read
// side.
type SharedPlan struct {
	nodes []*PlanNode // the live nodes, in no order (PlanNode.pos)
	byKey map[nodeKey]*PlanNode
	roots map[string]*PlanNode // view name -> root node

	lastID int   // the id of the newest node
	keyed  int64 // nodes keyed by AddView, ever

	epoch      uint64
	sharedHits int64
}

// NewSharedPlan returns an empty plan.
func NewSharedPlan() *SharedPlan {
	return &SharedPlan{
		byKey: make(map[nodeKey]*PlanNode),
		roots: make(map[string]*PlanNode),
	}
}

// AddView interns a view's expression into the DAG and counts the view in
// every distinct node of it; a view already in the plan under name is
// replaced. It keys each node of expr once and no other.
func (p *SharedPlan) AddView(name string, expr Node) {
	p.DropView(name)
	root := p.intern(expr)
	p.roots[name] = root
	for _, n := range reach(root) {
		n.Consumers++
	}
}

// DropView counts a view out of its nodes and unlinks those it was the last
// consumer of, with their scratch. A name not in the plan is a no-op.
func (p *SharedPlan) DropView(name string) {
	root, ok := p.roots[name]
	if !ok {
		return
	}
	delete(p.roots, name)
	for _, n := range reach(root) {
		if n.Consumers--; n.Consumers > 0 {
			continue
		}
		// Every node above n in the DAG is held by a subset of n's views,
		// so it goes in this drop too: nothing live points at n.
		delete(p.byKey, n.key)
		last := p.nodes[len(p.nodes)-1]
		p.nodes[n.pos], last.pos = last, n.pos
		p.nodes[len(p.nodes)-1] = nil
		p.nodes = p.nodes[:len(p.nodes)-1]
		n.children, n.rows, n.buf, n.join, n.group = nil, nil, nil, joinScratch{}, groupScratch{}
	}
}

// intern returns the node of expr, interning its children first and then,
// keyed by them, expr itself when no node has its key.
func (p *SharedPlan) intern(expr Node) *PlanNode {
	key := nodeKey{params: string(appendParams(nil, expr))}
	key.op, key.obj = operator(expr)
	var children []*PlanNode
	for i, c := range expr.children() {
		cn := p.intern(c)
		children = append(children, cn)
		if i == 0 {
			key.l = cn.ID
		} else {
			key.r = cn.ID
		}
	}
	p.keyed++
	if n, ok := p.byKey[key]; ok {
		return n
	}
	// The ID is assigned after the children interned above claimed theirs —
	// so IDs are distinct and children number below parents.
	p.lastID++
	n := &PlanNode{ID: p.lastID, Expr: expr, key: key, children: children, pos: len(p.nodes)}
	p.nodes = append(p.nodes, n)
	p.byKey[key] = n
	return n
}

// reach lists the distinct nodes reachable from root in post-order,
// children before parents, root last.
func reach(root *PlanNode) []*PlanNode {
	var out []*PlanNode
	seen := make(map[*PlanNode]bool)
	var visit func(n *PlanNode)
	visit = func(n *PlanNode) {
		if seen[n] {
			return
		}
		seen[n] = true
		for _, c := range n.children {
			visit(c)
		}
		out = append(out, n)
	}
	visit(root)
	return out
}

// Keyed returns how many expression nodes AddView has keyed in the plan's
// lifetime: one per node of each expression added.
func (p *SharedPlan) Keyed() int64 { return p.keyed }

// Views returns the number of view roots in the plan.
func (p *SharedPlan) Views() int { return len(p.roots) }

// Nodes returns the number of distinct interned subexpressions.
func (p *SharedPlan) Nodes() int { return len(p.nodes) }

// ViewNodes lists the plan nodes of one view's expression in post-order
// (children before parents, root last), for EXPLAIN. Nil when the view is
// not in the plan. It changes nothing, so readers may call it together.
func (p *SharedPlan) ViewNodes(view string) []PlanNodeInfo {
	root, ok := p.roots[view]
	if !ok {
		return nil
	}
	var out []PlanNodeInfo
	for _, n := range reach(root) {
		out = append(out, n.info())
	}
	return out
}

// SharedNodes lists every node consumed by more than one view, by ID.
func (p *SharedPlan) SharedNodes() []PlanNodeInfo {
	var out []PlanNodeInfo
	for _, n := range p.nodes {
		if n.Consumers > 1 {
			out = append(out, n.info())
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
