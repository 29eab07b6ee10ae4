// Package algebra implements the chronicle algebra (CA) of Section 4 of the
// paper, its restrictions CA⋈ and CA₁, incremental delta propagation per the
// proof of Theorem 4.1, and a from-scratch reference evaluator used by
// baselines and the test suite.
//
// A chronicle algebra expression maps chronicles (and relations) to a
// chronicle: every node's output rows carry a sequence number, a chronon,
// and an LSN alongside their attribute tuple. The operators are exactly
// those of Definition 4.1: selection, SN-preserving projection, natural
// equijoin on the sequencing attribute, union, difference, grouping that
// includes the sequencing attribute, and the (temporal) product or key-join
// with a relation. Operations that would break chronicle-hood — projecting
// out SN, grouping without SN, chronicle×chronicle products, non-equijoins
// on SN — are unrepresentable here, which is the paper's Theorem 4.3 turned
// into an API.
package algebra

import (
	"fmt"
	"strings"

	"chronicledb/internal/aggregate"
	"chronicledb/internal/chronicle"
	"chronicledb/internal/pred"
	"chronicledb/internal/relation"
	"chronicledb/internal/value"
)

// Node is one operator of a chronicle algebra expression tree.
type Node interface {
	// Schema is the attribute schema of the node's output rows (the
	// sequencing attribute and chronon ride alongside, outside the tuple).
	Schema() *value.Schema
	// Group is the chronicle group the expression's output belongs to
	// (Lemma 4.1: every CA view is a chronicle in the operands' group).
	Group() *chronicle.Group
	// String renders the expression for EXPLAIN output.
	String() string

	children() []Node
}

// Scan is the leaf node: a base chronicle.
type Scan struct {
	C *chronicle.Chronicle
}

// NewScan returns a leaf over the given base chronicle.
func NewScan(c *chronicle.Chronicle) *Scan { return &Scan{C: c} }

func (s *Scan) Schema() *value.Schema   { return s.C.Schema() }
func (s *Scan) Group() *chronicle.Group { return s.C.Group() }
func (s *Scan) String() string          { return s.C.Name() }
func (s *Scan) children() []Node        { return nil }

// Select is σ_p(C): tuples of C satisfying the Definition-4.1 predicate.
type Select struct {
	In Node
	P  pred.Predicate
}

// NewSelect validates the predicate against the input schema.
func NewSelect(in Node, p pred.Predicate) (*Select, error) {
	if max := p.MaxColumn(); max >= in.Schema().Len() {
		return nil, fmt.Errorf("algebra: select predicate references column %d of %d-column input", max, in.Schema().Len())
	}
	return &Select{In: in, P: p}, nil
}

func (s *Select) Schema() *value.Schema   { return s.In.Schema() }
func (s *Select) Group() *chronicle.Group { return s.In.Group() }
func (s *Select) children() []Node        { return []Node{s.In} }
func (s *Select) String() string {
	return fmt.Sprintf("σ[%s](%s)", s.P.String(s.In.Schema()), s.In)
}

// Project is Π over attributes that (implicitly) include the sequencing
// attribute: SN and chronon are always carried through.
type Project struct {
	In   Node
	Cols []int

	schema *value.Schema
}

// NewProject validates the column list.
func NewProject(in Node, cols []int) (*Project, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("algebra: projection must keep at least one column")
	}
	for _, c := range cols {
		if c < 0 || c >= in.Schema().Len() {
			return nil, fmt.Errorf("algebra: projection column %d out of range", c)
		}
	}
	return &Project{In: in, Cols: append([]int(nil), cols...), schema: in.Schema().Project(cols)}, nil
}

func (p *Project) Schema() *value.Schema   { return p.schema }
func (p *Project) Group() *chronicle.Group { return p.In.Group() }
func (p *Project) children() []Node        { return []Node{p.In} }
func (p *Project) String() string {
	return fmt.Sprintf("Π[SN,%s](%s)", strings.Join(p.schema.Names(), ","), p.In)
}

// Union is C₁ ∪ C₂ over chronicles of the same group and type. Set
// semantics: duplicate (SN, tuple) pairs appear once.
type Union struct {
	L, R Node
}

// NewUnion validates group and schema compatibility.
func NewUnion(l, r Node) (*Union, error) {
	if l.Group() != r.Group() {
		return nil, fmt.Errorf("algebra: union operands belong to different chronicle groups")
	}
	if !l.Schema().Equal(r.Schema()) {
		return nil, fmt.Errorf("algebra: union operands have different types: %s vs %s", l.Schema(), r.Schema())
	}
	return &Union{L: l, R: r}, nil
}

func (u *Union) Schema() *value.Schema   { return u.L.Schema() }
func (u *Union) Group() *chronicle.Group { return u.L.Group() }
func (u *Union) children() []Node        { return []Node{u.L, u.R} }
func (u *Union) String() string          { return fmt.Sprintf("(%s ∪ %s)", u.L, u.R) }

// Diff is C₁ − C₂ over chronicles of the same group and type.
type Diff struct {
	L, R Node
}

// NewDiff validates group and schema compatibility.
func NewDiff(l, r Node) (*Diff, error) {
	if l.Group() != r.Group() {
		return nil, fmt.Errorf("algebra: difference operands belong to different chronicle groups")
	}
	if !l.Schema().Equal(r.Schema()) {
		return nil, fmt.Errorf("algebra: difference operands have different types: %s vs %s", l.Schema(), r.Schema())
	}
	return &Diff{L: l, R: r}, nil
}

func (d *Diff) Schema() *value.Schema   { return d.L.Schema() }
func (d *Diff) Group() *chronicle.Group { return d.L.Group() }
func (d *Diff) children() []Node        { return []Node{d.L, d.R} }
func (d *Diff) String() string          { return fmt.Sprintf("(%s − %s)", d.L, d.R) }

// JoinSN is the natural equijoin of two chronicles of one group on the
// sequencing attribute; one SN is projected out of the result (we carry SN
// outside the tuple, so the output schema is simply the concatenation).
type JoinSN struct {
	L, R Node

	schema *value.Schema
}

// NewJoinSN validates that both operands share a chronicle group.
func NewJoinSN(l, r Node) (*JoinSN, error) {
	if l.Group() != r.Group() {
		return nil, fmt.Errorf("algebra: SN-join operands belong to different chronicle groups")
	}
	return &JoinSN{L: l, R: r, schema: l.Schema().Concat(r.Schema(), "r.")}, nil
}

func (j *JoinSN) Schema() *value.Schema   { return j.schema }
func (j *JoinSN) Group() *chronicle.Group { return j.L.Group() }
func (j *JoinSN) children() []Node        { return []Node{j.L, j.R} }
func (j *JoinSN) String() string          { return fmt.Sprintf("(%s ⋈SN %s)", j.L, j.R) }

// GroupBySN is GROUPBY(C, GL, AL) where the grouping list GL includes the
// sequencing attribute (Definition 4.1). GroupCols lists the additional
// grouping attributes; SN is always part of the group key.
type GroupBySN struct {
	In        Node
	GroupCols []int
	Aggs      []aggregate.Spec

	schema *value.Schema
	layout *aggregate.Layout // Aggs over their input kinds
}

// NewGroupBySN validates grouping columns and aggregation specs.
func NewGroupBySN(in Node, groupCols []int, aggs []aggregate.Spec) (*GroupBySN, error) {
	inSchema := in.Schema()
	for _, c := range groupCols {
		if c < 0 || c >= inSchema.Len() {
			return nil, fmt.Errorf("algebra: grouping column %d out of range", c)
		}
	}
	if len(aggs) == 0 {
		return nil, fmt.Errorf("algebra: grouping requires at least one aggregation")
	}
	cols := make([]value.Column, 0, len(groupCols)+len(aggs))
	for _, c := range groupCols {
		cols = append(cols, inSchema.Col(c))
	}
	inKinds := make([]value.Kind, 0, len(aggs))
	for _, a := range aggs {
		if a.Col >= inSchema.Len() || (a.Col < 0 && a.Func != aggregate.Count) {
			return nil, fmt.Errorf("algebra: aggregation %s references column %d out of range", a.Func, a.Col)
		}
		in := value.KindInt
		if a.Col >= 0 {
			in = inSchema.Col(a.Col).Kind
		}
		if a.Name == "" {
			return nil, fmt.Errorf("algebra: aggregation %s needs an output name", a.Func)
		}
		inKinds = append(inKinds, in)
		cols = append(cols, value.Column{Name: a.Name, Kind: a.ResultKind(in)})
	}
	layout, err := aggregate.NewLayout(aggs, inKinds)
	if err != nil {
		return nil, fmt.Errorf("algebra: %w", err)
	}
	seen := map[string]bool{}
	for _, c := range cols {
		if seen[c.Name] {
			return nil, fmt.Errorf("algebra: grouping output column %q duplicated", c.Name)
		}
		seen[c.Name] = true
	}
	return &GroupBySN{
		In:        in,
		GroupCols: append([]int(nil), groupCols...),
		Aggs:      append([]aggregate.Spec(nil), aggs...),
		schema:    value.NewSchema(cols...),
		layout:    layout,
	}, nil
}

func (g *GroupBySN) Schema() *value.Schema   { return g.schema }
func (g *GroupBySN) Group() *chronicle.Group { return g.In.Group() }
func (g *GroupBySN) children() []Node        { return []Node{g.In} }
func (g *GroupBySN) String() string {
	aggs := make([]string, len(g.Aggs))
	for i, a := range g.Aggs {
		aggs[i] = a.String(g.In.Schema())
	}
	groups := make([]string, 0, len(g.GroupCols)+1)
	groups = append(groups, "SN")
	for _, c := range g.GroupCols {
		groups = append(groups, g.In.Schema().Col(c).Name)
	}
	return fmt.Sprintf("γ[%s; %s](%s)", strings.Join(groups, ","), strings.Join(aggs, ","), g.In)
}

// CrossRel is C × R: the (implicitly temporal) product of a chronicle
// expression with a relation. Each chronicle tuple pairs with every tuple of
// the relation version at the chronicle tuple's instant (Section 2.3).
// CrossRel keeps an expression in CA but not in CA⋈: its delta costs
// O(|R|) per chronicle tuple, which is what Theorem 4.5's IM-Rᵏ bound allows.
type CrossRel struct {
	In Node
	R  *relation.Relation
	// Work is what maintenance deltas through this node have read of R.
	Work RelWork

	schema *value.Schema
}

// NewCrossRel builds the temporal product node.
func NewCrossRel(in Node, r *relation.Relation) (*CrossRel, error) {
	if r == nil {
		return nil, fmt.Errorf("algebra: cross product requires a relation")
	}
	return &CrossRel{In: in, R: r, schema: in.Schema().Concat(r.Schema(), r.Name()+".")}, nil
}

func (c *CrossRel) Schema() *value.Schema   { return c.schema }
func (c *CrossRel) Group() *chronicle.Group { return c.In.Group() }
func (c *CrossRel) children() []Node        { return []Node{c.In} }
func (c *CrossRel) String() string          { return fmt.Sprintf("(%s × %s)", c.In, c.R.Name()) }

// JoinRel is the CA⋈ replacement for CrossRel (Definition 4.2): an equijoin
// of chronicle attributes with relation attributes. When RelCols is the
// relation's key, at most one relation tuple joins with each chronicle
// tuple and the delta costs O(log|R|) — the IM-log(R) guarantee. Non-key
// joins are permitted but classify the expression as plain CA.
type JoinRel struct {
	In      Node
	R       *relation.Relation
	InCols  []int // chronicle-side join columns
	RelCols []int // relation-side join columns
	// Work is what maintenance deltas through this node have read of R.
	Work RelWork

	schema *value.Schema
	onKey  bool
	keyIn  []int // with onKey: the chronicle-side column of each relation key column, in key order
}

// NewJoinRel validates the join columns and records whether the join is on
// the relation's key.
func NewJoinRel(in Node, r *relation.Relation, inCols, relCols []int) (*JoinRel, error) {
	if r == nil {
		return nil, fmt.Errorf("algebra: relation join requires a relation")
	}
	if len(inCols) == 0 || len(inCols) != len(relCols) {
		return nil, fmt.Errorf("algebra: relation join needs matching, non-empty column lists")
	}
	for _, c := range inCols {
		if c < 0 || c >= in.Schema().Len() {
			return nil, fmt.Errorf("algebra: join column %d out of chronicle range", c)
		}
	}
	for i, c := range relCols {
		if c < 0 || c >= r.Schema().Len() {
			return nil, fmt.Errorf("algebra: join column %d out of relation range", c)
		}
		ck, rk := in.Schema().Col(inCols[i]).Kind, r.Schema().Col(c).Kind
		numeric := func(k value.Kind) bool { return k == value.KindInt || k == value.KindFloat }
		if ck != rk && !(numeric(ck) && numeric(rk)) {
			return nil, fmt.Errorf("algebra: join column kinds differ: %s vs %s", ck, rk)
		}
	}
	j := &JoinRel{
		In:      in,
		R:       r,
		InCols:  append([]int(nil), inCols...),
		RelCols: append([]int(nil), relCols...),
		schema:  in.Schema().Concat(r.Schema(), r.Name()+"."),
		onKey:   r.IsKey(relCols),
	}
	if j.onKey {
		for _, kc := range r.KeyCols() {
			for i, c := range relCols {
				if c == kc {
					j.keyIn = append(j.keyIn, inCols[i])
				}
			}
		}
	}
	return j, nil
}

// OnKey reports whether the join is on the relation's key — Definition
// 4.2's sufficient condition for CA⋈ membership.
func (j *JoinRel) OnKey() bool { return j.onKey }

func (j *JoinRel) Schema() *value.Schema   { return j.schema }
func (j *JoinRel) Group() *chronicle.Group { return j.In.Group() }
func (j *JoinRel) children() []Node        { return []Node{j.In} }
func (j *JoinRel) String() string {
	parts := make([]string, len(j.InCols))
	for i := range j.InCols {
		parts[i] = fmt.Sprintf("%s=%s", j.In.Schema().Col(j.InCols[i]).Name, j.R.Schema().Col(j.RelCols[i]).Name)
	}
	op := "⋈"
	if !j.onKey {
		op = "⋈(non-key)"
	}
	return fmt.Sprintf("(%s %s[%s] %s)", j.In, op, strings.Join(parts, ","), j.R.Name())
}
