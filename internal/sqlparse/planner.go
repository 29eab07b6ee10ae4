package sqlparse

import (
	"fmt"
	"strings"

	"chronicledb/internal/aggregate"
	"chronicledb/internal/algebra"
	"chronicledb/internal/calendar"
	"chronicledb/internal/chronicle"
	"chronicledb/internal/pred"
	"chronicledb/internal/relation"
	"chronicledb/internal/value"
	"chronicledb/internal/view"
)

// Catalog is what the planner needs from the engine.
type Catalog interface {
	Chronicle(name string) (*chronicle.Chronicle, bool)
	Relation(name string) (*relation.Relation, bool)
}

// ViewPlan is a lowered CREATE VIEW: an SCA definition plus periodic
// metadata. The engine works out the view's dispatch filter from the
// definition (algebra.DispatchFilter).
type ViewPlan struct {
	Def view.Def
	// Periodic is non-nil for CREATE PERIODIC VIEW.
	Periodic *PeriodicPlan
	Info     algebra.Info
}

// PeriodicPlan carries the calendar of a periodic view.
type PeriodicPlan struct {
	Calendar    *calendar.Periodic
	ExpireAfter int64 // -1 keeps instances forever
}

// resolver maps (qualifier, name) to a column index of the current
// expression schema. Concat may rename clashing columns, but positions are
// stable, so the resolver tracks provenance by position.
type resolver struct {
	cols []sourcedCol
}

type sourcedCol struct {
	source string // contributing chronicle/relation name
	name   string // original column name
}

func (r *resolver) add(source string, names []string) {
	for _, n := range names {
		r.cols = append(r.cols, sourcedCol{source: source, name: n})
	}
}

func (r *resolver) resolve(c ColRef) (int, error) {
	found := -1
	for i, sc := range r.cols {
		if sc.name != c.Name {
			continue
		}
		if c.Table != "" && sc.source != c.Table {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("sql: ambiguous column %s (qualify it)", refString(c))
		}
		found = i
	}
	if found < 0 {
		return 0, fmt.Errorf("sql: unknown column %s", refString(c))
	}
	return found, nil
}

func refString(c ColRef) string {
	if c.Table != "" {
		return c.Table + "." + c.Name
	}
	return c.Name
}

// PlanView lowers a CREATE VIEW statement into summarized chronicle
// algebra. It rejects — with the paper's justification — any construct
// outside SCA: joins between chronicles, non-equijoins with relations, and
// grouping semantics the summarization step cannot express.
func PlanView(cat Catalog, s *CreateView) (*ViewPlan, error) {
	base, ok := cat.Chronicle(s.From)
	if !ok {
		if _, isRel := cat.Relation(s.From); isRel {
			return nil, fmt.Errorf("sql: %s is a relation; persistent views are defined over chronicles", s.From)
		}
		return nil, fmt.Errorf("sql: unknown chronicle %q", s.From)
	}
	var expr algebra.Node = algebra.NewScan(base)
	res := &resolver{}
	res.add(s.From, base.Schema().Names())

	// Joins.
	for _, jc := range s.Joins {
		if jc.OnSN {
			other, ok := cat.Chronicle(jc.Relation)
			if !ok {
				return nil, fmt.Errorf("sql: ON SN joins chronicles; %q is not a chronicle", jc.Relation)
			}
			je, err := algebra.NewJoinSN(expr, algebra.NewScan(other))
			if err != nil {
				return nil, fmt.Errorf("sql: %w", err)
			}
			expr = je
			res.add(jc.Relation, other.Schema().Names())
			continue
		}
		rel, ok := cat.Relation(jc.Relation)
		if !ok {
			if _, isChr := cat.Chronicle(jc.Relation); isChr {
				return nil, fmt.Errorf("sql: cannot join chronicle %q on attributes: only the natural equijoin on the sequencing attribute (JOIN %s ON SN) stays inside the chronicle algebra (Theorem 4.3)", jc.Relation, jc.Relation)
			}
			return nil, fmt.Errorf("sql: unknown relation %q", jc.Relation)
		}
		if jc.Cross {
			ce, err := algebra.NewCrossRel(expr, rel)
			if err != nil {
				return nil, fmt.Errorf("sql: %w", err)
			}
			expr = ce
		} else {
			var inCols, relCols []int
			for _, c := range jc.On {
				if c.Op != "=" {
					return nil, fmt.Errorf("sql: join condition %s %s …: only equijoins with relations keep maintenance independent of the chronicle (Theorem 4.3)", refString(c.Left), c.Op)
				}
				if c.RightCol == nil {
					return nil, fmt.Errorf("sql: join conditions must compare columns")
				}
				li, lerr := res.resolve(c.Left)
				ri, rOK := rel.Schema().Index(c.RightCol.Name)
				switch {
				case lerr == nil && rOK && (c.RightCol.Table == "" || c.RightCol.Table == jc.Relation):
					inCols = append(inCols, li)
					relCols = append(relCols, ri)
				default:
					// Maybe the sides are swapped: relation.col = chronicle.col.
					li2, lOK2 := rel.Schema().Index(c.Left.Name)
					ri2, rerr := res.resolve(*c.RightCol)
					if (c.Left.Table == "" || c.Left.Table == jc.Relation) && lOK2 && rerr == nil {
						inCols = append(inCols, ri2)
						relCols = append(relCols, li2)
						continue
					}
					if lerr != nil {
						return nil, lerr
					}
					return nil, fmt.Errorf("sql: join condition must relate %s to relation %s", s.From, jc.Relation)
				}
			}
			je, err := algebra.NewJoinRel(expr, rel, inCols, relCols)
			if err != nil {
				return nil, fmt.Errorf("sql: %w", err)
			}
			expr = je
		}
		res.add(jc.Relation, rel.Schema().Names())
	}

	// WHERE: one stacked selection per AND-group.
	plan := &ViewPlan{}
	if s.Where != nil {
		for _, group := range s.Where.Conj {
			p, err := lowerGroup(res, group)
			if err != nil {
				return nil, err
			}
			se, err := algebra.NewSelect(expr, p)
			if err != nil {
				return nil, fmt.Errorf("sql: %w", err)
			}
			expr = se
		}
	}

	// Summarization.
	def := view.Def{Name: s.Name, Expr: expr}
	var hasAgg bool
	for _, it := range s.Items {
		if it.Agg != "" {
			hasAgg = true
		}
	}
	switch {
	case hasAgg || len(s.GroupBy) > 0:
		if s.Star {
			return nil, fmt.Errorf("sql: SELECT * cannot be combined with grouping")
		}
		def.Mode = view.SummarizeGroupBy
		groupSet := map[int]bool{}
		for _, g := range s.GroupBy {
			idx, err := res.resolve(g)
			if err != nil {
				return nil, err
			}
			def.GroupCols = append(def.GroupCols, idx)
			groupSet[idx] = true
		}
		for _, it := range s.Items {
			if it.Agg == "" {
				idx, err := res.resolve(it.Col)
				if err != nil {
					return nil, err
				}
				if !groupSet[idx] {
					return nil, fmt.Errorf("sql: column %s appears in SELECT but not in GROUP BY", refString(it.Col))
				}
				continue
			}
			fn, ok := aggregate.FuncOf(it.Agg)
			if !ok {
				return nil, fmt.Errorf("sql: unknown aggregation %s (incrementally computable functions only)", it.Agg)
			}
			spec := aggregate.Spec{Func: fn, Col: -1}
			if !it.Star {
				idx, err := res.resolve(it.Col)
				if err != nil {
					return nil, err
				}
				if kind := expr.Schema().Col(idx).Kind; needsNumeric(fn) &&
					kind != value.KindInt && kind != value.KindFloat {
					return nil, fmt.Errorf("sql: %s requires a numeric column, %s is %s",
						fn, refString(it.Col), kind)
				}
				spec.Col = idx
			} else if fn != aggregate.Count {
				return nil, fmt.Errorf("sql: %s(*) is not defined; only COUNT(*)", it.Agg)
			}
			spec.Name = it.As
			if spec.Name == "" {
				if it.Star {
					spec.Name = strings.ToLower(it.Agg)
				} else {
					spec.Name = strings.ToLower(it.Agg) + "_" + it.Col.Name
				}
			}
			def.Aggs = append(def.Aggs, spec)
		}
		if len(def.Aggs) == 0 {
			return nil, fmt.Errorf("sql: GROUP BY needs at least one aggregation")
		}
	default:
		// Projection summarization (Π without SN). Set semantics make
		// DISTINCT implicit; we accept the keyword for familiarity.
		def.Mode = view.SummarizeProject
		if s.Star {
			for i := 0; i < len(res.cols); i++ {
				def.Cols = append(def.Cols, i)
			}
		} else {
			for _, it := range s.Items {
				idx, err := res.resolve(it.Col)
				if err != nil {
					return nil, err
				}
				def.Cols = append(def.Cols, idx)
			}
		}
	}

	// Periodic.
	if s.Periodic != nil {
		width := s.Periodic.Width
		if width == 0 {
			width = s.Periodic.Period
		}
		cal, err := calendar.NewPeriodic(s.Periodic.Offset, s.Periodic.Period, width)
		if err != nil {
			return nil, fmt.Errorf("sql: %w", err)
		}
		expire := int64(-1)
		if s.Periodic.Expire != nil {
			expire = *s.Periodic.Expire
		}
		plan.Periodic = &PeriodicPlan{Calendar: cal, ExpireAfter: expire}
	}

	plan.Def = def
	plan.Info = algebra.Analyze(expr)
	return plan, nil
}

// needsNumeric reports whether the aggregation function is defined only
// over numeric inputs.
func needsNumeric(f aggregate.Func) bool {
	switch f {
	case aggregate.Sum, aggregate.Avg, aggregate.Var, aggregate.Stddev:
		return true
	default:
		return false
	}
}

// lowerGroup lowers one OR-group into a Definition-4.1 predicate.
func lowerGroup(res *resolver, group []Cond) (pred.Predicate, error) {
	atoms := make([]pred.Atom, 0, len(group))
	for _, c := range group {
		li, err := res.resolve(c.Left)
		if err != nil {
			return pred.True(), err
		}
		op, err := opOf(c.Op)
		if err != nil {
			return pred.True(), err
		}
		if c.RightCol != nil {
			ri, err := res.resolve(*c.RightCol)
			if err != nil {
				return pred.True(), err
			}
			atoms = append(atoms, pred.ColCol(li, op, ri))
		} else {
			atoms = append(atoms, pred.ColConst(li, op, c.Right))
		}
	}
	return pred.Or(atoms...), nil
}

func opOf(s string) (pred.Op, error) {
	switch s {
	case "=":
		return pred.Eq, nil
	case "!=":
		return pred.Ne, nil
	case "<":
		return pred.Lt, nil
	case "<=":
		return pred.Le, nil
	case ">":
		return pred.Gt, nil
	case ">=":
		return pred.Ge, nil
	default:
		return pred.Eq, fmt.Errorf("sql: unknown operator %q", s)
	}
}

// LowerWhere lowers a query WHERE clause against a flat schema (view or
// relation) into a slice of predicates, one per AND-group, each to be
// applied conjunctively.
func LowerWhere(names []string, be *BoolExpr) ([]pred.Predicate, error) {
	if be == nil {
		return nil, nil
	}
	res := &resolver{}
	res.add("", names)
	var out []pred.Predicate
	for _, group := range be.Conj {
		p, err := lowerGroup(res, group)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}
