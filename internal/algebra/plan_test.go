package algebra

import (
	"fmt"
	"math/rand"
	"testing"

	"chronicledb/internal/aggregate"
	"chronicledb/internal/chronicle"
	"chronicledb/internal/pred"
	"chronicledb/internal/value"
)

// size is the number of operators in expr's tree, a subtree repeated
// counted each time.
func size(expr Node) int {
	n := 1
	for _, c := range expr.children() {
		n += size(c)
	}
	return n
}

// planReach lists every node the plan can reach: its node list, its key
// index, its roots and their subgraphs.
func planReach(p *SharedPlan) map[*PlanNode]bool {
	seen := map[*PlanNode]bool{}
	var walk func(n *PlanNode)
	walk = func(n *PlanNode) {
		if !seen[n] {
			seen[n] = true
			for _, c := range n.children {
				walk(c)
			}
		}
	}
	for _, n := range p.nodes {
		walk(n)
	}
	for _, n := range p.byKey {
		walk(n)
	}
	for _, n := range p.roots {
		walk(n)
	}
	return seen
}

// TestPlanKeysOwnExpressionOnly: adding a view keys its own expression's
// nodes, one key each, whatever the plan already holds — the thousandth
// view of one σ shape keys what the first did.
func TestPlanKeysOwnExpressionOnly(t *testing.T) {
	f := newFixture(t)
	rng := rand.New(rand.NewSource(3))
	p := NewSharedPlan()
	for i := range 1000 {
		var expr Node
		if i%2 == 0 {
			expr = randomExpr(rng, f, 3)
		} else {
			sel, err := NewSelect(NewScan(f.calls), pred.Or(pred.ColConst(0, pred.Eq, value.Str(fmt.Sprintf("a%d", i)))))
			if err != nil {
				t.Fatal(err)
			}
			expr = sel
		}
		before := p.Keyed()
		p.AddView(fmt.Sprintf("v%d", i), expr)
		if got, want := p.Keyed()-before, int64(size(expr)); got != want {
			t.Fatalf("view %d (%s) keyed %d nodes, want its own %d", i, expr, got, want)
		}
	}
}

// TestPlanDropReturnsToBase: 64 views — sharing a σ prefix, each with a σ of
// its own, a key join sixteen times over — fold a 1 000-row call, and
// dropping them all leaves the plan as it was with only the base view: the
// same node count, the same consumer counts, no dropped node reachable and
// none keeping scratch. The base view then still computes its delta.
func TestPlanDropReturnsToBase(t *testing.T) {
	f := newFixture(t)
	f.upsertCust(t, "a", "nj", 500)
	p := NewSharedPlan()
	base := bigCalls(t, f)
	p.AddView("base", base)
	baseNodes, baseInfo := p.Nodes(), p.ViewNodes("base")

	views := map[string]Node{}
	for i := range 64 {
		var expr Node
		switch i % 4 {
		case 0: // the base's σ prefix, grouped
			expr, _ = NewGroupBySN(bigCalls(t, f), []int{0}, []aggregate.Spec{{Func: aggregate.Sum, Col: 1, Name: fmt.Sprint("s", i)}})
		case 1: // a σ of its own over the base's
			expr, _ = NewSelect(bigCalls(t, f), pred.Or(pred.ColConst(1, pred.Lt, value.Int(int64(i)))))
		case 2: // a key join over the prefix
			expr, _ = NewJoinRel(bigCalls(t, f), f.cust, []int{0}, []int{0})
		case 3: // a projection of a σ of its own
			sel, _ := NewSelect(NewScan(f.calls), pred.Or(pred.ColConst(0, pred.Eq, value.Str(fmt.Sprint("a", i)))))
			expr, _ = NewProject(sel, []int{1})
		}
		views[fmt.Sprint("v", i)] = expr
		p.AddView(fmt.Sprint("v", i), expr)
	}
	var rows []chronicle.Row
	for i := range 1000 {
		rows = append(rows, f.appendCall(t, fmt.Sprint("a", i%80), int64(i%100))[f.calls]...)
	}
	p.BeginBatch()
	for name, expr := range views {
		got, _ := p.DeltaFor(name, BatchDelta{f.calls: rows})
		sameRows(t, name, got, Delta(expr, BatchDelta{f.calls: rows}))
	}
	live := planReach(p)
	for name := range views {
		p.DropView(name)
	}
	if p.Nodes() != baseNodes || p.Views() != 1 || len(p.byKey) != baseNodes {
		t.Fatalf("after the drops: %d nodes, %d keys, %d views; want %d, %d, 1", p.Nodes(), len(p.byKey), p.Views(), baseNodes, baseNodes)
	}
	if got := fmt.Sprint(p.ViewNodes("base")); got != fmt.Sprint(baseInfo) {
		t.Errorf("base view's nodes %s, want %v", got, baseInfo)
	}
	reach := planReach(p)
	for n := range live {
		if reach[n] {
			continue
		}
		if n.buf != nil || n.rows != nil || n.children != nil || n.join.vals != nil || n.group.index != nil {
			t.Errorf("dropped node %d (%s) keeps scratch or children", n.ID, n.Expr)
		}
	}
	for i, n := range p.nodes {
		if n.pos != i {
			t.Errorf("node %d at %d says it is at %d", n.ID, i, n.pos)
		}
	}
	d := f.appendCall(t, "a", 50)
	p.BeginBatch()
	got, _ := p.DeltaFor("base", d)
	sameRows(t, "base after the drops", got, Delta(base, d))
}

// TestPlanChurnEqualsDelta adds, drops and re-adds random expressions
// between batches — a view re-added under its name with another expression
// too — and checks every view's plan delta against Delta after each batch;
// a node id is never reused, and the plan never holds a node no view reaches.
func TestPlanChurnEqualsDelta(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			f := newFixture(t)
			f.upsertCust(t, "a", "nj", 500)
			f.upsertCust(t, "b", "ny", 0)
			p := NewSharedPlan()
			views := map[string]Node{}
			byID := map[int]*PlanNode{}
			for step := range 60 {
				name := fmt.Sprint("v", rng.Intn(8))
				if _, ok := views[name]; ok && rng.Intn(2) == 0 {
					p.DropView(name)
					delete(views, name)
				} else {
					views[name] = randomExpr(rng, f, 3)
					p.AddView(name, views[name])
				}
				for _, n := range p.nodes {
					if m, ok := byID[n.ID]; ok && m != n {
						t.Fatalf("step %d: id %d reused", step, n.ID)
					}
					byID[n.ID] = n
				}
				reached := map[*PlanNode]bool{}
				for name := range views {
					for _, n := range reach(p.roots[name]) {
						reached[n] = true
					}
				}
				if len(reached) != p.Nodes() {
					t.Fatalf("step %d: %d nodes, %d reached from the views", step, p.Nodes(), len(reached))
				}
				d := f.appendBoth(t, string(rune('a'+rng.Intn(3))), int64(rng.Intn(80)), int64(rng.Intn(40)))
				p.BeginBatch()
				for name, expr := range views {
					got, _ := p.DeltaFor(name, d)
					sameRows(t, fmt.Sprintf("step %d %s (%s)", step, name, expr), got, Delta(expr, d))
				}
			}
		})
	}
}
