package algebra

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"chronicledb/internal/aggregate"
	"chronicledb/internal/chronicle"
	"chronicledb/internal/pred"
	"chronicledb/internal/value"
)

// bigCalls builds σ[minutes > 10](calls) — two independently constructed
// instances must fingerprint identically.
func bigCalls(t testing.TB, f *fixture) Node {
	t.Helper()
	s, err := NewSelect(NewScan(f.calls), pred.Or(pred.ColConst(1, pred.Gt, value.Int(10))))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFingerprintStructuralEquality(t *testing.T) {
	f := newFixture(t)
	if Fingerprint(bigCalls(t, f)) != Fingerprint(bigCalls(t, f)) {
		t.Error("structurally equal selects fingerprint differently")
	}
	if Fingerprint(NewScan(f.calls)) == Fingerprint(NewScan(f.payments)) {
		t.Error("distinct chronicles share a fingerprint")
	}
	// Same display text, different type: '10' (string) vs 10 (int).
	sInt, _ := NewSelect(NewScan(f.calls), pred.Or(pred.ColConst(0, pred.Eq, value.Int(10))))
	sStr, _ := NewSelect(NewScan(f.calls), pred.Or(pred.ColConst(0, pred.Eq, value.Str("10"))))
	if Fingerprint(sInt) == Fingerprint(sStr) {
		t.Error("int and string constants collide")
	}
	// Parameter changes must change the key.
	p1, _ := NewProject(bigCalls(t, f), []int{0})
	p2, _ := NewProject(bigCalls(t, f), []int{1})
	if Fingerprint(p1) == Fingerprint(p2) {
		t.Error("distinct projections collide")
	}
	g1, _ := NewGroupBySN(NewScan(f.calls), []int{0}, []aggregate.Spec{{Func: aggregate.Sum, Col: 1, Name: "s"}})
	g2, _ := NewGroupBySN(NewScan(f.calls), []int{0}, []aggregate.Spec{{Func: aggregate.Count, Col: -1, Name: "s"}})
	if Fingerprint(g1) == Fingerprint(g2) {
		t.Error("distinct aggregates collide")
	}
	j1, _ := NewJoinRel(NewScan(f.calls), f.cust, []int{0}, []int{0})
	j2, _ := NewJoinRel(NewScan(f.payments), f.cust, []int{0}, []int{0})
	if Fingerprint(j1) == Fingerprint(j2) {
		t.Error("joins over distinct inputs collide")
	}
	if Fingerprint(j1) != Fingerprint(j1) {
		t.Error("join not self-equal")
	}
}

func TestSharedPlanInterning(t *testing.T) {
	f := newFixture(t)
	p := NewSharedPlan()
	// Twin views over the same σ prefix, plus one unrelated view.
	sum1, _ := NewGroupBySN(bigCalls(t, f), []int{0}, []aggregate.Spec{{Func: aggregate.Sum, Col: 1, Name: "total"}})
	cnt1, _ := NewGroupBySN(bigCalls(t, f), []int{0}, []aggregate.Spec{{Func: aggregate.Count, Col: -1, Name: "n"}})
	pay, _ := NewProject(NewScan(f.payments), []int{1})
	p.AddView("big_sum", sum1)
	p.AddView("big_cnt", cnt1)
	p.AddView("pay_amt", pay)
	// Nodes: scan(calls), σ, γsum, γcnt, scan(payments), Π = 6.
	if p.Nodes() != 6 {
		t.Fatalf("Nodes = %d, want 6", p.Nodes())
	}
	if p.Views() != 3 {
		t.Fatalf("Views = %d, want 3", p.Views())
	}
	shared := p.SharedNodes()
	if len(shared) != 2 { // scan(calls) and the σ node
		t.Fatalf("SharedNodes = %+v, want 2 entries", shared)
	}
	for _, s := range shared {
		if s.Consumers != 2 {
			t.Errorf("node %d consumers = %d, want 2", s.ID, s.Consumers)
		}
	}
	// Per-view node listing: post-order, root last, child IDs shared.
	a, b := p.ViewNodes("big_sum"), p.ViewNodes("big_cnt")
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("ViewNodes lengths = %d, %d, want 3, 3", len(a), len(b))
	}
	if a[0].ID != b[0].ID || a[1].ID != b[1].ID {
		t.Error("shared prefix has different node ids across views")
	}
	if a[2].ID == b[2].ID {
		t.Error("distinct roots share a node id")
	}
	if p.ViewNodes("nope") != nil {
		t.Error("unknown view returned nodes")
	}
	// IDs are distinct across the whole plan and children number below
	// parents (IDs are assigned at append time, after children interned).
	seen := map[int]bool{}
	for _, view := range []string{"big_sum", "big_cnt", "pay_amt"} {
		nodes := p.ViewNodes(view)
		for i := 1; i < len(nodes); i++ {
			if nodes[i-1].ID >= nodes[i].ID {
				t.Errorf("%s: post-order IDs not ascending: %d then %d", view, nodes[i-1].ID, nodes[i].ID)
			}
		}
		root := nodes[len(nodes)-1]
		if seen[root.ID] {
			t.Errorf("%s: root ID %d reused", view, root.ID)
		}
		seen[root.ID] = true
	}
}

// TestSharedPlanDeltaMatchesDelta drives a random workload through a plan
// holding several views — some structurally identical, some sharing only a
// prefix — and checks every per-batch DeltaFor against the unshared Delta
// oracle, plus the shared-hit accounting for the identical roots.
func TestSharedPlanDeltaMatchesDelta(t *testing.T) {
	f := newFixture(t)
	f.upsertCust(t, "a", "nj", 500)
	f.upsertCust(t, "b", "ny", 0)

	sum1, _ := NewGroupBySN(bigCalls(t, f), []int{0}, []aggregate.Spec{{Func: aggregate.Sum, Col: 1, Name: "total"}})
	sum2, _ := NewGroupBySN(bigCalls(t, f), []int{0}, []aggregate.Spec{{Func: aggregate.Sum, Col: 1, Name: "total"}})
	cnt, _ := NewGroupBySN(bigCalls(t, f), []int{0}, []aggregate.Spec{{Func: aggregate.Count, Col: -1, Name: "n"}})
	join, _ := NewJoinRel(bigCalls(t, f), f.cust, []int{0}, []int{0})
	bare := NewScan(f.calls)

	views := map[string]Node{
		"sum1": sum1, "sum2": sum2, "cnt": cnt, "join": join, "bare": bare,
	}
	p := NewSharedPlan()
	for name, e := range views {
		p.AddView(name, e)
	}

	rng := rand.New(rand.NewSource(9))
	var hits int64
	for step := 0; step < 50; step++ {
		if rng.Intn(6) == 0 {
			f.upsertCust(t, string(rune('a'+rng.Intn(2))), "ca", int64(rng.Intn(100)))
			continue
		}
		d := f.appendCall(t, string(rune('a'+rng.Intn(2))), int64(rng.Intn(40)))
		p.BeginBatch()
		for name, e := range views {
			got, ok := p.DeltaFor(name, d)
			if !ok {
				t.Fatalf("step %d: view %s missing from plan", step, name)
			}
			sameRows(t, fmt.Sprintf("step %d view %s", step, name), got, Delta(e, d))
		}
		hits += p.TakeHits()
	}
	// sum1/sum2 are identical: every batch after the first evaluation of one
	// serves the other's whole tree from cache; cnt and join additionally hit
	// the shared σ prefix, bare hits the shared scan leaf. So hits must be
	// at least 3 per batch × 40-ish batches — assert the floor loosely.
	if hits < 100 {
		t.Errorf("sharedHits = %d, want ≥ 100", hits)
	}
}

// TestSharedPlanBufferIsolation checks the memory contract: a σ node's
// cached output never aliases its child's cache, so sibling consumers of
// the child see unmodified rows, and batch N's evaluation does not disturb
// copies taken during batch N-1.
func TestSharedPlanBufferIsolation(t *testing.T) {
	f := newFixture(t)
	sel := bigCalls(t, f)
	bare := NewScan(f.calls)
	p := NewSharedPlan()
	p.AddView("sel", sel)
	p.AddView("bare", bare)

	d := f.appendCall(t, "a", 50)
	p.BeginBatch()
	selRows, _ := p.DeltaFor("sel", d)
	bareRows, _ := p.DeltaFor("bare", d)
	if len(selRows) != 1 || len(bareRows) != 1 {
		t.Fatalf("rows = %d, %d, want 1, 1", len(selRows), len(bareRows))
	}
	if &bareRows[0] == &selRows[0] {
		t.Fatal("σ output aliases the scan cache")
	}
	if bareRows[0].Vals[1].AsInt() != 50 {
		t.Errorf("scan row corrupted: %v", bareRows[0].Vals)
	}
	// The scan delta IS the batch's stored rows; the σ buffer must be a
	// different backing array so buffer reuse can never overwrite storage.
	d2 := f.appendCall(t, "a", 60)
	p.BeginBatch()
	if _, ok := p.DeltaFor("sel", d2); !ok {
		t.Fatal("second batch eval failed")
	}
	if d[f.calls][0].Vals[1].AsInt() != 50 {
		t.Errorf("batch-1 stored row overwritten by batch-2 σ reuse: %v", d[f.calls][0].Vals)
	}
}

// TestSharedPlanRandomExprs cross-checks plan evaluation against Delta over
// randomly generated expressions, interning each expression twice under two
// view names so the dedup path is exercised for every operator shape.
func TestSharedPlanRandomExprs(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			f := newFixture(t)
			f.upsertCust(t, "a", "nj", 500)
			f.upsertCust(t, "b", "ny", 0)

			exprs := make([]Node, 4)
			p := NewSharedPlan()
			for i := range exprs {
				exprs[i] = randomExpr(rng, f, 3)
				p.AddView(fmt.Sprintf("v%d", i), exprs[i])
				p.AddView(fmt.Sprintf("v%d_twin", i), exprs[i])
			}
			for step := 0; step < 30; step++ {
				var d BatchDelta
				if rng.Intn(2) == 0 {
					d = f.appendBoth(t, string(rune('a'+rng.Intn(3))), int64(rng.Intn(80)), int64(rng.Intn(40)))
				} else {
					d = f.appendCall(t, string(rune('a'+rng.Intn(3))), int64(rng.Intn(80)))
				}
				p.BeginBatch()
				for i, e := range exprs {
					want := Delta(e, d)
					for _, name := range []string{fmt.Sprintf("v%d", i), fmt.Sprintf("v%d_twin", i)} {
						got, ok := p.DeltaFor(name, d)
						if !ok {
							t.Fatalf("view %s missing", name)
						}
						sameRows(t, fmt.Sprintf("step %d %s (%s)", step, name, e), got, want)
					}
				}
			}
		})
	}
}

func TestSharedPlanZeroAllocSteadyState(t *testing.T) {
	f := newFixture(t)
	// σ chains reuse node buffers, so steady-state evaluation is
	// allocation-free (Π copies a tuple per row by contract, same as the
	// unshared path, so it is excluded here).
	sel, err := NewSelect(bigCalls(t, f), pred.Or(pred.ColConst(1, pred.Lt, value.Int(100))))
	if err != nil {
		t.Fatal(err)
	}
	p := NewSharedPlan()
	p.AddView("v", sel)
	d := f.appendCall(t, "a", 50)
	// Warm the buffers.
	p.BeginBatch()
	p.DeltaFor("v", d)
	allocs := testing.AllocsPerRun(200, func() {
		p.BeginBatch()
		if _, ok := p.DeltaFor("v", d); !ok {
			t.Fatal("eval failed")
		}
	})
	if allocs > 0.5 {
		t.Errorf("σ/Π shared eval allocates %.1f/op, want 0", allocs)
	}
}

// TestCallDeltaIsPerSNDeltasInOrder is the gate for the order rule of the
// multi-SN BatchDelta: for random CA expressions (every operator: ∪, −, ⋈SN,
// γ(SN), ⋈R and ×R included) and random calls of several appends — one tuple,
// several tuples sharing an SN, or both chronicles at once, with relation
// updates in between — the delta of the whole call, from Delta and from the
// shared plan alike, is the concatenation of the per-SN deltas ROW FOR ROW:
// same rows, same order, same SN/chronon/LSN stamps. FIRST/LAST views and the
// changefeed's per-LSN frames depend on the order, not just on the set.
func TestCallDeltaIsPerSNDeltasInOrder(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			f := newFixture(t)
			f.upsertCust(t, "a", "nj", 500)
			f.upsertCust(t, "b", "ny", 0)

			exprs := make([]Node, 6)
			p := NewSharedPlan()
			for i := range exprs {
				exprs[i] = randomExpr(rng, f, 3)
				p.AddView(fmt.Sprintf("v%d", i), exprs[i])
			}
			acct := func() string { return string(rune('a' + rng.Intn(3))) }
			for call := 0; call < 12; call++ {
				batch := BatchDelta{}
				perSN := make([][]chronicle.Row, len(exprs))
				for k := 1 + rng.Intn(9); k > 0; k-- {
					var d BatchDelta
					switch rng.Intn(4) {
					case 0:
						d = f.appendBoth(t, acct(), int64(rng.Intn(80)), int64(rng.Intn(40)))
					case 1: // several tuples (a repeat among them) under one SN
						a := acct()
						rows, err := f.calls.Append(f.group.NextSN(), f.group.NextSN()*1000, f.nextLSN(), []value.Tuple{
							{value.Str(a), value.Int(int64(rng.Intn(80)))},
							{value.Str(acct()), value.Int(int64(rng.Intn(80)))},
							{value.Str(a), value.Int(int64(rng.Intn(3)))},
						})
						if err != nil {
							t.Fatal(err)
						}
						d = BatchDelta{f.calls: rows}
					default:
						d = f.appendCall(t, acct(), int64(rng.Intn(80)))
					}
					for i, e := range exprs {
						perSN[i] = append(perSN[i], Delta(e, d)...)
					}
					for c, rows := range d {
						batch[c] = append(batch[c], rows...)
					}
					if rng.Intn(4) == 0 { // a relation version between two SNs of the call
						f.upsertCust(t, acct(), []string{"nj", "ny", "ca"}[rng.Intn(3)], int64(rng.Intn(100)))
					}
				}
				p.BeginBatch()
				for i, e := range exprs {
					label := fmt.Sprintf("call %d expr %d (%s)", call, i, e)
					sameRowsInOrder(t, label+": Delta", Delta(e, batch), perSN[i])
					got, _ := p.DeltaFor(fmt.Sprintf("v%d", i), batch)
					sameRowsInOrder(t, label+": SharedPlan", got, perSN[i])
				}
			}
		})
	}
}

func sameRowsInOrder(t *testing.T, label string, got, want []chronicle.Row) {
	t.Helper()
	show := func(rows []chronicle.Row) string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = fmt.Sprintf("sn=%d ch=%d lsn=%d %s", r.SN, r.Chronon, r.LSN, r.Vals)
		}
		return fmt.Sprint(out)
	}
	if g, w := show(got), show(want); g != w {
		t.Fatalf("%s: the call's delta is not its per-SN deltas in order\ngot:  %s\nwant: %s", label, g, w)
	}
}

// TestSharedPlanScratchShrinks: σ, Π, key-join and γ(SN) nodes keep the
// buffers a call of one size needs — a second 1 000-row call moves none of
// them — and a 16-row call after a 1 000-row one releases what the large
// call grew, the grouping's index of 1 000 groups too, so a plan does not
// keep the largest call it ever folded.
func TestSharedPlanScratchShrinks(t *testing.T) {
	f := newFixture(t)
	f.upsertCust(t, "a", "nj", 500)
	proj, err := NewProject(bigCalls(t, f), []int{0})
	if err != nil {
		t.Fatal(err)
	}
	join, err := NewJoinRel(bigCalls(t, f), f.cust, []int{0}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	group, err := NewGroupBySN(NewScan(f.calls), []int{0}, []aggregate.Spec{{Func: aggregate.Sum, Col: 1, Name: "s"}})
	if err != nil {
		t.Fatal(err)
	}
	views := []string{"sel", "proj", "join", "group"}
	p := NewSharedPlan()
	p.AddView("sel", bigCalls(t, f))
	p.AddView("proj", proj)
	p.AddView("join", join)
	p.AddView("group", group)
	call := func(n int) {
		var rows []chronicle.Row
		for range n {
			rows = append(rows, f.appendCall(t, "a", 50)[f.calls]...)
		}
		p.BeginBatch()
		for _, v := range views {
			if out, ok := p.DeltaFor(v, BatchDelta{f.calls: rows}); !ok || len(out) != n {
				t.Fatalf("view %s: %d rows, want %d", v, len(out), n)
			}
		}
	}
	// held lists each node's buffers by array and capacity: the output rows,
	// the join's value slab, and the grouping's first rows, state words,
	// value slab and index (its size is its group count).
	type buffer struct {
		array any
		cap   int
	}
	held := func() []buffer {
		var bs []buffer
		for _, n := range p.nodes {
			g := &n.group
			bs = append(bs, buffer{unsafe.SliceData(n.buf), cap(n.buf)}, buffer{unsafe.SliceData(n.join.vals), cap(n.join.vals)},
				buffer{unsafe.SliceData(g.firsts), cap(g.firsts)}, buffer{unsafe.SliceData(g.words), cap(g.words)},
				buffer{unsafe.SliceData(g.vals), cap(g.vals)}, buffer{reflect.ValueOf(g.index).UnsafePointer(), len(g.index)})
		}
		return bs
	}
	call(1000)
	grown := held()
	call(1000)
	if again := held(); !slices.Equal(again, grown) {
		t.Errorf("a second call of one size reallocated:\n first %v\nsecond %v", grown, again)
	}
	call(16)
	for i, b := range held() {
		if b.cap > scratchFloor || b.array != nil && b.array == grown[i].array && grown[i].cap > scratchFloor {
			t.Errorf("after a 16-row call, node %d keeps buffer %d at %d (%d after the 1 000-row call), want a new one of at most %d",
				i/6, i%6, b.cap, grown[i].cap, scratchFloor)
		}
	}
}
