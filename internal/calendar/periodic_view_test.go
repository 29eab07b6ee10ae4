package calendar

import (
	"bytes"
	"math/rand"
	"testing"

	"chronicledb/internal/aggregate"
	"chronicledb/internal/algebra"
	"chronicledb/internal/chronicle"
	"chronicledb/internal/value"
	"chronicledb/internal/view"
)

type pvFixture struct {
	group *chronicle.Group
	calls *chronicle.Chronicle
	lsn   uint64
}

func newPVFixture(t testing.TB) *pvFixture {
	t.Helper()
	g := chronicle.NewGroup("g")
	calls, err := g.NewChronicle("calls", value.NewSchema(
		value.Column{Name: "acct", Kind: value.KindString},
		value.Column{Name: "minutes", Kind: value.KindInt},
	), chronicle.RetainNone) // the pure model: nothing stored
	if err != nil {
		t.Fatal(err)
	}
	return &pvFixture{group: g, calls: calls}
}

func (f *pvFixture) append(t testing.TB, chronon int64, acct string, minutes int64) algebra.BatchDelta {
	t.Helper()
	f.lsn++
	rows, err := f.calls.Append(f.group.NextSN(), chronon, f.lsn,
		[]value.Tuple{{value.Str(acct), value.Int(minutes)}})
	if err != nil {
		t.Fatal(err)
	}
	return algebra.BatchDelta{f.calls: rows}
}

func (f *pvFixture) viewDef() view.Def {
	return view.Def{
		Expr:      algebra.NewScan(f.calls),
		Mode:      view.SummarizeGroupBy,
		GroupCols: []int{0},
		Aggs:      []aggregate.Spec{{Func: aggregate.Sum, Col: 1, Name: "total"}},
	}
}

func TestNewPeriodicViewValidation(t *testing.T) {
	f := newPVFixture(t)
	cal, _ := NewPeriodic(0, 100, 100)
	if _, err := NewPeriodicView("", f.viewDef(), cal, 0, nil); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := NewPeriodicView("v", f.viewDef(), nil, 0, nil); err == nil {
		t.Error("nil calendar accepted")
	}
	bad := f.viewDef()
	bad.GroupCols = []int{7}
	if _, err := NewPeriodicView("v", bad, cal, 0, nil); err == nil {
		t.Error("invalid inner definition accepted")
	}
}

func TestBillingPeriods(t *testing.T) {
	f := newPVFixture(t)
	cal, _ := NewPeriodic(0, 100, 100) // "months" of 100 chronons
	pv, err := NewPeriodicView("monthly_minutes", f.viewDef(), cal, -1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Month 0: two calls. Month 1: one call.
	mustApply(t, pv, f.append(t, 10, "a", 5))
	mustApply(t, pv, f.append(t, 90, "a", 7))
	mustApply(t, pv, f.append(t, 150, "a", 100))

	m0, ok := pv.At(Interval{0, 100})
	if !ok {
		t.Fatal("month 0 instance missing")
	}
	if got, _ := m0.Lookup(value.Tuple{value.Str("a")}); got[1].AsInt() != 12 {
		t.Errorf("month 0 total = %v", got)
	}
	m1, ok := pv.At(Interval{100, 200})
	if !ok {
		t.Fatal("month 1 instance missing")
	}
	if got, _ := m1.Lookup(value.Tuple{value.Str("a")}); got[1].AsInt() != 100 {
		t.Errorf("month 1 total = %v", got)
	}
	if pv.Live() != 2 || pv.Created() != 2 {
		t.Errorf("Live=%d Created=%d", pv.Live(), pv.Created())
	}
	infos := pv.Instances()
	if len(infos) != 2 || infos[0].Interval.Start != 0 || infos[1].Interval.Start != 100 {
		t.Errorf("Instances = %v", infos)
	}
}

func TestExpiration(t *testing.T) {
	f := newPVFixture(t)
	cal, _ := NewPeriodic(0, 100, 100)
	pv, err := NewPeriodicView("v", f.viewDef(), cal, 50, nil) // 50-chronon grace
	if err != nil {
		t.Fatal(err)
	}
	mustApply(t, pv, f.append(t, 10, "a", 1))
	mustApply(t, pv, f.append(t, 110, "a", 1)) // month 0 not yet expired (ends 100, grace to 150)
	if pv.Live() != 2 {
		t.Fatalf("Live = %d", pv.Live())
	}
	mustApply(t, pv, f.append(t, 160, "a", 1)) // now month 0 expires
	if pv.Live() != 1 {
		t.Errorf("Live = %d (only month 1 remains)", pv.Live())
	}
	if _, ok := pv.At(Interval{0, 100}); ok {
		t.Error("expired instance still live")
	}
	if pv.Expired() != 1 {
		t.Errorf("Expired = %d", pv.Expired())
	}
}

func TestOverlappingWindows(t *testing.T) {
	f := newPVFixture(t)
	cal, _ := NewPeriodic(0, 10, 30) // every 10 chronons, 30-chronon window
	pv, err := NewPeriodicView("moving", f.viewDef(), cal, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// One call at ch 25 lands in windows starting at 0, 10, 20.
	mustApply(t, pv, f.append(t, 25, "a", 4))
	if pv.Live() != 3 {
		t.Fatalf("Live = %d, want 3 overlapping instances", pv.Live())
	}
	for _, start := range []int64{0, 10, 20} {
		v, ok := pv.At(Interval{start, start + 30})
		if !ok {
			t.Fatalf("window [%d,%d) missing", start, start+30)
		}
		if got, _ := v.Lookup(value.Tuple{value.Str("a")}); got[1].AsInt() != 4 {
			t.Errorf("window [%d,.) total = %v", start, got)
		}
	}
	active := pv.ActiveAt(25)
	if len(active) != 3 {
		t.Errorf("ActiveAt = %d", len(active))
	}
}

// TestPeriodicOverRetainNoneChronicle: the family maintains correctly even
// though the chronicle stores nothing — the chronicle model's core promise.
func TestPeriodicOverRetainNoneChronicle(t *testing.T) {
	f := newPVFixture(t)
	if f.calls.Len() != 0 {
		t.Fatal("fixture should retain nothing")
	}
	cal, _ := NewPeriodic(0, 100, 100)
	pv, _ := NewPeriodicView("v", f.viewDef(), cal, -1, nil)
	for i := int64(0); i < 250; i += 10 {
		mustApply(t, pv, f.append(t, i, "a", 1))
	}
	if f.calls.Len() != 0 {
		t.Fatal("chronicle stored rows despite RetainNone")
	}
	m2, ok := pv.At(Interval{200, 300})
	if !ok {
		t.Fatal("month 2 missing")
	}
	if got, _ := m2.Lookup(value.Tuple{value.Str("a")}); got[1].AsInt() != 5 {
		t.Errorf("month 2 total = %v (calls at 200,210,220,230,240)", got)
	}
}

func mustApply(t testing.TB, pv *PeriodicView, d algebra.BatchDelta) {
	t.Helper()
	if err := pv.Apply(d); err != nil {
		t.Fatal(err)
	}
}

func TestPeriodicCheckpointRoundTrip(t *testing.T) {
	f := newPVFixture(t)
	cal, _ := NewPeriodic(0, 100, 100)
	pv, err := NewPeriodicView("monthly", f.viewDef(), cal, 150, nil)
	if err != nil {
		t.Fatal(err)
	}
	mustApply(t, pv, f.append(t, 10, "a", 5))
	mustApply(t, pv, f.append(t, 120, "a", 7))
	snap := pv.Checkpoint()

	pv2, err := NewPeriodicView("monthly", f.viewDef(), cal, 150, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := pv2.RestoreCheckpoint(snap); err != nil {
		t.Fatal(err)
	}
	if pv2.Live() != 2 || pv2.Created() != 2 || pv2.Expired() != 0 {
		t.Errorf("Live=%d Created=%d Expired=%d", pv2.Live(), pv2.Created(), pv2.Expired())
	}
	m0, ok := pv2.At(Interval{0, 100})
	if !ok {
		t.Fatal("month 0 missing after restore")
	}
	if got, _ := m0.Lookup(value.Tuple{value.Str("a")}); got[1].AsInt() != 5 {
		t.Errorf("restored month 0 = %v", got)
	}
	// The restored family keeps maintaining and expiring correctly.
	mustApply(t, pv2, f.append(t, 260, "a", 1)) // expires month 0 (end 100 + 150 <= 260)
	if _, ok := pv2.At(Interval{0, 100}); ok {
		t.Error("restored family did not expire month 0")
	}
	if pv2.Expired() != 1 {
		t.Errorf("Expired = %d", pv2.Expired())
	}
}

func TestPeriodicCheckpointErrors(t *testing.T) {
	f := newPVFixture(t)
	cal, _ := NewPeriodic(0, 100, 100)
	pv, _ := NewPeriodicView("monthly", f.viewDef(), cal, -1, nil)
	mustApply(t, pv, f.append(t, 10, "a", 5))
	snap := pv.Checkpoint()

	if err := pv.RestoreCheckpoint(nil); err == nil {
		t.Error("empty checkpoint accepted")
	}
	bad := append([]byte("ZZZZ"), snap[4:]...)
	if err := pv.RestoreCheckpoint(bad); err == nil {
		t.Error("bad magic accepted")
	}
	if err := pv.RestoreCheckpoint(snap[:len(snap)-2]); err == nil {
		t.Error("truncated checkpoint accepted")
	}
	trailing := append(append([]byte(nil), snap...), 1)
	if err := pv.RestoreCheckpoint(trailing); err == nil {
		t.Error("trailing bytes accepted")
	}
	// Original state intact after failed restores.
	if pv.Live() != 1 {
		t.Errorf("Live = %d after failed restores", pv.Live())
	}
}

// TestFoldThenPublish: a family folds into its instances without showing
// their readers anything, reports its first fold once, and Publish makes
// every instance folded into — overlapping windows mean more than one —
// visible together; an instance created by the fold starts out empty.
func TestFoldThenPublish(t *testing.T) {
	f := newPVFixture(t)
	cal, _ := NewPeriodic(0, 50, 100) // windows of 100 every 50: two cover each chronon past 50
	pv, err := NewPeriodicView("w", f.viewDef(), cal, -1, nil)
	if err != nil {
		t.Fatal(err)
	}
	mustApply(t, pv, f.append(t, 60, "a", 1))
	if pv.Live() != 2 {
		t.Fatalf("live instances = %d, want 2", pv.Live())
	}
	total := func(v *view.View) (sum int64) {
		v.Scan(view.Window{}, func(row value.Tuple) bool { sum += row[1].AsInt(); return true })
		return sum
	}
	fold := func(d algebra.BatchDelta) (bool, error) { return pv.Fold(0, d, algebra.Delta(pv.Def().Expr, d)) }
	for i := 0; i < 3; i++ {
		first, err := fold(f.append(t, 70, "a", 10))
		if err != nil || first != (i == 0) {
			t.Fatalf("fold %d: first = %v, err = %v", i, first, err)
		}
	}
	if _, err := fold(f.append(t, 110, "a", 10)); err != nil { // opens window [100,200)
		t.Fatal(err)
	}
	for _, inst := range pv.Instances() {
		want := int64(1)
		if inst.Interval.Start == 100 {
			want = 0
		}
		if got := total(inst.View); got != want {
			t.Errorf("before Publish: window %v reads %d, want %d", inst.Interval, got, want)
		}
	}
	pv.Publish()
	want := map[int64]int64{0: 31, 50: 41, 100: 10}
	for _, inst := range pv.Instances() {
		if got := total(inst.View); got != want[inst.Interval.Start] {
			t.Errorf("after Publish: window %v reads %d, want %d", inst.Interval, got, want[inst.Interval.Start])
		}
	}
	if first, _ := fold(f.append(t, 120, "a", 1)); !first {
		t.Error("the first fold after a Publish did not report itself")
	}
}

// TestFoldOfACallEqualsFoldsOfItsRows: a call's rows carry their own
// chronons, so window boundaries, gaps between windows and expirations fall
// inside calls. Folding a call at once must leave exactly what folding each of
// its rows by itself leaves — instances, their contents, the clock and the
// created/expired counters, all of which the checkpoint image carries — for
// billing periods, overlapping windows and windows with gaps, with chronons
// that mostly advance but sometimes step back past a boundary or past an
// instance's grace period.
func TestFoldOfACallEqualsFoldsOfItsRows(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var cal Calendar
		switch seed % 3 {
		case 0:
			cal, _ = NewPeriodic(0, 100, 100)
		case 1:
			cal, _ = NewPeriodic(10, 50, 120)
		default:
			cal, _ = NewPeriodic(0, 100, 40)
		}
		expire := []int64{-1, 0, 60}[rng.Intn(3)]
		f := newPVFixture(t)
		whole, err := NewPeriodicView("w", f.viewDef(), cal, expire, nil)
		if err != nil {
			t.Fatal(err)
		}
		byRow, _ := NewPeriodicView("w", f.viewDef(), cal, expire, nil)
		ch := int64(0)
		for call := 0; call < 25; call++ {
			batch := algebra.BatchDelta{}
			for k := 1 + rng.Intn(12); k > 0; k-- {
				switch rng.Intn(10) {
				case 0:
					ch -= int64(rng.Intn(150)) // a late row
				case 1:
					ch += int64(rng.Intn(150))
				default:
					ch += int64(rng.Intn(25))
				}
				row := f.append(t, max(ch, 0), string(rune('a'+rng.Intn(3))), int64(rng.Intn(50)))
				mustApply(t, byRow, row)
				batch[f.calls] = append(batch[f.calls], row[f.calls]...)
			}
			mustApply(t, whole, batch)
			if got, want := whole.Checkpoint(), byRow.Checkpoint(); !bytes.Equal(got, want) {
				t.Fatalf("seed %d call %d (%s, expire %d): folding the call left live=%d created=%d expired=%d, folding its rows live=%d created=%d expired=%d (images differ)",
					seed, call, cal, expire, whole.Live(), whole.Created(), whole.Expired(), byRow.Live(), byRow.Created(), byRow.Expired())
			}
		}
		if whole.Created() < 3 {
			t.Errorf("seed %d: only %d instances were ever created; no boundary fell inside a call", seed, whole.Created())
		}
	}
}

// TestCohortImageIsTheFamilys: families of one cohort fold each round once
// for all of them into one table per interval, and each family's image is
// the bytes a family of its own writes after the same calls — for kept and
// expiring instances, over overlapping windows, with rows that step back
// past a boundary or a grace period.
func TestCohortImageIsTheFamilys(t *testing.T) {
	aggs := [][]aggregate.Spec{
		{{Func: aggregate.Sum, Col: 1, Name: "total"}},
		{{Func: aggregate.Count, Col: -1, Name: "n"}, {Func: aggregate.Max, Col: 1, Name: "hi"}},
		{{Func: aggregate.Last, Col: 1, Name: "last"}, {Func: aggregate.Sum, Col: 1, Name: "again"}},
	}
	for _, expire := range []int64{-1, 60} {
		f := newPVFixture(t)
		cal, _ := NewPeriodic(0, 50, 100)
		var cohort, alone []*PeriodicView
		for i, a := range aggs {
			def := f.viewDef()
			def.Aggs = a
			name := string(rune('a' + i))
			pv, err := NewPeriodicView(name, def, cal, expire, nil)
			if err != nil {
				t.Fatal(err)
			}
			if i > 0 {
				pv.Share(cohort[0])
			}
			cohort = append(cohort, pv)
			solo, _ := NewPeriodicView(name, def, cal, expire, nil)
			alone = append(alone, solo)
		}
		rng := rand.New(rand.NewSource(expire))
		ch := int64(0)
		for round := uint64(1); round <= 40; round++ {
			batch := algebra.BatchDelta{}
			for k := 1 + rng.Intn(10); k > 0; k-- {
				ch = max(ch+int64(rng.Intn(30))-5, 0)
				if rng.Intn(8) == 0 {
					ch = max(ch-120, 0)
				}
				row := f.append(t, ch, string(rune('a'+rng.Intn(4))), int64(rng.Intn(50)))
				batch[f.calls] = append(batch[f.calls], row[f.calls]...)
			}
			delta := algebra.Delta(f.viewDef().Expr, batch) // one delta for the round, as the shared plan gives it
			for _, pv := range append(cohort, alone...) {
				if _, err := pv.Fold(round, batch, delta); err != nil {
					t.Fatal(err)
				}
			}
			for _, pv := range append(cohort, alone...) {
				pv.Publish()
			}
			for i, pv := range cohort {
				if got, want := pv.Checkpoint(), alone[i].Checkpoint(); !bytes.Equal(got, want) {
					t.Fatalf("expire %d round %d: %s's image in its cohort differs from its image alone", expire, round, pv.Name())
				}
			}
		}
		for _, inst := range cohort[0].Instances() {
			for _, pv := range cohort[1:] {
				if v, ok := pv.At(inst.Interval); !ok || !v.SharesTable(inst.View) {
					t.Errorf("expire %d: %s%v does not share a's table", expire, pv.Name(), inst.Interval)
				}
			}
		}
		if got := cohort[1].TableFamilies(); len(got) != 3 {
			t.Errorf("expire %d: b shares its tables with %v, want all three", expire, got)
		}
		if cohort[0].Created() < 5 || (expire >= 0 && cohort[0].Expired() == 0) {
			t.Errorf("expire %d: %d instances created, %d expired: too few boundaries crossed", expire, cohort[0].Created(), cohort[0].Expired())
		}
	}
}

// TestInstancesPublishWithTheCall: a fold that bears or expires an instance
// changes nothing a reader of the family sees until Publish, which then
// shows the new instance list and the instances' rows together; a fold into
// live instances only publishes their rows and keeps the list it had.
func TestInstancesPublishWithTheCall(t *testing.T) {
	f := newPVFixture(t)
	cal, _ := NewPeriodic(0, 100, 100)
	pv, err := NewPeriodicView("v", f.viewDef(), cal, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	fold := func(ch, minutes int64) (first bool) {
		t.Helper()
		d := f.append(t, ch, "a", minutes)
		first, err := pv.Fold(0, d, algebra.Delta(pv.Def().Expr, d))
		if err != nil {
			t.Fatal(err)
		}
		return first
	}
	latest := func(want Interval, total int64) {
		t.Helper()
		inst, ok := pv.Latest()
		if !ok || inst.Interval != want {
			t.Fatalf("Latest = %v, %v, want %v", inst.Interval, ok, want)
		}
		if got, ok := pv.Starting(want.Start); !ok || got != inst {
			t.Errorf("Starting(%d) = %v, %v, want the latest instance", want.Start, got.Interval, ok)
		}
		if row, ok := inst.View.Lookup(value.Tuple{value.Str("a")}); !ok || row[1].AsInt() != total {
			t.Errorf("%s reads %v, %v, want a total of %d", want, row, ok, total)
		}
	}

	if !fold(10, 1) {
		t.Error("a fold that bore an instance left nothing to publish")
	}
	if _, ok := pv.Latest(); ok || pv.Live() != 0 || len(pv.Instances()) != 0 {
		t.Errorf("an instance is visible before the call publishes: %d live", pv.Live())
	}
	pv.Publish()
	latest(Interval{0, 100}, 1)
	list := pv.live.Load()

	fold(20, 2)
	pv.Publish()
	latest(Interval{0, 100}, 3)
	if pv.live.Load() != list {
		t.Error("a fold into a live instance republished the instance list")
	}

	fold(150, 4) // bears [100,200) and expires [0,100)
	latest(Interval{0, 100}, 3)
	pv.Publish()
	latest(Interval{100, 200}, 4)
	if _, ok := pv.At(Interval{0, 100}); ok || pv.Live() != 1 {
		t.Errorf("the expired instance is still listed: %d live", pv.Live())
	}
	if _, ok := pv.Starting(0); ok {
		t.Error("Starting(0) found the expired instance")
	}
	if _, ok := pv.Starting(150); ok {
		t.Error("Starting(150) found an instance: 150 starts no interval")
	}
}
