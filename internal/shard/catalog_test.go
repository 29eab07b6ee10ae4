package shard

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"chronicledb/internal/calendar"
	"chronicledb/internal/chronicle"
	"chronicledb/internal/keyenc"
	"chronicledb/internal/value"
	"chronicledb/internal/view"
	"chronicledb/internal/wal"
)

// groupOn returns a group name the router homes on shard i.
func groupOn(t testing.TB, r *Router, i int) string {
	t.Helper()
	for n := 0; n < 1000; n++ {
		if g := fmt.Sprintf("g%d", n); r.shardOfGroup(g) == i {
			return g
		}
	}
	t.Fatalf("no group homes on shard %d", i)
	return ""
}

// blocker holds shard engines' locks without a test hook in the kernel: an
// append to a shard it is armed for stops in the shard's WAL Record hook,
// which the engine calls under its mutex, until release is closed.
type blocker struct {
	armed   []atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func newBlocker(r *Router) *blocker {
	b := &blocker{
		armed:   make([]atomic.Bool, r.NumShards()),
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
	hooks := make([]WAL, r.NumShards()+1)
	for i := range r.shards {
		hooks[i].Record = func(wal.Record) error {
			if b.armed[i].CompareAndSwap(true, false) {
				b.entered <- struct{}{}
				<-b.release
			}
			return nil
		}
	}
	r.SetWAL(hooks)
	return b
}

// hold appends to chronicle c, homed on shard i, and returns once the append
// holds that shard's engine lock; the channel yields its error after
// release.
func (b *blocker) hold(r *Router, i int, c string) <-chan error {
	b.armed[i].Store(true)
	done := make(chan error, 1)
	go func() {
		_, err := appendTx(r, c, []value.Tuple{{value.Str("acct1"), value.Int(1)}})
		done <- err
	}()
	<-b.entered
	return done
}

// within fails the test unless fn returns within 10 s. The caller waits on
// the channel it returns before the test ends, whether fn blocked or not.
func within(t *testing.T, what string, fn func()) <-chan struct{} {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Errorf("%s blocked", what)
	}
	return done
}

// readCatalog populates r for every read shape: a chronicle c in group g with
// two views, the relation customers, and the periodic family monthly.
func readCatalog(t *testing.T, r *Router, c, g string) {
	t.Helper()
	ch := mustCreateChronicle(t, r, c, g)
	for _, name := range []string{"usage", "usage_hash"} {
		if _, err := r.CreateView(usageDef(name, ch)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.CreateRelation("customers", custSchema(), []int{0}); err != nil {
		t.Fatal(err)
	}
	if err := r.Upsert("customers", value.Tuple{value.Str("acct1"), value.Str("nj")}); err != nil {
		t.Fatal(err)
	}
	cal, err := calendar.NewPeriodic(0, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.CreatePeriodicView("monthly", usageDef("monthly", ch), cal, -1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := appendTx(r, c, []value.Tuple{{value.Str("acct1"), value.Int(int64(i))}}); err != nil {
			t.Fatal(err)
		}
	}
}

// readEverything runs every read shape of the router against readCatalog's
// objects: name resolution of every kind, lookups and every window of the
// one scan entry on both views and on the family's latest instance and its
// instance found by interval and by start, and the chronicle and relation
// rows.
func readEverything(t *testing.T, r *Router, c, g string) {
	var views []*view.View
	for _, name := range []string{"usage", "usage_hash"} {
		v, ok := r.View(name)
		if !ok {
			t.Fatalf("no view %s", name)
		}
		views = append(views, v)
	}
	monthly, ok := r.PeriodicView("monthly")
	if !ok {
		t.Fatal("PeriodicView lookup failed")
	}
	latest, ok := monthly.Latest()
	if !ok {
		t.Fatal("monthly has no live instance")
	}
	if inst, ok := monthly.Starting(latest.Interval.Start); !ok || inst != latest {
		t.Errorf("Starting(%d) = %v, %v, want the latest instance %v", latest.Interval.Start, inst, ok, latest)
	}
	if v, ok := monthly.At(latest.Interval); !ok || v != latest.View {
		t.Errorf("At(%s) = %v, %v", latest.Interval, v, ok)
	}
	if n := monthly.Live(); n == 0 || len(monthly.Instances()) != n {
		t.Errorf("Live = %d, Instances = %d", n, len(monthly.Instances()))
	}
	for _, v := range append(views, latest.View) {
		if _, ok := r.ViewLookup(v, value.Tuple{value.Str("acct1")}); !ok {
			t.Errorf("%s: ViewLookup found nothing", v.Name())
		}
		for _, w := range []view.Window{
			{},
			{Desc: true},
			{Hi: keyenc.AppendValue(nil, value.Str("zzz"))},
			{Lo: keyenc.AppendValue(nil, value.Str("a")), Desc: true, Limit: 1},
		} {
			rows := 0
			if r.ViewScan(v, w, func(value.Tuple) bool { rows++; return true }); rows != 1 {
				t.Errorf("%s: ViewScan(%+v) = %d rows", v.Name(), w, rows)
			}
		}
	}
	if _, err := r.ChronicleRows(c); err != nil {
		t.Errorf("ChronicleRows: %v", err)
	}
	if rows, err := r.RelationRows("customers"); err != nil || len(rows) != 1 {
		t.Errorf("RelationRows = %v, %v", rows, err)
	}
	if _, ok := r.View("usage"); !ok {
		t.Error("View lookup failed")
	}
	if _, ok := r.Chronicle(c); !ok {
		t.Error("Chronicle lookup failed")
	}
	if _, ok := r.Relation("customers"); !ok {
		t.Error("Relation lookup failed")
	}
	if _, ok := r.PeriodicView("monthly"); !ok {
		t.Error("PeriodicView lookup failed")
	}
	if _, ok := r.Group(g); !ok {
		t.Error("Group lookup failed")
	}
	if _, ok := r.Home("usage"); !ok {
		t.Error("Home lookup failed")
	}
	for k := Groups; k <= PeriodicViews; k++ {
		if len(r.Names(k)) == 0 {
			t.Errorf("Names(%s) is empty", k)
		}
	}
}

// TestReadsDoNotAcquireEngineLock is the lock-freedom guard for the read
// path: it holds every shard's engine lock — an append stopped in each
// shard's WAL hook, as a slow append would hold it — and requires every read
// shape to complete anyway. A read that acquires an engine's mutex (even the
// read side) blocks here and fails the test.
func TestReadsDoNotAcquireEngineLock(t *testing.T) {
	r := newRouter(t, 2)
	g := groupOn(t, r, 0)
	readCatalog(t, r, "calls", g)
	mustCreateChronicle(t, r, "other", groupOn(t, r, 1))
	b := newBlocker(r)
	held := []<-chan error{b.hold(r, 0, "calls"), b.hold(r, 1, "other")}
	read := within(t, "a read with every engine lock held", func() { readEverything(t, r, "calls", g) })
	close(b.release)
	<-read
	for _, done := range held {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
	if c := r.Counters(); c.Lookups == 0 || c.Scans == 0 {
		t.Errorf("Counters() lookups = %d, scans = %d after reads of a live view", c.Lookups, c.Scans)
	}
}

// TestReadsDoNotWaitForDDL: a CREATE VIEW waits for its home shard's engine
// lock while it holds the router's DDL lock — an append on shard A is stopped
// in its WAL hook, under that lock — and meanwhile every read shape and an
// append to a chronicle homed on shard B complete.
func TestReadsDoNotWaitForDDL(t *testing.T) {
	r := newRouter(t, 2)
	g := groupOn(t, r, 0)
	readCatalog(t, r, "calls", g)
	mustCreateChronicle(t, r, "other", groupOn(t, r, 1))
	b := newBlocker(r)
	held := b.hold(r, 0, "calls")

	calls, _ := r.Chronicle("calls")
	created := make(chan error, 1)
	go func() {
		_, err := r.CreateView(usageDef("late", calls))
		created <- err
	}()
	for r.ddl.TryLock() { // until the CREATE VIEW holds the DDL lock
		r.ddl.Unlock()
		time.Sleep(time.Millisecond)
	}

	read := within(t, "a read during a CREATE VIEW", func() { readEverything(t, r, "calls", g) })
	appended := within(t, "an append to the other shard during a CREATE VIEW", func() {
		if _, err := appendTx(r, "other", []value.Tuple{{value.Str("b"), value.Int(1)}}); err != nil {
			t.Error(err)
		}
	})
	close(b.release)
	<-read
	<-appended
	if err := <-held; err != nil {
		t.Error(err)
	}
	if err := <-created; err != nil {
		t.Fatal(err)
	}
	if _, ok := r.View("late"); !ok {
		t.Error("the view made during the reads is not in the catalog")
	}
}

func TestCreateValidation(t *testing.T) {
	r := newRouter(t, 1)
	c := mustCreateChronicle(t, r, "calls", "telecom")
	if _, err := r.CreateChronicle("calls", "", callsSchema(), nil); err == nil {
		t.Error("duplicate chronicle accepted")
	}
	if _, err := r.CreateRelation("calls", custSchema(), []int{0}); err == nil {
		t.Error("cross-kind name collision accepted")
	}
	if _, err := r.CreateView(usageDef("usage", c)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.CreateView(usageDef("usage", c)); err == nil {
		t.Error("duplicate view accepted")
	}
	if _, err := r.CreateGroup("telecom"); err == nil {
		t.Error("duplicate group accepted")
	}
	if _, err := r.CreateGroup("newgroup"); err != nil {
		t.Error(err)
	}

	// One namespace across shards: a chronicle, a relation, a view and a
	// periodic view cannot share a name even when their homes differ, and a
	// dropped view's name is free for another kind.
	r = newRouter(t, 4)
	var chrons []*chronicle.Chronicle // chrons[i] is homed on shard i
	for i := 0; i < 4; i++ {
		chrons = append(chrons, mustCreateChronicle(t, r, fmt.Sprintf("c%d", i), groupOn(t, r, i)))
	}
	cal, err := calendar.NewPeriodic(0, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.CreateRelation("rel", custSchema(), []int{0}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.CreateView(usageDef("v", chrons[1])); err != nil {
		t.Fatal(err)
	}
	if _, err := r.CreatePeriodicView("p", usageDef("p", chrons[2]), cal, -1); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"c0", "rel", "v", "p"} {
		if _, err := r.CreateChronicle(name, groupOn(t, r, 3), callsSchema(), nil); err == nil {
			t.Errorf("chronicle %q accepted", name)
		}
		if _, err := r.CreateRelation(name, custSchema(), []int{0}); err == nil {
			t.Errorf("relation %q accepted", name)
		}
		if _, err := r.CreateView(usageDef(name, chrons[3])); err == nil {
			t.Errorf("view %q accepted on another shard", name)
		}
		if _, err := r.CreatePeriodicView(name, usageDef(name, chrons[0]), cal, -1); err == nil {
			t.Errorf("periodic view %q accepted on another shard", name)
		}
	}
	if err := r.DropView("v"); err != nil {
		t.Fatal(err)
	}
	if err := r.DropView("rel"); err == nil {
		t.Error("dropping a relation as a view accepted")
	}
	if _, err := r.CreateRelation("v", custSchema(), []int{0}); err != nil {
		t.Errorf("a dropped view's name is not free for a relation: %v", err)
	}
	if _, err := r.CreateView(usageDef("v", chrons[1])); err == nil {
		t.Error("view over the relation's name accepted")
	}
}

func TestNamesListing(t *testing.T) {
	r := newRouter(t, 4)
	c := mustCreateChronicle(t, r, "calls", "telecom")
	if _, err := r.CreateRelation("customers", custSchema(), []int{0}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.CreateView(usageDef("usage", c)); err != nil {
		t.Fatal(err)
	}
	cal, _ := calendar.NewPeriodic(0, 10, 10)
	if _, err := r.CreatePeriodicView("periodic_usage", usageDef("periodic_usage", c), cal, -1); err != nil {
		t.Fatal(err)
	}

	if got := r.Names(Chronicles); len(got) != 1 || got[0] != "calls" {
		t.Errorf("Names(Chronicles) = %v", got)
	}
	if got := r.Names(Relations); len(got) != 1 || got[0] != "customers" {
		t.Errorf("Names(Relations) = %v", got)
	}
	if _, ok := r.Relation("customers"); !ok {
		t.Error("Relation lookup failed")
	}
	if got := r.Names(Views); len(got) != 1 || got[0] != "usage" {
		t.Errorf("Names(Views) = %v", got)
	}
	if got := r.Names(PeriodicViews); len(got) != 1 || got[0] != "periodic_usage" {
		t.Errorf("Names(PeriodicViews) = %v", got)
	}
	if got := r.Names(Groups); len(got) != 1 || got[0] != "telecom" {
		t.Errorf("Names(Groups) = %v", got)
	}
	if _, ok := r.Group("telecom"); !ok {
		t.Error("Group lookup failed")
	}
	if _, ok := r.PeriodicView("periodic_usage"); !ok {
		t.Error("PeriodicView lookup failed")
	}
}

func TestSerializedReadAccessors(t *testing.T) {
	r := newRouter(t, 2)
	c := mustCreateChronicle(t, r, "calls", "telecom")
	if _, err := r.CreateRelation("customers", custSchema(), []int{0}); err != nil {
		t.Fatal(err)
	}
	if err := r.Upsert("customers", value.Tuple{value.Str("a"), value.Str("nj")}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.CreateView(usageDef("usage", c)); err != nil {
		t.Fatal(err)
	}
	appendTx(r, "calls", []value.Tuple{{value.Str("a"), value.Int(5)}})
	appendTx(r, "calls", []value.Tuple{{value.Str("b"), value.Int(7)}})

	usage, ok := r.View("usage")
	if !ok {
		t.Fatal("no view usage")
	}
	if _, ok := r.View("ghost"); ok {
		t.Error("unknown view resolved")
	}
	if _, ok := r.View("calls"); ok {
		t.Error("a chronicle resolved as a view")
	}
	row, ok := r.ViewLookup(usage, value.Tuple{value.Str("a")})
	if !ok || row[1].AsInt() != 5 {
		t.Errorf("ViewLookup = %v %v", row, ok)
	}
	scan := func(w view.Window) (rows []value.Tuple) {
		r.ViewScan(usage, w, func(t value.Tuple) bool { rows = append(rows, t); return true })
		return rows
	}
	if rows := scan(view.Window{}); len(rows) != 2 {
		t.Errorf("ViewScan = %v", rows)
	}
	ranged := scan(view.Window{Lo: keyenc.AppendValue(nil, value.Str("a")), Hi: keyenc.AppendValue(nil, value.Str("b"))})
	if len(ranged) != 1 || ranged[0][0].AsString() != "a" {
		t.Errorf("ViewScan [a, b) = %v", ranged)
	}
	crows, err := r.ChronicleRows("calls")
	if err != nil || len(crows) != 2 {
		t.Errorf("ChronicleRows = %v %v", crows, err)
	}
	if _, err := r.ChronicleRows("ghost"); err == nil {
		t.Error("unknown ChronicleRows accepted")
	}
	if _, err := r.ChronicleRows("usage"); err == nil {
		t.Error("ChronicleRows of a view accepted")
	}
	cnt := r.Counters()
	if n := cnt.Maintenance.Count(); n != 2 {
		t.Errorf("Counters().Maintenance count = %d", n)
	}
	if cnt.Lookups != 1 || cnt.Scans != 3 || cnt.Read.Count() != 4 {
		t.Errorf("Counters() lookups %d, scans %d, read observations %d; want 1, 3, 4", cnt.Lookups, cnt.Scans, cnt.Read.Count())
	}
}
