package calendar

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"chronicledb/internal/algebra"
	"chronicledb/internal/chronicle"
	"chronicledb/internal/view"
)

// PeriodicView is V<D>: a family of SCA view instances, one per calendar
// interval (Section 5.1). Instances are created lazily when their interval
// first receives a tuple ("starting to maintain a view as soon as its time
// interval starts") and dropped once the stream's chronon passes their
// expiration time, so only finitely many are ever live.
//
// Every instance folds the same expression by the same columns. A family
// that keeps its instances keeps their keys, and its panes', in one key
// directory, which the engine shares with the views and families whose keys
// trace to the same chronicle columns (view.Dir), so a key is held once
// however many instances hold it. A directory never drops a key, so a
// family whose instances expire gives each instance and each pane its own,
// which goes with it: its key state stays bounded by its live instances
// however many keys the stream moves through, and an open instance merges
// its panes by key.
//
// A family is folded as a member of its cohort: the families the engine
// found to fold the same expression by the same columns on the same calendar
// with the same expiry (Share), a cohort of one for a family that matches
// none. The cohort owns the stream's high-water chronon and cuts each round
// into runs once for all its members, and the views its members get when an
// interval or a pane is born share one table (view.Join): a row is folded,
// versioned and published once however many families hold it, and each
// family reads its own columns of the table's groups.
//
// Where windows overlap, a row folds once, into a pane: the chronon span on
// which the calendar's IntervalsAt does not change (SpanAt), the run the
// fold cuts anyway. An instance of such a window holds no group of its own,
// open or closed: its table reads through the panes its window covers
// (view.ReadThrough) for as long as it lives, and a read merges a key's
// groups across them — at most 2·⌈Width/Period⌉ of a periodic calendar, two
// per period whatever the values. A pane lives until the last instance
// reading it expires. An interval that is one span is its own pane: its
// instance is folded as is, with no pane beside it (tumbling and gapped
// calendars), and so is an instance whose window had closed when it was
// born.
type PeriodicView struct {
	name        string
	def         view.Def
	cal         *Periodic
	dir         *view.Dir // the instances' and panes' directory; nil: one per view
	expireAfter int64     // chronons past interval end; <0 keeps instances forever
	co          *cohort

	// instances is maintenance's own map of the live instances, which only
	// the writer touches. live is what readers see: the same instances as an
	// immutable list sorted by interval, published through an atomic pointer
	// when an instance is born or expires (stale) and the call publishes.
	instances map[Interval]*view.View
	live      atomic.Pointer[[]InstanceInfo]
	stale     bool
	born      []Interval // instances made since the list was published
	// panes are the family's views of its cohort's live panes, by number.
	panes map[uint64]*view.View
	// probe is an empty view of the family's definition, never folded into:
	// what a read of the family finds while no instance is live.
	probe   *view.View
	owed    bool // a Fold has reported something the last Publish has not published
	created int64
	expired int64
	applies int64 // maintenance invocations; the checkpoint dirty marker
}

// cohort is the families whose instances and panes can share a table: they
// fold one delta by the same key in the same rounds, and cut it into the
// same runs. It folds each round once for all of them, so every member meets
// the same high-water chronon, folds the same panes and expires the same
// intervals.
type cohort struct {
	members     []*PeriodicView // in the order they joined
	cal         *Periodic
	expireAfter int64
	maxSeen     int64  // high-water chronon: drives expiration, and tells a closed window at birth
	round       uint64 // the round folded last; 0 never matches

	// panes are the live panes of each span, oldest first, and made counts
	// the panes ever made, which numbers the next.
	panes map[Interval][]*pane
	made  uint64
	// thru maps each interval whose instances read through panes to the
	// number of the newest pane they read, 0 before the first. It and panes
	// grow with a family that keeps its instances, so what is done for one
	// span visits only the intervals and panes the calendar says can cover
	// it (IntervalsAt, panesIn), never the whole map; visited counts those
	// visits.
	thru    map[Interval]uint64
	visited int64
	// nextExpiry is the earliest chronon at which an instance expires.
	nextExpiry int64
	// seq brackets the publication of everything folded since the last one
	// (dirty), so that a read through panes sees all of a call or none.
	seq   view.Seq
	dirty []*view.View

	// last is what the last run's span asked of the members: every run of
	// it folds the same views while gen, which every birth, expiry and
	// change of members moves, stands.
	last runPlan
	gen  uint64
}

// runPlan is where the runs of one span fold: the intervals that contain
// it (IntervalsAt, which is the same across the span), those whose
// instances fold as they are, and the pane of those that read through
// panes, nil for none.
type runPlan struct {
	span   Interval
	ivs    []Interval
	gen    uint64
	direct []Interval
	pane   *pane
}

// pane is one span's fold target. A late row may give a span a second pane
// (paneFor); readers counts the live intervals that read through it.
type pane struct {
	num     uint64
	span    Interval
	readers int
}

// NewPeriodicView builds the family, a cohort of one. def is the
// per-interval SCA view definition; expireAfter is the grace period after
// an interval's end before its instance is discarded (negative keeps all
// instances). d is the directory of def's views, which a family that keeps
// its instances shares, nil for one of its own; the caller counts the
// family in Dir() once (Dir.Acquire). A family that expires its instances
// ignores d.
func NewPeriodicView(name string, def view.Def, cal *Periodic, expireAfter int64, d *view.Dir) (*PeriodicView, error) {
	if name == "" {
		return nil, fmt.Errorf("calendar: periodic view needs a name")
	}
	if cal == nil {
		return nil, fmt.Errorf("calendar: periodic view %s needs a calendar", name)
	}
	if expireAfter >= 0 {
		d = nil
	} else if d == nil {
		d = view.NewDir(name)
		d.Acquire()
	}
	// Validate the definition once by instantiating the probe.
	probeDef := def
	probeDef.Name = name + "[probe]"
	probe, err := view.NewIn(probeDef, d)
	if err != nil {
		return nil, fmt.Errorf("calendar: periodic view %s: %w", name, err)
	}
	p := &PeriodicView{
		name:        name,
		def:         def,
		cal:         cal,
		dir:         d,
		expireAfter: expireAfter,
		instances:   make(map[Interval]*view.View),
		panes:       make(map[uint64]*view.View),
		probe:       probe,
	}
	p.live.Store(new([]InstanceInfo))
	p.co = &cohort{members: []*PeriodicView{p}, cal: cal, expireAfter: expireAfter, panes: make(map[Interval][]*pane), thru: make(map[Interval]uint64), nextExpiry: math.MaxInt64}
	return p, nil
}

// Share makes p, a family that has folded nothing yet, a member of peer's
// cohort. The caller vouches that the two fold the same expression by the
// same columns in the same rounds, on the same calendar with the same
// expiry. p meets the cohort's high-water chronon from now on; an interval
// or a pane born from now on gives p a view in the table the other members'
// views of it share, and one already live gives p a view with a table of its
// own (see bear). A cohort of more than one must be folded in nonzero rounds
// (Fold), as the engine folds.
func (p *PeriodicView) Share(peer *PeriodicView) {
	p.co = peer.co
	p.co.members = append(p.co.members, p)
	p.co.gen++
}

// Leave takes a dropped family out of its cohort, and its instances out of
// the tables they share.
func (p *PeriodicView) Leave() {
	c := p.co
	c.members = slices.DeleteFunc(c.members, func(m *PeriodicView) bool { return m == p })
	c.gen++
	for _, v := range p.instances {
		v.Leave()
	}
	for _, v := range p.panes {
		v.Leave()
	}
}

// Peer returns a member of p's cohort other than p, nil when there is none:
// after Leave, one of the families p's cohort goes on with.
func (p *PeriodicView) Peer() *PeriodicView {
	for _, m := range p.co.members {
		if m != p {
			return m
		}
	}
	return nil
}

// TableFamilies names the families whose live instances or panes share a
// table with one of p's, p first and the rest in the order they joined its
// cohort: p alone when its tables are its own.
func (p *PeriodicView) TableFamilies() []string {
	names := []string{p.name}
	for _, m := range p.co.members {
		if m != p && (sharesOne(p.instances, m.instances) || sharesOne(p.panes, m.panes)) {
			names = append(names, m.name)
		}
	}
	return names
}

// sharesOne reports whether a view of mine shares a table with theirs of
// the same key.
func sharesOne[K comparable](mine, theirs map[K]*view.View) bool {
	for k, v := range mine {
		if o, ok := theirs[k]; ok && o.SharesTable(v) {
			return true
		}
	}
	return false
}

// PanesOf returns p's views of the live panes inside iv, an interval of
// p's calendar, oldest first: what the instance of iv reads through.
func (p *PeriodicView) PanesOf(iv Interval) []*view.View {
	var out []*view.View
	for _, pn := range p.co.panesIn(iv) {
		if v, ok := p.panes[pn.num]; ok {
			out = append(out, v)
		}
	}
	return out
}

// panesIn returns the live panes inside iv, an interval of the calendar,
// oldest first. It looks up the spans the calendar cuts iv into (SpanAt),
// at most 2·⌈Width/Period⌉, not every live pane.
func (c *cohort) panesIn(iv Interval) []*pane {
	var out []*pane
	for lo := iv.Start; lo < iv.End; {
		_, hi := c.cal.SpanAt(lo)
		for _, pn := range c.panes[Interval{lo, hi}] {
			c.visited++
			out = append(out, pn)
		}
		lo = hi
	}
	slices.SortFunc(out, func(a, b *pane) int { return cmp.Compare(a.num, b.num) })
	return out
}

// Name returns the family name.
func (p *PeriodicView) Name() string { return p.name }

// Def returns the per-interval view definition.
func (p *PeriodicView) Def() view.Def { return p.def }

// Dir returns the key directory the family's instances share, or nil when
// each has its own.
func (p *PeriodicView) Dir() *view.Dir { return p.dir }

// Calendar returns the family's calendar.
func (p *PeriodicView) Calendar() *Periodic { return p.cal }

// ExpireAfter returns the grace period after an interval's end before its
// instance is discarded; negative keeps every instance.
func (p *PeriodicView) ExpireAfter() int64 { return p.expireAfter }

// Live returns the number of live instances, as last published.
func (p *PeriodicView) Live() int { return len(*p.live.Load()) }

// Created returns the number of instances ever created.
func (p *PeriodicView) Created() int64 { return p.created }

// Expired returns the number of instances dropped by expiration.
func (p *PeriodicView) Expired() int64 { return p.expired }

// Applies counts maintenance invocations ever applied (including rounds
// that only advanced expiration). Incremental checkpoints use it as the
// monotonic dirty marker: an unchanged count means unchanged state.
func (p *PeriodicView) Applies() int64 { return p.applies }

// Publish makes the rows folded since the last Publish visible to the
// readers of p's cohort, each table once and all inside one bracket of the
// cohort's Seq, and then, when an instance of p was born or expired since,
// the list of p's live instances: a reader that finds an instance in the
// list finds its rows published.
func (p *PeriodicView) Publish() {
	p.co.publish()
	p.owed = false
	if p.stale {
		p.publishLive()
	}
}

// publish publishes every view the cohort folded into since it last did.
func (c *cohort) publish() {
	if len(c.dirty) == 0 {
		return
	}
	c.seq.Begin()
	for i, v := range c.dirty {
		v.Publish()
		c.dirty[i] = nil
	}
	c.seq.End()
	c.dirty = c.dirty[:0]
}

// publishLive publishes the instances map as the sorted list readers see:
// the last list less the instances expired since, with those born since.
func (p *PeriodicView) publishLive() {
	old := *p.live.Load()
	list := make([]InstanceInfo, 0, len(p.instances))
	for _, e := range old {
		if p.instances[e.Interval] == e.View {
			list = append(list, e)
		}
	}
	for _, iv := range p.born {
		if v, ok := p.instances[iv]; ok {
			list = append(list, InstanceInfo{Interval: iv, View: v})
		}
	}
	clear(p.born)
	p.born = p.born[:0]
	byInterval := func(a, b InstanceInfo) int { return compareIntervals(a.Interval, b.Interval) }
	if !slices.IsSortedFunc(list, byInterval) {
		slices.SortFunc(list, byInterval)
	}
	// An interval born twice since (born, expired, born again) is listed once.
	list = slices.CompactFunc(list, func(a, b InstanceInfo) bool { return a.Interval == b.Interval })
	p.live.Store(&list)
	p.stale = false
}

// compareIntervals orders intervals by start, then by end.
func compareIntervals(a, b Interval) int {
	return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.End, b.End))
}

// Fold routes the rows of one append call to the instances whose interval
// contains their chronon — to the pane of their span for the instances that
// read through panes — creating instances and panes on demand, and expires
// instances whose grace period has passed. Only the
// currently active instances are maintained — the Section 5.2 requirement
// that "only these periodic views need to be maintained upon insertions".
//
// A call's rows carry their own chronons, so a window boundary may fall
// inside it. The call is folded in maximal runs (in SN order) of rows the
// calendar treats alike — one IntervalsAt per span — and the outcome is the
// one folding each SN by itself gives: rows no interval contains are not the
// family's business (they neither advance its clock nor expire anything,
// just as dispatch keeps a whole call of them away), and a row arriving
// after its own interval's grace period folds alone, into an instance that
// is created for it and expires with it.
//
// delta is the family's expression delta for d, ascending in SN — the
// engine's shared plan computes it once per round for every view and family
// of the expression. Each run's pane and instances fold the run's slice of
// it with ApplyCall(round, slice): the slice is a window of delta itself,
// never a copy, so one round's slices are told apart by where they start and
// how long they are, and the views that fold one run in turn resolve its
// rows once (view.Dir).
//
// The family's cohort folds the round for every member the first time one
// of them is folded in it; the other members' Folds of that round find it
// done. Nothing becomes visible to readers until Publish — neither folded
// rows nor an instance born or expired; first reports that this fold is the
// first since the last Publish to leave something to publish.
func (p *PeriodicView) Fold(round uint64, d algebra.BatchDelta, delta []chronicle.Row) (first bool, err error) {
	p.applies++
	err = p.co.fold(round, d, delta)
	owed := len(p.co.dirty) > 0 || p.stale
	first = !p.owed && owed
	p.owed = owed
	return first, err
}

// fold is Fold for every member of the cohort, once a round.
func (c *cohort) fold(round uint64, d algebra.BatchDelta, delta []chronicle.Row) error {
	if round != 0 && round == c.round {
		return nil
	}
	c.round = round
	for rest := d; ; {
		at, ok := lowestSN(rest)
		if !ok {
			break
		}
		lo, hi := c.cal.SpanAt(at.Chronon)
		if span := (Interval{lo, hi}); span != c.last.span || c.last.ivs == nil {
			c.last = runPlan{span: span, ivs: c.cal.IntervalsAt(at.Chronon), gen: c.gen - 1, direct: c.last.direct[:0]}
		}
		ivs := c.last.ivs
		alone := c.pastGrace(ivs)
		var run algebra.BatchDelta
		run, rest = cut(rest, func(r chronicle.Row) bool {
			return r.Chronon < lo || r.Chronon >= hi || (alone && r.SN != at.SN)
		})
		n := len(delta)
		if next, ok := lowestSN(rest); ok {
			n = sort.Search(n, func(i int) bool { return delta[i].SN >= next.SN })
		}
		slice := delta[:n:n]
		delta = delta[n:]
		if len(ivs) == 0 {
			continue
		}
		for _, rows := range run {
			for _, r := range rows {
				c.maxSeen = max(c.maxSeen, r.Chronon)
			}
		}
		if err := c.foldRun(round, Interval{lo, hi}, ivs, slice); err != nil {
			return err
		}
		c.expire()
	}
	return nil
}

// foldRun folds one run's slice of the delta, whose rows lie in span and
// in the intervals ivs: into each member's instance of an interval that
// does not read through panes, and once into the span's pane for all those
// that do.
func (c *cohort) foldRun(round uint64, span Interval, ivs []Interval, slice []chronicle.Row) error {
	if err := c.plan(span, ivs); err != nil {
		return err
	}
	for _, iv := range c.last.direct {
		for _, m := range c.members {
			c.apply(m.instances[iv], round, slice)
		}
	}
	if p := c.last.pane; p != nil {
		for _, m := range c.members {
			c.apply(m.panes[p.num], round, slice)
		}
	}
	return nil
}

// plan makes c.last the plan of span's runs: it bears what the members
// lack of ivs and of the pane, unless the last run of span did and nothing
// was born, expired or changed members since.
func (c *cohort) plan(span Interval, ivs []Interval) error {
	if c.last.gen == c.gen && c.last.span == span {
		return nil
	}
	k := &c.last
	k.direct, k.pane = k.direct[:0], nil
	for _, iv := range ivs {
		if err := c.birth(iv); err != nil {
			return err
		}
		if _, ok := c.thru[iv]; !ok {
			k.direct = append(k.direct, iv)
		}
	}
	if len(k.direct) < len(ivs) {
		var err error
		if k.pane, err = c.paneFor(span, ivs); err != nil {
			return err
		}
	}
	k.gen = c.gen
	return nil
}

// apply folds a run into v and lists v for publication on its first fold
// since the last; another view of v's table finds the run folded.
func (c *cohort) apply(v *view.View, round uint64, slice []chronicle.Row) {
	if v.ApplyCall(round, slice) {
		c.dirty = append(c.dirty, v)
	}
}

// paneFor returns the pane of span a run folds into, with a view for every
// member; ivs are the intervals that contain span. That is the span's newest
// pane unless it is not the newest pane of every interval of ivs that reads
// through panes: every table reading a pane must get its rows in the order
// of its panes, so a late row whose span's pane is not the newest of those
// reading it starts another pane of the span, which later rows of the span
// fold into too. Rows whose chronons advance make one pane a span.
func (c *cohort) paneFor(span Interval, ivs []Interval) (*pane, error) {
	ps := c.panes[span]
	var p *pane
	if n := len(ps); n > 0 {
		p = ps[n-1]
		for _, iv := range ivs {
			if newest, ok := c.thru[iv]; ok && newest != p.num {
				p = nil
				break
			}
		}
	}
	if p == nil {
		c.made++
		p = &pane{num: c.made, span: span}
		for _, iv := range ivs {
			c.visited++
			if _, ok := c.thru[iv]; ok {
				c.thru[iv] = p.num
				p.readers++
			}
		}
		c.panes[span] = append(ps, p)
	}
	made, err := bear(c, p.num, func(m *PeriodicView) map[uint64]*view.View { return m.panes }, paneName(span).String)
	for _, m := range made {
		for _, iv := range ivs {
			if _, ok := c.thru[iv]; ok {
				m.instances[iv].AddPane(m.panes[p.num])
			}
		}
	}
	return p, err
}

// paneName names a family's view of the pane of a span: the family's name,
// then "~[start,end)".
type paneName Interval

func (n paneName) String() string { return "~" + Interval(n).String() }

// birth gives every member that lacks one an instance of iv (bear). An
// interval born while its window is open, and that is more than one span,
// reads through the panes inside it for as long as it lives.
func (c *cohort) birth(iv Interval) error {
	made, err := bear(c, iv, func(m *PeriodicView) map[Interval]*view.View { return m.instances }, iv.String)
	if err != nil || len(made) == 0 {
		return err
	}
	var panes []*pane
	_, thru := c.thru[iv]
	if lo, hi := c.cal.SpanAt(iv.Start); len(made) == len(c.members) && iv.End > c.maxSeen && (lo != iv.Start || hi != iv.End) {
		panes, thru = c.read(iv), true
	} else if thru {
		panes = c.panesIn(iv)
	}
	c.nextExpiry = min(c.nextExpiry, iv.End+c.expireAfter)
	for _, m := range made {
		m.stale = true
		m.born = append(m.born, iv)
		m.created++
		if thru {
			m.readThrough(iv, panes)
		}
	}
	return nil
}

// read makes iv an interval whose instances read through panes, counted
// among the readers of the panes inside it, and returns those panes.
func (c *cohort) read(iv Interval) []*pane {
	panes := c.panesIn(iv)
	var newest uint64
	for _, p := range panes {
		p.readers++
		newest = p.num
	}
	c.thru[iv] = newest
	return panes
}

// release takes iv, whose instances expired, out of the readers of the
// panes inside it, and frees the panes it was the last to read.
func (c *cohort) release(iv Interval) {
	delete(c.thru, iv)
	for _, p := range c.panesIn(iv) {
		if p.readers--; p.readers > 0 {
			continue
		}
		for _, m := range c.members {
			if v, ok := m.panes[p.num]; ok {
				v.Leave()
				delete(m.panes, p.num)
			}
		}
		if ps := slices.DeleteFunc(c.panes[p.span], func(q *pane) bool { return q == p }); len(ps) > 0 {
			c.panes[p.span] = ps
		} else {
			delete(c.panes, p.span)
		}
	}
}

// readThrough makes p's instance of iv read through p's views of panes,
// the cohort's panes inside iv.
func (p *PeriodicView) readThrough(iv Interval, panes []*pane) {
	inst := p.instances[iv]
	inst.ReadThrough(&p.co.seq)
	for _, pn := range panes {
		if v, ok := p.panes[pn.num]; ok {
			inst.AddPane(v)
		}
	}
}

// bear gives every member that lacks one a view of x in the map views
// picks — an instance or a pane, named by suffix — and returns the members
// that got one.
// When no member has one, x is born: the first member's view is made in its
// family's directory, or one of its own, and every other member's joins its
// table (view.Join) before anything is folded into it. A member that lacks
// a view of an x already born — it joined the cohort after — gets one with a
// table of its own, as a view made after its directory's table holds groups
// does: that table holds rows the member never had.
func bear[K comparable](c *cohort, x K, views func(*PeriodicView) map[K]*view.View, suffix func() string) ([]*PeriodicView, error) {
	var host *view.View
	for _, m := range c.members {
		if v, ok := views(m)[x]; ok {
			host = v
			break
		}
	}
	born := host == nil
	var made []*PeriodicView
	for _, m := range c.members {
		if _, ok := views(m)[x]; ok {
			continue
		}
		def := m.named(suffix())
		var v *view.View
		var err error
		if born && host != nil {
			v, err = view.Join(def, host)
		} else {
			v, err = view.NewIn(def, m.dir)
			if host == nil {
				host = v
			}
		}
		if err != nil {
			return made, fmt.Errorf("calendar: %s: %w", m.name, err)
		}
		views(m)[x] = v
		made = append(made, m)
		c.gen++
	}
	return made, nil
}

// named is the family's definition under the name of one of its views:
// the family's name and suffix.
func (p *PeriodicView) named(suffix string) view.Def {
	def := p.def
	def.Name = p.name + suffix
	return def
}

// pastGrace reports whether any of the intervals has already outlived its
// grace period at the cohort's high-water chronon.
func (c *cohort) pastGrace(ivs []Interval) bool {
	for _, iv := range ivs {
		if c.expireAfter >= 0 && iv.End+c.expireAfter <= c.maxSeen {
			return true
		}
	}
	return false
}

// lowestSN returns the batch's first row in SN order; ok is false for a
// batch without rows.
func lowestSN(d algebra.BatchDelta) (at chronicle.Row, ok bool) {
	for _, rows := range d {
		if len(rows) > 0 && (!ok || rows[0].SN < at.SN) {
			at, ok = rows[0], true
		}
	}
	return at, ok
}

// cut splits a batch in SN order at the first row stop accepts: head holds
// the rows of every SN before that row's, tail the rest (nil when no row
// stops; head is then d itself, at no cost but the scan). stop must answer
// alike for rows sharing an SN, and must not accept the batch's first row.
func cut(d algebra.BatchDelta, stop func(chronicle.Row) bool) (head, tail algebra.BatchDelta) {
	cutSN, found := int64(0), false
	for _, rows := range d {
		for _, r := range rows {
			if found && r.SN >= cutSN {
				break
			}
			if stop(r) {
				cutSN, found = r.SN, true
				break
			}
		}
	}
	if !found {
		return d, nil
	}
	head, tail = make(algebra.BatchDelta, len(d)), make(algebra.BatchDelta, len(d))
	for c, rows := range d {
		i := sort.Search(len(rows), func(i int) bool { return rows[i].SN >= cutSN })
		if i > 0 {
			head[c] = rows[:i]
		}
		if i < len(rows) {
			tail[c] = rows[i:]
		}
	}
	return head, tail
}

// expire drops the members' instances whose interval ended more than
// expireAfter ago, once the high-water chronon has reached the first such
// end, and releases the panes they read through.
func (c *cohort) expire() {
	if c.expireAfter < 0 || c.maxSeen < c.nextExpiry {
		return
	}
	c.nextExpiry = math.MaxInt64
	for _, m := range c.members {
		for iv := range m.instances {
			if at := iv.End + c.expireAfter; at > c.maxSeen {
				c.nextExpiry = min(c.nextExpiry, at)
				continue
			}
			delete(m.instances, iv)
			m.stale = true
			m.expired++
			c.gen++
			if _, ok := c.thru[iv]; ok {
				c.release(iv)
			}
		}
	}
}

// Reads. At, Starting, Latest, Instances and Live read the published list
// of live instances without a lock, while maintenance runs: they see the
// instances of the last published call.

// At returns the live instance for an interval.
func (p *PeriodicView) At(iv Interval) (*view.View, bool) {
	list := *p.live.Load()
	i, ok := slices.BinarySearchFunc(list, iv, func(e InstanceInfo, iv Interval) int { return compareIntervals(e.Interval, iv) })
	if !ok {
		return nil, false
	}
	return list[i].View, true
}

// Starting returns the live instance whose interval starts at start (of two
// that start there, the one that ends first): a start names one instance
// even where a chronon lies in several.
func (p *PeriodicView) Starting(start int64) (InstanceInfo, bool) {
	return starting(*p.live.Load(), start)
}

// Latest returns the live instance with the latest interval start (of two
// that start there, the one that ends first); ok is false while no instance
// is live.
func (p *PeriodicView) Latest() (InstanceInfo, bool) {
	list := *p.live.Load()
	if len(list) == 0 {
		return InstanceInfo{}, false
	}
	return starting(list, list[len(list)-1].Interval.Start)
}

// starting finds the first instance of a published list whose interval
// starts at start.
func starting(list []InstanceInfo, start int64) (InstanceInfo, bool) {
	i, ok := slices.BinarySearchFunc(list, start, func(e InstanceInfo, s int64) int { return cmp.Compare(e.Interval.Start, s) })
	if !ok {
		return InstanceInfo{}, false
	}
	return list[i], true
}

// Probe returns an empty view of the family's definition, never folded
// into: its schema is every instance's, and a read of the family while no
// instance is live reads it.
func (p *PeriodicView) Probe() *view.View { return p.probe }

// ActiveAt returns the live instances whose interval contains ch, in
// ascending interval order.
func (p *PeriodicView) ActiveAt(ch int64) []*view.View {
	var out []*view.View
	for _, iv := range p.cal.IntervalsAt(ch) {
		if v, ok := p.At(iv); ok {
			out = append(out, v)
		}
	}
	return out
}

// Instances returns all live instances with their intervals, sorted by
// interval start (then end). The slice is the caller's.
func (p *PeriodicView) Instances() []InstanceInfo {
	return slices.Clone(*p.live.Load())
}

// InstanceInfo pairs a live view instance with its interval.
type InstanceInfo struct {
	Interval Interval
	View     *view.View
}
