package calendar

import (
	"fmt"
	"slices"
	"sort"

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
// that keeps its instances keeps their keys in one key directory, which the
// engine shares with the views and families whose keys trace to the same
// chronicle columns (view.Dir), so a key is held once however many
// instances hold it. A directory never drops a key, so a family whose
// instances expire gives each its own, which goes with it: its key state
// stays bounded by its live instances however many keys the stream moves
// through.
//
// A family is folded as a member of its cohort: the families the engine
// found to fold the same expression by the same columns on the same calendar
// with the same expiry (Share), a cohort of one for a family that matches
// none. The cohort owns the stream's high-water chronon and cuts each round
// into runs once for all its members, and the instances its members get
// when an interval is born share one table (view.Join): a row is folded,
// versioned and published once per interval however many families hold it,
// and each instance reads its own columns of the table's groups.
type PeriodicView struct {
	name        string
	def         view.Def
	cal         Calendar
	dir         *view.Dir // the instances' directory; nil: one per instance
	expireAfter int64     // chronons past interval end; <0 keeps instances forever
	co          *cohort

	instances map[Interval]*view.View
	dirty     []*view.View // instances folded into since the last Publish
	owed      bool         // a Fold has reported dirty instances the last Publish has not published
	created   int64
	expired   int64
	applies   int64 // maintenance invocations; the checkpoint dirty marker
}

// cohort is the families whose instances of one interval can share a table:
// they fold one delta by the same key in the same rounds, and cut it into
// the same runs. It folds each round once for all of them, so every member
// meets the same high-water chronon and expires the same intervals.
type cohort struct {
	members     []*PeriodicView // in the order they joined
	cal         Calendar
	expireAfter int64
	maxSeen     int64  // high-water chronon, drives expiration
	round       uint64 // the round folded last; 0 never matches
}

// NewPeriodicView builds the family, a cohort of one. def is the
// per-interval SCA view definition; expireAfter is the grace period after
// an interval's end before its instance is discarded (negative keeps all
// instances). d is the directory of def's views, which a family that keeps
// its instances shares, nil for one of its own; the caller counts the
// family in Dir() once (Dir.Acquire). A family that expires its instances
// ignores d.
func NewPeriodicView(name string, def view.Def, cal Calendar, expireAfter int64, d *view.Dir) (*PeriodicView, error) {
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
	// Validate the definition once by instantiating a throwaway view.
	probe := def
	probe.Name = name + "[probe]"
	if _, err := view.NewIn(probe, d); err != nil {
		return nil, fmt.Errorf("calendar: periodic view %s: %w", name, err)
	}
	p := &PeriodicView{
		name:        name,
		def:         def,
		cal:         cal,
		dir:         d,
		expireAfter: expireAfter,
		instances:   make(map[Interval]*view.View),
	}
	p.co = &cohort{members: []*PeriodicView{p}, cal: cal, expireAfter: expireAfter}
	return p, nil
}

// Share makes p, a family that has folded nothing yet, a member of peer's
// cohort. The caller vouches that the two fold the same expression by the
// same columns in the same rounds, on the same calendar with the same
// expiry. p meets the cohort's high-water chronon from now on; an interval
// born from now on gives p an instance in the table the other members'
// instances of it share, and one already live gives p an instance with a
// table of its own (see birth). A cohort of more than one must be folded in
// nonzero rounds (Fold), as the engine folds.
func (p *PeriodicView) Share(peer *PeriodicView) {
	p.co = peer.co
	p.co.members = append(p.co.members, p)
}

// Leave takes a dropped family out of its cohort, and its instances out of
// the tables they share.
func (p *PeriodicView) Leave() {
	c := p.co
	c.members = slices.DeleteFunc(c.members, func(m *PeriodicView) bool { return m == p })
	for _, v := range p.instances {
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

// TableFamilies names the families whose live instances share a table with
// one of p's, p first and the rest in the order they joined its cohort:
// p alone when its instances have their tables to themselves.
func (p *PeriodicView) TableFamilies() []string {
	names := []string{p.name}
	for _, m := range p.co.members {
		if m == p {
			continue
		}
		for iv, v := range p.instances {
			if o, ok := m.instances[iv]; ok && o.SharesTable(v) {
				names = append(names, m.name)
				break
			}
		}
	}
	return names
}

// Name returns the family name.
func (p *PeriodicView) Name() string { return p.name }

// Def returns the per-interval view definition.
func (p *PeriodicView) Def() view.Def { return p.def }

// Dir returns the key directory the family's instances share, or nil when
// each has its own.
func (p *PeriodicView) Dir() *view.Dir { return p.dir }

// Calendar returns the family's calendar.
func (p *PeriodicView) Calendar() Calendar { return p.cal }

// ExpireAfter returns the grace period after an interval's end before its
// instance is discarded; negative keeps every instance.
func (p *PeriodicView) ExpireAfter() int64 { return p.expireAfter }

// Live returns the number of live instances.
func (p *PeriodicView) Live() int { return len(p.instances) }

// Created returns the number of instances ever created.
func (p *PeriodicView) Created() int64 { return p.created }

// Expired returns the number of instances dropped by expiration.
func (p *PeriodicView) Expired() int64 { return p.expired }

// Applies counts maintenance invocations ever applied (including rounds
// that only advanced expiration). Incremental checkpoints use it as the
// monotonic dirty marker: an unchanged count means unchanged state.
func (p *PeriodicView) Applies() int64 { return p.applies }

// Apply maintains the family for one append batch on its own: it computes
// the expression delta, folds it outside any maintenance round, and
// publishes. The engine folds every row of an append call and publishes
// once; Apply serves callers that drive a family of a cohort of one
// directly.
func (p *PeriodicView) Apply(d algebra.BatchDelta) error {
	_, err := p.Fold(0, d, algebra.Delta(p.def.Expr, d))
	p.Publish()
	return err
}

// Publish makes the rows folded since the last Publish visible to the
// instances' readers, each instance once.
func (p *PeriodicView) Publish() {
	for i, inst := range p.dirty {
		inst.Publish()
		p.dirty[i] = nil
	}
	p.dirty = p.dirty[:0]
	p.owed = false
}

// Fold routes the rows of one append call to every view instance whose
// interval contains their chronon, creating instances on demand, and expires
// instances whose grace period has passed. Only the currently active
// instances are maintained — the Section 5.2 requirement that "only these
// periodic views need to be maintained upon insertions".
//
// A call's rows carry their own chronons, so a window boundary may fall
// inside it. The call is folded in maximal runs (in SN order) of rows the
// calendar treats alike — one IntervalsAt per run — and the outcome is the
// one folding each SN by itself gives: rows no interval contains are not the
// family's business (they neither advance its clock nor expire anything,
// just as dispatch keeps a whole call of them away), and a row arriving
// after its own interval's grace period folds alone, into an instance that
// is created for it and expires with it.
//
// delta is the family's expression delta for d, ascending in SN — the
// engine's shared plan computes it once per round for every view and family
// of the expression. Each run's instances fold the run's slice of it with
// ApplyCall(round, slice): the slice is a window of delta itself, never a
// copy, so one round's slices are told apart by where they start and how
// long they are, and the instances that fold one run in turn resolve its
// rows once (view.Dir).
//
// The family's cohort folds the round for every member the first time one
// of them is folded in it; the other members' Folds of that round find it
// done. Nothing becomes visible to readers until Publish; first reports that
// this fold is the first since the last Publish to leave something to
// publish.
func (p *PeriodicView) Fold(round uint64, d algebra.BatchDelta, delta []chronicle.Row) (first bool, err error) {
	p.applies++
	err = p.co.fold(round, d, delta)
	first = !p.owed && len(p.dirty) > 0
	p.owed = len(p.dirty) > 0
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
		ivs := c.cal.IntervalsAt(at.Chronon)
		lo, hi := c.cal.SpanAt(at.Chronon)
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
		for _, iv := range ivs {
			if err := c.birth(iv); err != nil {
				return err
			}
			for _, m := range c.members {
				if inst := m.instances[iv]; inst.ApplyCall(round, slice) {
					m.dirty = append(m.dirty, inst)
				}
			}
		}
		c.expire()
	}
	return nil
}

// birth gives every member that lacks one an empty instance of iv. When no
// member has one, the interval is born: the first member's instance is made
// in its family's directory, or one of its own, and every other member's
// joins its table (view.Join) before anything is folded into it. A member
// that lacks an instance of a live interval — it joined the cohort after the
// interval was born — gets an instance with a table of its own, as a view
// made after its directory's table holds groups does: that table holds rows
// the member never had.
func (c *cohort) birth(iv Interval) error {
	var host *view.View
	for _, m := range c.members {
		if v, ok := m.instances[iv]; ok {
			host = v
			break
		}
	}
	born := host == nil
	for _, m := range c.members {
		if _, ok := m.instances[iv]; ok {
			continue
		}
		def := m.instanceDef(iv)
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
			return fmt.Errorf("calendar: %s: %w", m.name, err)
		}
		m.instances[iv] = v
		m.created++
	}
	return nil
}

// instanceDef is the definition of the family's instance of interval iv.
func (p *PeriodicView) instanceDef(iv Interval) view.Def {
	def := p.def
	def.Name = p.name + iv.String()
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
// expireAfter ago.
func (c *cohort) expire() {
	if c.expireAfter < 0 {
		return
	}
	for _, m := range c.members {
		for iv := range m.instances {
			if iv.End+c.expireAfter <= c.maxSeen {
				delete(m.instances, iv)
				m.expired++
			}
		}
	}
}

// At returns the live instance for an interval.
func (p *PeriodicView) At(iv Interval) (*view.View, bool) {
	v, ok := p.instances[iv]
	return v, ok
}

// ActiveAt returns the live instances whose interval contains ch, in
// ascending interval order.
func (p *PeriodicView) ActiveAt(ch int64) []*view.View {
	var out []*view.View
	for _, iv := range p.cal.IntervalsAt(ch) {
		if v, ok := p.instances[iv]; ok {
			out = append(out, v)
		}
	}
	return out
}

// Instances returns all live instances with their intervals, sorted by
// interval start (for reporting).
func (p *PeriodicView) Instances() []InstanceInfo {
	out := make([]InstanceInfo, 0, len(p.instances))
	for iv, v := range p.instances {
		out = append(out, InstanceInfo{Interval: iv, View: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Interval.Start < out[j].Interval.Start })
	return out
}

// InstanceInfo pairs a live view instance with its interval.
type InstanceInfo struct {
	Interval Interval
	View     *view.View
}
