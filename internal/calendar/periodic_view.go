package calendar

import (
	"fmt"
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
// engine shares with the views of that expression (view.Dir), so a key is
// held once however many instances hold it. A directory never drops a key,
// so a family whose instances expire gives each its own, which goes with it:
// its key state stays bounded by its live instances however many keys the
// stream moves through.
type PeriodicView struct {
	name        string
	def         view.Def
	cal         Calendar
	dir         *view.Dir // the instances' directory; nil: one per instance
	expireAfter int64     // chronons past interval end; <0 keeps instances forever

	instances map[Interval]*view.View
	dirty     []*view.View // instances folded into since the last Publish
	maxSeen   int64        // high-water chronon, drives expiration
	created   int64
	expired   int64
	applies   int64 // maintenance invocations; the checkpoint dirty marker
}

// NewPeriodicView builds the family. def is the per-interval SCA view
// definition; expireAfter is the grace period after an interval's end
// before its instance is discarded (negative keeps all instances). d is the
// directory of def's views, which a family that keeps its instances shares,
// nil for one of its own; the caller counts the family in Dir() once
// (Dir.Acquire). A family that expires its instances ignores d.
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
		d = view.NewDir(name, def.KeyCols())
		d.Acquire()
	}
	// Validate the definition once by instantiating a throwaway view.
	probe := def
	probe.Name = name + "[probe]"
	if _, err := view.NewIn(probe, d); err != nil {
		return nil, fmt.Errorf("calendar: periodic view %s: %w", name, err)
	}
	return &PeriodicView{
		name:        name,
		def:         def,
		cal:         cal,
		dir:         d,
		expireAfter: expireAfter,
		instances:   make(map[Interval]*view.View),
	}, nil
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
// once; Apply serves callers that drive a family directly.
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
// Nothing becomes visible to readers until Publish; first reports that this
// fold is the first since the last one to leave something to publish.
func (p *PeriodicView) Fold(round uint64, d algebra.BatchDelta, delta []chronicle.Row) (first bool, err error) {
	clean := len(p.dirty) == 0
	p.applies++
	for rest := d; ; {
		at, ok := lowestSN(rest)
		if !ok {
			break
		}
		ivs := p.cal.IntervalsAt(at.Chronon)
		lo, hi := p.cal.SpanAt(at.Chronon)
		alone := p.pastGrace(ivs)
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
				p.maxSeen = max(p.maxSeen, r.Chronon)
			}
		}
		for _, iv := range ivs {
			inst, ok := p.instances[iv]
			if !ok {
				v, err := p.instance(iv)
				if err != nil {
					return false, err
				}
				inst = v
				p.instances[iv] = inst
				p.created++
			}
			if inst.ApplyCall(round, slice) {
				p.dirty = append(p.dirty, inst)
			}
		}
		p.expire()
	}
	return clean && len(p.dirty) > 0, nil
}

// instance makes the empty instance of interval iv, in the family's
// directory or one of its own.
func (p *PeriodicView) instance(iv Interval) (*view.View, error) {
	def := p.def
	def.Name = fmt.Sprintf("%s%s", p.name, iv)
	return view.NewIn(def, p.dir)
}

// pastGrace reports whether any of the intervals has already outlived its
// grace period at the family's high-water chronon.
func (p *PeriodicView) pastGrace(ivs []Interval) bool {
	for _, iv := range ivs {
		if p.expireAfter >= 0 && iv.End+p.expireAfter <= p.maxSeen {
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

// expire drops instances whose interval ended more than expireAfter ago.
func (p *PeriodicView) expire() {
	if p.expireAfter < 0 {
		return
	}
	for iv := range p.instances {
		if iv.End+p.expireAfter <= p.maxSeen {
			delete(p.instances, iv)
			p.expired++
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
