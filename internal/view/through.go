package view

import (
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"chronicledb/internal/value"
)

// Reading through panes. A periodic family whose windows overlap folds each
// row once, into the table of its span's pane, and an instance whose window
// is still open holds no group of its own: its table reads through the panes
// its window covers, merging each key's groups in the order the panes were
// made (aggregate.Layout.Merge), and its views read their own columns of the
// merge. When the window closes the panes are merged into the table once
// (Materialize), and from the table's next publication on its views read the
// table as any view does.
//
// One call may fold into two panes, and each publishes on its own. The
// tables a family's instances read through publish inside one Seq bracket,
// and a read checks the bracket's number before and after it, so it sees
// every pane of one call published or none.

// Seq brackets the publication of the tables that views read through: a
// number, odd while a publication runs, and a lock the publication holds.
// A read through panes that collides with publications twice takes the
// lock's read side, so a read under a writer that publishes faster than it
// can merge still ends (as Scan does with a view's own lock).
type Seq struct {
	n  atomic.Uint64
	mu sync.RWMutex
}

// Begin opens a publication: tables read through may change until End.
func (s *Seq) Begin() {
	s.mu.Lock()
	s.n.Add(1)
}

// End closes the publication Begin opened.
func (s *Seq) End() {
	s.n.Add(1)
	s.mu.Unlock()
}

// through is what a table reads instead of its own groups: the tables of its
// panes, oldest first, under the bracket they publish in. It is immutable; a
// new pane makes a new one, whose list may share the old one's array past
// the old one's length.
type through struct {
	seq   *Seq
	panes []pane
}

// pane is one table read through, and where each aggregation of the reading
// table's layout sits in the pane's (aggregate.Layout.IndexIn).
type pane struct {
	t  *table
	at []int
}

// ReadThrough makes v's table, which holds no group, read through panes
// that publish inside seq; it reads none until AddPane. The table's views
// read the merge of the panes' groups until Materialize. Views that share
// the table must all be made (Join) before their first pane is added.
func (v *View) ReadThrough(seq *Seq) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.thru.Load() == nil {
		v.thru.Store(&through{seq: seq})
	}
}

// AddPane appends the table of p, a view folding the same delta by the same
// key as v, to the panes v's table reads through; the views of one table
// add it once for all of them. Panes are added in the order their rows are
// folded: a row folds into the newest pane of every table that reads it, so
// that merging in pane order is merging in SN order.
func (v *View) AddPane(p *View) {
	v.mu.Lock()
	defer v.mu.Unlock()
	th := v.thru.Load()
	if th == nil || v.materialized {
		return
	}
	if n := len(th.panes); n > 0 && th.panes[n-1].t == p.table {
		return
	}
	v.thru.Store(&through{seq: th.seq, panes: append(th.panes, pane{t: p.table, at: v.sh.l.IndexIn(p.sh.l)})})
}

// ReadsThrough reports whether v's table reads through panes: whether the
// window of an instance it holds is open.
func (v *View) ReadsThrough() bool { return v.thru.Load() != nil }

// Materialize merges the groups of the panes v's table reads through into
// the table, oldest pane first, once for all the table's views: their live
// groups, with what was folded into them and is not yet published. From the
// table's next publication its views read its own groups, and rows folded
// into it meanwhile fold on top of the merge. The table's directory takes
// the panes' keys it lacks. Each pane's group of a key is one merge
// (Stats.Merges).
func (v *View) Materialize() {
	v.mu.Lock()
	defer v.mu.Unlock()
	th := v.thru.Load()
	if th == nil || v.materialized {
		return
	}
	// Nothing reads the table's own entries before the publication that
	// drops th, so the merge writes them in place of a pending version.
	v.materialized, v.unpublished = true, true
	h, l := v.store, v.sh.l
	var key []byte
	for _, p := range th.panes {
		p.t.mu.RLock()
		ph, own := p.t.store, p.t.store.dir == h.dir
		if !own {
			h.dir.mu.Lock()
		}
		ph.eachLive(func(id uint32, e *entry) {
			if !own {
				key = append(key[:0], ph.dir.key(id)...)
				id = h.dir.intern(key)
			}
			g := h.published(id)
			if g == nil {
				g = newEntry(v.arena, v.sh, nil)
				h.pub.slot(id).Store(g)
				h.markCarved(id, true)
				h.count.Add(1)
			}
			l.MergeFrom(g.group(v.sh), p.t.sh.l, e.group(p.t.sh), p.at)
			v.stats.Merges++
		})
		if !own {
			h.dir.mu.Unlock()
		}
		v.appliedLSN = max(v.appliedLSN, p.t.appliedLSN)
		p.t.mu.RUnlock()
	}
}

// eachLive visits the groups of the live store: an id's version pending
// since the last publication, else its published entry. Writers only.
func (h *store) eachLive(fn func(id uint32, e *entry)) {
	var versions map[uint32]*entry
	for _, p := range h.pending {
		if p.old == nil {
			fn(p.id, p.e)
			continue
		}
		if versions == nil {
			versions = make(map[uint32]*entry, len(h.pending))
		}
		versions[p.id] = p.e
	}
	h.pub.each(func(id uint32, s *atomic.Pointer[entry]) {
		if e := s.Load(); e != nil {
			if pe, ok := versions[id]; ok {
				e = pe
			}
			fn(id, e)
		}
	})
}

// settled runs read over the panes the table reads through until one run
// fell between two publications of them, and reports whether read ran:
// false once the table reads its own groups. The bracket's number is loaded
// before the panes, so a read that began before the publication that
// dropped them sees the number change.
func (t *table) settled(read func(th *through)) bool {
	for try := 0; ; try++ {
		th := t.thru.Load()
		if th == nil {
			return false
		}
		seq := th.seq
		if try == 2 {
			seq.mu.RLock()
			defer seq.mu.RUnlock()
			if th = t.thru.Load(); th != nil {
				read(th)
			}
			return th != nil
		}
		n := seq.n.Load()
		if n&1 != 0 {
			continue
		}
		if th = t.thru.Load(); th == nil {
			return false
		}
		read(th)
		if seq.n.Load() == n {
			return true
		}
	}
}

// eachThrough visits the keys in [lo, hi) that any pane of th holds, in key
// order or, with desc, its reverse, until fn says stop: each key once, with
// the merge of its panes' groups in pane order in e, which the next key
// reuses. Panes of v's directory are walked once, by id; panes with
// directories of their own (a family that expires its instances) are
// gathered pane by pane and merged by key.
func (v *View) eachThrough(th *through, lo, hi []byte, desc bool, fn func(key string, e *entry) bool) {
	for _, p := range th.panes {
		p.t.readers.Add(1)
		defer p.t.readers.Add(-1)
	}
	e := newEntry(nil, v.sh, nil)
	g, l := e.group(v.sh), v.sh.l
	d := v.store.dir
	if !slices.ContainsFunc(th.panes, func(p pane) bool { return p.t.store.dir != d }) {
		d.walk(lo, hi, desc, func(id uint32) bool {
			g.Reset()
			hit := false
			for _, p := range th.panes {
				if pe := p.t.store.published(id); pe != nil && pe.count() != 0 {
					l.MergeFrom(g, p.t.sh.l, pe.group(p.t.sh), p.at)
					hit = true
				}
			}
			return !hit || fn(d.key(id), e)
		})
		return
	}
	type held struct {
		key  string
		pane int
		e    *entry
	}
	var all []held
	for i, p := range th.panes {
		h := p.t.store
		h.each(lo, hi, func(id uint32, pe *entry) bool {
			if pe.count() != 0 {
				all = append(all, held{h.dir.key(id), i, pe})
			}
			return true
		})
	}
	// Stable: a key's groups stay in pane order.
	slices.SortStableFunc(all, func(a, b held) int { return strings.Compare(a.key, b.key) })
	for n := 0; n < len(all); {
		i := n
		if desc {
			i = len(all) - 1 - n
			for i > 0 && all[i-1].key == all[i].key {
				i--
			}
		}
		g.Reset()
		j := i
		for ; j < len(all) && all[j].key == all[i].key; j++ {
			p := th.panes[all[j].pane]
			l.MergeFrom(g, p.t.sh.l, all[j].e.group(p.t.sh), p.at)
		}
		n += j - i
		if !fn(all[i].key, e) {
			return
		}
	}
}

// lookupThrough is Lookup over the panes of th: key's group in each pane
// that holds it, merged.
func (v *View) lookupThrough(th *through, key []byte) (value.Tuple, bool) {
	var e *entry
	var k string
	for _, p := range th.panes {
		p.t.readers.Add(1)
		if pk, pe := p.t.store.rget(key); pe != nil && pe.count() != 0 {
			if e == nil {
				e, k = newEntry(nil, v.sh, nil), pk
			}
			v.sh.l.MergeFrom(e.group(v.sh), p.t.sh.l, pe.group(p.t.sh), p.at)
		}
		p.t.readers.Add(-1)
	}
	if e == nil {
		return nil, false
	}
	return rowOf(v, k, e), true
}
