package view

import (
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"chronicledb/internal/value"
)

// Reading through panes. A periodic family whose windows overlap folds each
// row once, into the table of its span's pane, and an instance of such a
// window holds no group of its own, open or closed: its table reads through
// the panes its window covers for as long as it lives, merging each key's
// groups in the order the panes were made (aggregate.Layout.Merge), and its
// views read their own columns of the merge. The merge needs no inverse, so
// one read rule holds for every aggregate.
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
// that publish inside seq; it reads none until AddPane. From then on the
// table's views read the merge of the panes' groups. Views that share the
// table must all be made (Join) before their first pane is added.
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
	if th == nil {
		return
	}
	if n := len(th.panes); n > 0 && th.panes[n-1].t == p.table {
		return
	}
	v.thru.Store(&through{seq: th.seq, panes: append(th.panes, pane{t: p.table, at: v.sh.l.IndexIn(p.sh.l)})})
}

// ReadsThrough reports whether v's table reads through panes: whether it
// holds an instance of a window that is more than one span.
func (v *View) ReadsThrough() bool { return v.thru.Load() != nil }

// settled runs read over the panes the table reads through until one run
// fell between two publications of them. A third try holds the bracket's
// lock, which excludes publication. Callers have found thru set; it stays
// set.
func (t *table) settled(read func(th *through)) {
	for try := 0; ; try++ {
		seq := t.thru.Load().seq
		if try == 2 {
			seq.mu.RLock()
			defer seq.mu.RUnlock()
			read(t.thru.Load())
			return
		}
		n := seq.n.Load()
		if n&1 != 0 {
			continue
		}
		read(t.thru.Load())
		if seq.n.Load() == n {
			return
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
