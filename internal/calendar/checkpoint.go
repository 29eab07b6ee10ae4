package calendar

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"slices"

	"chronicledb/internal/view"
)

// Periodic-view checkpoints: the family's views of its cohort's live panes,
// each live instance's interval and, unless it reads through panes, its
// state, plus the counters that drive expiration. Without this, truncating
// the WAL at a checkpoint would silently reset every open billing period.
//
//	magic "CDBP", high-water chronon, created, expired (8 bytes LE each)
//	pane count (uvarint), then per cohort pane, oldest first:
//	  span start, span end (8 bytes LE each), image length (uvarint, 0 when
//	  the family has no view of the pane), the view's image
//	instance count (uvarint), then per live instance in interval order:
//	  interval start, end (8 bytes LE each), a byte that is 1 when it reads
//	  through the panes inside it, open window or closed, and otherwise 0
//	  and its image length and image
//
// A view's image holds the family's own columns (view.Checkpoint), so a
// family's image is the same bytes whether or not its panes and instances
// share tables with its cohort's. A restore gives every view a table of its
// own; the cohort shares tables again from the next interval or pane born.

const pvMagic = "CDBP"

// Checkpoint serializes the family's panes and live instances.
func (p *PeriodicView) Checkpoint() []byte {
	var b []byte
	b = append(b, pvMagic...)
	b = binary.LittleEndian.AppendUint64(b, uint64(p.co.maxSeen))
	b = binary.LittleEndian.AppendUint64(b, uint64(p.created))
	b = binary.LittleEndian.AppendUint64(b, uint64(p.expired))
	var panes []*pane
	for _, ps := range p.co.panes {
		panes = append(panes, ps...)
	}
	slices.SortFunc(panes, func(a, b *pane) int { return cmp.Compare(a.num, b.num) })
	b = binary.AppendUvarint(b, uint64(len(panes)))
	for _, pn := range panes {
		b = appendInterval(b, pn.span)
		var snap []byte
		if v, ok := p.panes[pn.num]; ok {
			snap = v.Checkpoint()
		}
		b = binary.AppendUvarint(b, uint64(len(snap)))
		b = append(b, snap...)
	}
	infos := p.Instances()
	b = binary.AppendUvarint(b, uint64(len(infos)))
	for _, inst := range infos {
		b = appendInterval(b, inst.Interval)
		if inst.View.ReadsThrough() {
			b = append(b, 1)
			continue
		}
		snap := inst.View.Checkpoint()
		b = append(b, 0)
		b = binary.AppendUvarint(b, uint64(len(snap)))
		b = append(b, snap...)
	}
	return b
}

func appendInterval(b []byte, iv Interval) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(iv.Start))
	return binary.LittleEndian.AppendUint64(b, uint64(iv.End))
}

// image reads a family image: a cursor and the first error.
type image struct {
	name string
	data []byte
	off  int
	err  error
}

func (r *image) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("calendar: %s: bad periodic checkpoint: %s", r.name, what)
	}
}

func (r *image) u64(what string) int64 {
	if r.err != nil || len(r.data)-r.off < 8 {
		r.fail(what)
		return 0
	}
	r.off += 8
	return int64(binary.LittleEndian.Uint64(r.data[r.off-8:]))
}

func (r *image) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	n, used := binary.Uvarint(r.data[r.off:])
	if used <= 0 {
		r.fail(what)
		return 0
	}
	r.off += used
	return n
}

func (r *image) bytes(what string) []byte {
	n := r.uvarint(what)
	if r.err != nil || uint64(len(r.data)-r.off) < n {
		r.fail(what)
		return nil
	}
	r.off += int(n)
	return r.data[r.off-int(n) : r.off]
}

func (r *image) interval(what string) Interval {
	return Interval{Start: r.u64(what), End: r.u64(what)}
}

// restored builds a view of the family named suffix from its image; an
// empty image is an empty view.
func (p *PeriodicView) restored(suffix string, snap []byte) (*view.View, error) {
	v, err := view.NewIn(p.named(suffix), p.dir)
	if err == nil && len(snap) > 0 {
		err = v.RestoreCheckpoint(snap)
	}
	if err != nil {
		return nil, fmt.Errorf("calendar: %s%s: %w", p.name, suffix, err)
	}
	return v, nil
}

// RestoreCheckpoint replaces the family's panes and instances with a
// checkpoint produced by a family with the same definition, each view with a
// table of its own, and its cohort's panes and the intervals that read
// through them with the image's: the cohort's members restore images of one
// cut.
func (p *PeriodicView) RestoreCheckpoint(data []byte) error {
	if len(data) < 4 || string(data[:4]) != pvMagic {
		return fmt.Errorf("calendar: %s: bad periodic checkpoint", p.name)
	}
	r := &image{name: p.name, data: data, off: 4}
	maxSeen, created, expired := r.u64("high-water chronon"), r.u64("created"), r.u64("expired")
	var spans []Interval
	panes := make(map[uint64]*view.View)
	for n := r.uvarint("pane count"); n > 0 && r.err == nil; n-- {
		span, snap := r.interval("pane span"), r.bytes("pane image")
		spans = append(spans, span)
		if len(snap) == 0 || r.err != nil {
			continue
		}
		v, err := p.restored(paneName(span).String(), snap)
		if err != nil {
			return err
		}
		panes[uint64(len(spans))] = v
	}
	instances := make(map[Interval]*view.View)
	var thru []Interval
	for n := r.uvarint("instance count"); n > 0 && r.err == nil; n-- {
		iv := r.interval("instance interval")
		if r.off >= len(data) {
			r.fail("instance kind")
			break
		}
		r.off++
		var snap []byte
		if data[r.off-1] == 1 {
			thru = append(thru, iv)
		} else {
			snap = r.bytes("instance image")
		}
		if r.err != nil {
			break
		}
		v, err := p.restored(iv.String(), snap)
		if err != nil {
			return err
		}
		instances[iv] = v
	}
	if r.err == nil && r.off != len(data) {
		return fmt.Errorf("calendar: %s: %d trailing checkpoint bytes", p.name, len(data)-r.off)
	}
	if r.err != nil {
		return r.err
	}

	for _, v := range p.instances {
		v.Leave()
	}
	for _, v := range p.panes {
		v.Leave()
	}
	c := p.co
	c.panes, c.made, c.thru = make(map[Interval][]*pane), uint64(len(spans)), make(map[Interval]uint64)
	c.nextExpiry = math.MinInt64 // the next fold finds the instances' first expiry
	c.gen++
	for i, span := range spans {
		c.panes[span] = append(c.panes[span], &pane{num: uint64(i + 1), span: span})
	}
	p.panes, p.instances = panes, instances
	p.born = slices.Collect(maps.Keys(instances))
	for _, iv := range thru {
		p.readThrough(iv, c.read(iv))
	}
	p.publishLive()
	// The cohort's members restore images of one high-water chronon, or an
	// earlier image before a later one of a chain.
	c.maxSeen = max(c.maxSeen, maxSeen)
	p.created = created
	p.expired = expired
	return nil
}
