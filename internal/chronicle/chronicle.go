// Package chronicle implements the chronicle of the chronicle data model:
// an append-only, unboundedly growing sequence of transaction records.
//
// A chronicle is "similar to a relation, except that a chronicle is a
// sequence, rather than an unordered set, of tuples" (Section 2.1). The only
// permissible update is the insertion of tuples whose sequence number
// exceeds every sequence number already present — not just in the chronicle
// itself but in its whole chronicle group (Section 4). Because "it is beyond
// the capacity of any database system to store and provide access to this
// sequence for an indefinite amount of time", each chronicle retains only a
// configurable suffix window; persistent-view maintenance never reads it.
package chronicle

import (
	"fmt"
	"sync"

	"chronicledb/internal/value"
)

// Row is one chronicle record. SN is the sequence number, Chronon the
// temporal instant associated with it, and LSN the global logical sequence
// number of the database at append time — the hook for the implicit
// temporal join with relation versions (Section 2.3).
type Row struct {
	SN      int64
	Chronon int64
	LSN     uint64
	Vals    value.Tuple
}

// Retention controls how much of a chronicle's suffix is stored.
type Retention int64

const (
	// RetainAll keeps the entire chronicle (used by baselines and tests;
	// contrary to the model's spirit, but needed to *check* the model).
	RetainAll Retention = -1
	// RetainNone stores no rows at all: the pure chronicle model, where
	// summary queries must be answered from persistent views alone.
	RetainNone Retention = 0
)

// Chronicle is a single append-only sequence belonging to a Group.
//
// Appends are serialized by the engine (Section 2.3's update semantics are
// inherently serial: proactive relation updates are exactly those ordered
// before later appends). mu additionally guards the retained-row window so
// read methods (Len, Scan, RowsCopy, ...) can run concurrently with
// appends without holding the engine-wide lock.
//
// The methods that hand out stored rows — Scan, Rows and RowsCopy — count
// them (RowsRead). Persistent-view maintenance never calls
// them; the count is how a test shows that it reads no stored row. They hold
// mu exclusively to count: none of them is on the append or view-read path.
type Chronicle struct {
	name       string
	schema     *value.Schema
	group      *Group
	retain     Retention
	retainSpan int64 // chronon span to keep; 0 = no time-based trimming

	// mu guards rows, dropped, lastSN and read: append grows rows in place and
	// trim replaces the backing array, so readers must not alias them
	// unsynchronized.
	mu      sync.RWMutex
	rows    []Row
	dropped int64 // rows discarded by the retention window
	lastSN  int64 // largest SN appended to this chronicle; -1 if none
	read    int64 // stored rows handed out (see RowsRead)
}

// Name returns the chronicle's name.
func (c *Chronicle) Name() string { return c.name }

// Schema returns the chronicle's attribute schema (excluding SN and
// chronon, which every chronicle carries implicitly).
func (c *Chronicle) Schema() *value.Schema { return c.schema }

// Group returns the chronicle group this chronicle belongs to.
func (c *Chronicle) Group() *Group { return c.group }

// Retention returns the count-based retention policy.
func (c *Chronicle) Retention() Retention { return c.retain }

// RetainSpan returns the time-based retention span in chronons (0 = none).
func (c *Chronicle) RetainSpan() int64 { return c.retainSpan }

// SetRetainSpan keeps only rows whose chronon is within span of the newest
// row — "the transaction records are stored in a database for some latest
// time window". A span of 0 disables time-based trimming. Both policies may
// be active; the stricter one wins.
func (c *Chronicle) SetRetainSpan(span int64) error {
	if span < 0 {
		return fmt.Errorf("chronicle %s: negative retention span %d", c.name, span)
	}
	c.retainSpan = span
	return nil
}

// Append inserts a batch of tuples sharing one new sequence number. The
// sequence number must exceed every sequence number in the chronicle group;
// the paper allows several tuples to share one SN within a single insert.
// chronon is the temporal instant of the SN and lsn the database LSN.
//
// Append returns the stored rows (also when retention immediately discards
// them) so callers can feed them to view maintenance.
func (c *Chronicle) Append(sn, chronon int64, lsn uint64, tuples []value.Tuple) ([]Row, error) {
	return c.AppendInto(sn, chronon, lsn, tuples, nil)
}

// AppendInto is Append adding the stored rows to the end of buf, so a caller
// driving the hot path can reuse one row buffer across appends and gather the
// rows of several appends in it. The chronicle copies what retention keeps,
// so buf never aliases retained storage; the returned rows (buf plus this
// append's) are valid until buf's next reuse.
func (c *Chronicle) AppendInto(sn, chronon int64, lsn uint64, tuples []value.Tuple, buf []Row) ([]Row, error) {
	if len(tuples) == 0 {
		return nil, fmt.Errorf("chronicle %s: empty append", c.name)
	}
	if sn <= c.group.lastSN {
		return nil, fmt.Errorf("chronicle %s: sequence number %d not greater than group maximum %d",
			c.name, sn, c.group.lastSN)
	}
	for i, t := range tuples {
		if err := c.schema.Validate(t); err != nil {
			return nil, fmt.Errorf("chronicle %s: tuple %d: %w", c.name, i, err)
		}
	}
	rows := buf
	for _, t := range tuples {
		rows = append(rows, Row{SN: sn, Chronon: chronon, LSN: lsn, Vals: t})
	}
	c.group.lastSN = sn
	c.mu.Lock()
	c.lastSN = sn
	c.store(rows[len(buf):])
	c.mu.Unlock()
	return rows, nil
}

// store applies the retention policies while appending. The caller holds
// c.mu exclusively.
func (c *Chronicle) store(rows []Row) {
	switch {
	case c.retain == RetainNone:
		c.dropped += int64(len(rows))
		return
	case c.retain == RetainAll:
		c.rows = append(c.rows, rows...)
	default:
		c.rows = append(c.rows, rows...)
		if excess := len(c.rows) - int(c.retain); excess > 0 {
			c.trim(excess)
		}
	}
	if c.retainSpan > 0 && len(c.rows) > 0 {
		// Rows are chronon-ordered (chronons ride on monotone SNs); trim the
		// prefix older than the newest chronon minus the span.
		horizon := c.rows[len(c.rows)-1].Chronon - c.retainSpan
		cut := 0
		for cut < len(c.rows) && c.rows[cut].Chronon <= horizon {
			cut++
		}
		if cut > 0 {
			c.trim(cut)
		}
	}
}

// trim discards the oldest n retained rows, copying the suffix into a fresh
// slice so the discarded prefix becomes collectable instead of pinning the
// old backing array.
func (c *Chronicle) trim(n int) {
	c.dropped += int64(n)
	kept := make([]Row, len(c.rows)-n)
	copy(kept, c.rows[n:])
	c.rows = kept
}

// Len returns the number of retained rows.
func (c *Chronicle) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.rows)
}

// Total returns the number of rows ever appended, retained or not.
func (c *Chronicle) Total() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.dropped + int64(len(c.rows))
}

// Dropped returns the number of rows discarded by the retention window.
func (c *Chronicle) Dropped() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.dropped
}

// LastSN returns the largest sequence number appended to this chronicle,
// or -1 if the chronicle is empty.
func (c *Chronicle) LastSN() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.lastSN
}

// RowsRead returns the number of stored rows Scan, Rows and RowsCopy have
// handed out.
func (c *Chronicle) RowsRead() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.read
}

// Scan visits every retained row in sequence order until fn returns false.
// fn runs under the chronicle lock and must not call the chronicle.
func (c *Chronicle) Scan(fn func(Row) bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range c.rows {
		c.read++
		if !fn(r) {
			return
		}
	}
}

// Rows returns the retained rows. The result aliases internal storage and
// must not be modified; it exists for the reference evaluator and checkpoints,
// which run with appends quiesced. Concurrent readers use RowsCopy.
func (c *Chronicle) Rows() []Row {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.read += int64(len(c.rows))
	return c.rows
}

// RowsCopy returns a copy of the retained rows taken under the chronicle
// lock: safe to hold while appends continue, and a consistent image of the
// retention window at one instant.
func (c *Chronicle) RowsCopy() []Row {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.rows) == 0 {
		return nil
	}
	c.read += int64(len(c.rows))
	return append([]Row(nil), c.rows...)
}

// Restore loads retained rows and the dropped count during checkpoint
// recovery. Rows must be in ascending sequence order; the group high-water
// mark advances to cover them.
func (c *Chronicle) Restore(rows []Row, dropped int64) error {
	last := int64(-1)
	for i, r := range rows {
		if r.SN < last {
			return fmt.Errorf("chronicle %s: restore row %d out of order", c.name, i)
		}
		if err := c.schema.Validate(r.Vals); err != nil {
			return fmt.Errorf("chronicle %s: restore row %d: %w", c.name, i, err)
		}
		last = r.SN
	}
	c.mu.Lock()
	c.rows = append([]Row(nil), rows...)
	c.dropped = dropped
	if last >= 0 {
		c.lastSN = last
	}
	c.mu.Unlock()
	if last >= 0 {
		c.group.RestoreLastSN(last)
	}
	return nil
}

// Group is a collection of chronicles whose sequence numbers are drawn from
// the same domain, "along with the requirement that an insert into any
// chronicle in a chronicle group must have a sequence number greater than
// the sequence number of any tuple in the chronicle group" (Section 4).
// Union, difference, and sequence-number joins are permitted only between
// chronicles of the same group.
type Group struct {
	name    string
	lastSN  int64
	members []*Chronicle
}

// NewGroup creates an empty chronicle group.
func NewGroup(name string) *Group {
	return &Group{name: name, lastSN: -1}
}

// Name returns the group's name.
func (g *Group) Name() string { return g.name }

// LastSN returns the largest sequence number in the group, or -1 if empty.
func (g *Group) LastSN() int64 { return g.lastSN }

// NextSN returns a sequence number valid for the next append.
func (g *Group) NextSN() int64 { return g.lastSN + 1 }

// Members returns the group's chronicles in creation order.
func (g *Group) Members() []*Chronicle { return g.members }

// NewChronicle creates a chronicle in this group.
func (g *Group) NewChronicle(name string, schema *value.Schema, retain Retention) (*Chronicle, error) {
	if schema == nil || schema.Len() == 0 {
		return nil, fmt.Errorf("chronicle %s: schema must have at least one column", name)
	}
	if retain < RetainAll {
		return nil, fmt.Errorf("chronicle %s: invalid retention %d", name, retain)
	}
	for _, m := range g.members {
		if m.name == name {
			return nil, fmt.Errorf("chronicle %s: already exists in group %s", name, g.name)
		}
	}
	c := &Chronicle{name: name, schema: schema, group: g, retain: retain, lastSN: -1}
	g.members = append(g.members, c)
	return c, nil
}

// BatchPart is one chronicle's share of a simultaneous group append.
type BatchPart struct {
	C      *Chronicle
	Tuples []value.Tuple
}

// AppendBatchInto inserts tuples into several chronicles of the group as one
// simultaneous insert sharing a single new sequence number — the paper's
// "multiple tuples with the same sequence number can be inserted
// simultaneously". All parts must belong to this group. On any validation
// error nothing is stored. It fills a caller-supplied delta map, so the
// engine can reuse one map across batches: the stored rows are added to
// buf, which is returned, and each part's share of it is placed in the map
// directly (not copied again) — the chronicle's retention copy is the only
// copy between validation and view maintenance.
func (g *Group) AppendBatchInto(sn, chronon int64, lsn uint64, parts []BatchPart, buf []Row, out map[*Chronicle][]Row) ([]Row, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("group %s: empty batch", g.name)
	}
	if sn <= g.lastSN {
		return nil, fmt.Errorf("group %s: sequence number %d not greater than group maximum %d",
			g.name, sn, g.lastSN)
	}
	for _, p := range parts {
		if p.C.group != g {
			return nil, fmt.Errorf("group %s: chronicle %s belongs to group %s", g.name, p.C.name, p.C.group.name)
		}
		if len(p.Tuples) == 0 {
			return nil, fmt.Errorf("group %s: empty part for chronicle %s", g.name, p.C.name)
		}
		for i, t := range p.Tuples {
			if err := p.C.schema.Validate(t); err != nil {
				return nil, fmt.Errorf("chronicle %s: tuple %d: %w", p.C.name, i, err)
			}
		}
	}
	for _, p := range parts {
		start := len(buf)
		for _, t := range p.Tuples {
			buf = append(buf, Row{SN: sn, Chronon: chronon, LSN: lsn, Vals: t})
		}
		rows := buf[start:len(buf):len(buf)]
		p.C.mu.Lock()
		p.C.store(rows)
		p.C.lastSN = sn
		p.C.mu.Unlock()
		if existing, ok := out[p.C]; ok {
			out[p.C] = append(existing, rows...)
		} else {
			out[p.C] = rows
		}
	}
	g.lastSN = sn
	return buf, nil
}

// RestoreLastSN force-sets the group's high-water mark. It exists solely
// for WAL recovery, which replays appends in their original order.
func (g *Group) RestoreLastSN(sn int64) {
	if sn > g.lastSN {
		g.lastSN = sn
	}
}
