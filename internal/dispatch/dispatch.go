// Package dispatch implements Section 5.2 of the chronicle paper:
// identifying the persistent views affected by an update to a chronicle,
// early, "so as not to waste computation resources".
//
// The dispatcher keeps, per chronicle, the set of registered maintenance
// targets. Targets whose defining expression starts with an equality
// selection on a constant (the overwhelmingly common "per-account" shape)
// are placed in a predicate index keyed by (column, constant); an append
// then probes the index with each inserted tuple's value — O(rows + hits)
// instead of O(#views). Targets with general predicates fall back to
// per-target predicate evaluation, and periodic targets are additionally
// filtered by their active period before any maintenance work happens.
package dispatch

import (
	"fmt"

	"chronicledb/internal/chronicle"
	"chronicledb/internal/keyenc"
	"chronicledb/internal/pred"
)

// Target is a maintenance target (typically a persistent view, or one
// periodic-view family). A Target belongs to at most one Dispatcher: the
// dedup stamps below are scoped to a single dispatcher's call sequence.
type Target struct {
	// ID names the target (unique per dispatcher).
	ID string
	// Chronicles are the base chronicles the target depends on.
	Chronicles []*chronicle.Chronicle
	// Filter optionally narrows relevance: a Definition-4.1 predicate over
	// the schema of FilterChronicle such that the target is unaffected by
	// any batch none of whose tuples satisfy it. Use pred.True() (or leave
	// FilterChronicle nil) when no such predicate is known.
	Filter          pred.Predicate
	FilterChronicle *chronicle.Chronicle
	// ActiveAt optionally reports whether the target is active at a given
	// chronon (periodic views are maintained only inside their intervals),
	// and the chronon range [lo, hi) around it on which that answer holds, so
	// a call's rows are asked about once per run, not once per row. nil means
	// always active.
	ActiveAt func(chronon int64) (active bool, lo, hi int64)

	// seenSeq dedups within one Affected call; stampSeq dedups across
	// Affected calls of one maintenance batch (see Stamp). Both are plain
	// sequence stamps rather than membership maps: comparing an integer per
	// target replaces a map insert on the append hot path. Serialized by the
	// caller along with Affected itself.
	seenSeq  uint64
	stampSeq uint64
}

// Stamp marks the target as claimed for sequence seq and reports whether it
// had already been claimed for that sequence. Callers that gather affected
// targets across several Affected calls (a multi-chronicle batch touches
// one chronicle per call) use a fresh seq per batch to dedup without a
// membership map. Stamp requires the same serialization as Affected.
func (t *Target) Stamp(seq uint64) (already bool) {
	if t.stampSeq == seq {
		return true
	}
	t.stampSeq = seq
	return false
}

// Dispatcher routes appends to affected targets.
type Dispatcher struct {
	// eqIndex[c][col][constKey] lists targets whose filter is "col = const"
	// on chronicle c.
	eqIndex map[*chronicle.Chronicle]map[int]map[string][]*Target
	// unindexed[c] lists targets on c that the equality index cannot serve.
	unindexed map[*chronicle.Chronicle][]*Target

	ids map[string]bool

	// Probes counts equality-index probes (one per indexed column per row)
	// and Scanned the unindexed targets whose filter was evaluated: the work
	// §5.2 says must not grow with the number of unaffected targets. Affected
	// is serialized by its caller, so they are plain integers.
	Probes  int64
	Scanned int64

	// Affected scratch, reused across calls: the engine serializes appends,
	// so at most one Affected runs at a time. The returned slice is valid
	// only until the next call.
	outScratch []*Target
	keyScratch []byte
	// callSeq stamps targets emitted by the current Affected call (dedup
	// without a map; see Target.seenSeq).
	callSeq uint64
}

// New creates a dispatcher.
func New() *Dispatcher {
	return &Dispatcher{
		eqIndex:   make(map[*chronicle.Chronicle]map[int]map[string][]*Target),
		unindexed: make(map[*chronicle.Chronicle][]*Target),
		ids:       make(map[string]bool),
	}
}

// Register adds a target.
func (d *Dispatcher) Register(t *Target) error {
	if t.ID == "" {
		return fmt.Errorf("dispatch: target needs an ID")
	}
	if d.ids[t.ID] {
		return fmt.Errorf("dispatch: duplicate target %q", t.ID)
	}
	if len(t.Chronicles) == 0 {
		return fmt.Errorf("dispatch: target %q depends on no chronicles", t.ID)
	}
	d.ids[t.ID] = true
	for _, c := range t.Chronicles {
		if c == t.FilterChronicle {
			if col, k, ok := t.Filter.EqualityConstant(); ok {
				cols, exists := d.eqIndex[c]
				if !exists {
					cols = make(map[int]map[string][]*Target)
					d.eqIndex[c] = cols
				}
				byConst, exists := cols[col]
				if !exists {
					byConst = make(map[string][]*Target)
					cols[col] = byConst
				}
				key := string(keyenc.AppendValue(nil, k))
				byConst[key] = append(byConst[key], t)
				continue
			}
		}
		d.unindexed[c] = append(d.unindexed[c], t)
	}
	return nil
}

// Targets returns the number of registered targets.
func (d *Dispatcher) Targets() int { return len(d.ids) }

// Unregister removes the target with the given ID. Removing an unknown ID
// is a no-op that reports false.
func (d *Dispatcher) Unregister(id string) bool {
	if !d.ids[id] {
		return false
	}
	delete(d.ids, id)
	drop := func(list []*Target) []*Target {
		out := list[:0]
		for _, t := range list {
			if t.ID != id {
				out = append(out, t)
			}
		}
		return out
	}
	for c, list := range d.unindexed {
		d.unindexed[c] = drop(list)
	}
	for _, cols := range d.eqIndex {
		for _, byConst := range cols {
			for k, list := range byConst {
				byConst[k] = drop(list)
				if len(byConst[k]) == 0 {
					delete(byConst, k)
				}
			}
		}
	}
	return true
}

// Affected returns the targets that an append call's rows into chronicle c
// may affect, without duplicates. It applies, in order: dependency filtering
// (which chronicle), active-period filtering (is the target active at any
// row's chronon), and selection-predicate filtering. The returned slice is
// the dispatcher's reusable scratch: it is valid only until the next
// Affected call.
func (d *Dispatcher) Affected(c *chronicle.Chronicle, rows []chronicle.Row) []*Target {
	out := d.outScratch[:0]
	d.callSeq++
	emit := func(t *Target) {
		if t.seenSeq == d.callSeq {
			return
		}
		t.seenSeq = d.callSeq
		if t.ActiveAt != nil && !activeAtAny(t, rows) {
			return
		}
		out = append(out, t)
	}

	for col, byConst := range d.eqIndex[c] {
		for _, r := range rows {
			d.Probes++
			if col >= len(r.Vals) {
				continue
			}
			// The probe key is built in reusable scratch; the map[string]
			// lookup does not copy the bytes.
			d.keyScratch = keyenc.AppendValue(d.keyScratch[:0], r.Vals[col])
			for _, t := range byConst[string(d.keyScratch)] {
				emit(t)
			}
		}
	}
	for _, t := range d.unindexed[c] {
		d.Scanned++
		if d.matches(t, c, rows) {
			emit(t)
		}
	}
	d.outScratch = out
	return out
}

// activeAtAny reports whether the target is active at some row's chronon,
// asking once per run of rows inside the range the last answer covers.
func activeAtAny(t *Target, rows []chronicle.Row) bool {
	var lo, hi int64 // the range of the last "inactive" answer; empty at first
	for _, r := range rows {
		if r.Chronon >= lo && r.Chronon < hi {
			continue
		}
		var active bool
		if active, lo, hi = t.ActiveAt(r.Chronon); active {
			return true
		}
	}
	return false
}

// matches reports whether any row satisfies the target's filter.
func (d *Dispatcher) matches(t *Target, c *chronicle.Chronicle, rows []chronicle.Row) bool {
	if t.FilterChronicle != c || t.Filter.IsTrue() {
		return true
	}
	for _, r := range rows {
		if t.Filter.Eval(r.Vals) {
			return true
		}
	}
	return false
}
