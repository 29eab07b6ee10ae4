package chronicledb

import (
	"context"
	"fmt"

	"chronicledb/internal/feed"
	"chronicledb/internal/view"
)

// WatchEventKind tags a WatchEvent.
type WatchEventKind uint8

// The watch event kinds.
const (
	// WatchSnapshot carries the view's full contents as of Event.LSN. It is
	// delivered once, first, when the subscription could not resume from
	// the in-memory tail (no cursor, or a cursor older than the resume
	// horizon); deltas then follow from LSN+1 with no gap or duplicate.
	WatchSnapshot WatchEventKind = iota
	// WatchDelta carries the expression delta rows of one committed
	// mutation, stamped with its LSN.
	WatchDelta
	// WatchEnd is the terminal event: the subscription was shed as too
	// slow, the view was dropped, or the watch was closed. Event.LSN is the
	// last position delivered — the cursor to resume from.
	WatchEnd
)

// WatchRow is one delta row: the chronicle-algebra expression output that
// maintenance folded into the view, in caller-owned memory.
type WatchRow struct {
	SN      int64
	Chronon int64
	Vals    Row
}

// WatchEvent is one changefeed delivery.
type WatchEvent struct {
	Kind   WatchEventKind
	LSN    uint64
	Rows   []Row      // WatchSnapshot: the view rows
	Deltas []WatchRow // WatchDelta: the delta rows
	Reason string     // WatchEnd: "slow", "dropped", or "closed"
}

// Watch subscribes to a persistent view's changefeed and streams events to
// fn until fn returns false, ctx is done, or the subscription ends (shed
// as slow, or the view dropped — fn then receives a terminal WatchEnd).
//
// With hasFrom, fromLSN is a resume cursor: the LSN of the last delta the
// caller already has. If it is inside the in-memory resume window the
// stream continues exactly at fromLSN+1; otherwise — and always without a
// cursor — fn first receives a WatchSnapshot of the view at some LSN S,
// then deltas from S+1 on. Either way the delivered LSN sequence is
// gapless and duplicate-free, and every delta delivered is durable
// (published only after its WAL commit).
//
// Requires Options.Feed.
func (db *DB) Watch(ctx context.Context, viewName string, fromLSN uint64, hasFrom bool, fn func(WatchEvent) bool) error {
	if db.hub == nil {
		return fmt.Errorf("chronicledb: changefeeds are disabled (set Options.Feed)")
	}
	if _, ok := db.eng.View(viewName); !ok {
		return fmt.Errorf("chronicledb: unknown view %q", viewName)
	}
	// Register first, then read the snapshot: a delta applied after the
	// snapshot is loaded has LSN > the snapshot's LSN and is already being
	// enqueued to the live subscription, so filtering frames ≤ S below
	// makes the splice exact.
	sub, kind := db.hub.Subscribe(viewName, fromLSN, hasFrom)
	defer sub.Close()

	cursor := fromLSN
	if !hasFrom {
		cursor = 0
	}
	var filter uint64
	if kind == feed.ResumeSnapshot {
		var rows []Row
		lsn, err := db.eng.ViewScan(viewName, view.Window{}, func(t Row) bool {
			rows = append(rows, t)
			return true
		})
		if err != nil {
			return err
		}
		if !fn(WatchEvent{Kind: WatchSnapshot, LSN: lsn, Rows: rows}) {
			return nil
		}
		cursor, filter = lsn, lsn
	}

	var frames []*feed.Frame
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-sub.C():
		}
		frames = sub.Drain(frames[:0])
		stop := false
		for i, f := range frames {
			if stop || f.LSN <= filter {
				f.Release()
				continue
			}
			ev := WatchEvent{Kind: WatchDelta, LSN: f.LSN, Deltas: make([]WatchRow, len(f.Rows))}
			for j, r := range f.Rows {
				ev.Deltas[j] = WatchRow{SN: r.SN, Chronon: r.Chronon, Vals: r.Vals.Clone()}
			}
			f.Release()
			frames[i] = nil
			cursor = ev.LSN
			if !fn(ev) {
				stop = true
			}
		}
		if stop {
			return nil
		}
		if closed, reason := sub.Closed(); closed {
			fn(WatchEvent{Kind: WatchEnd, LSN: cursor, Reason: reason.String()})
			return nil
		}
	}
}
