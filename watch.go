package chronicledb

import (
	"context"
	"fmt"

	"chronicledb/internal/chronicle"
	"chronicledb/internal/feed"
	"chronicledb/internal/value"
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
// maintenance folded into the view. DB.Watch hands it out in caller-owned
// memory; WatchStream.Next lends it.
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

// WatchStream is one spliced subscription to a persistent view's
// changefeed, read by pulling: Next hands out whatever is ready, and Ready
// signals when more is. It is the one place that subscribes to the feed
// hub: it registers before it reads any snapshot, filters deltas at or
// below the snapshot's LSN and releases every frame it is handed, so its
// readers — DB.Watch and the server's /watch stream — see a gapless,
// duplicate-free LSN sequence. A hub frame holds one view's deltas from a
// whole append call; the stream cuts it into one WatchDelta per LSN. A
// WatchStream is not safe for concurrent use.
type WatchStream struct {
	db     *DB
	view   string
	sub    *feed.Subscription
	resume feed.ResumeKind
	snap   bool   // the snapshot is still owed
	cursor uint64 // the last position handed out; deltas at or below it are dropped
	done   bool
	frames []*feed.Frame
	dec    []chronicle.Row // a frame's decoded rows
	cells  value.Tuple     // their cells
	rows   []WatchRow      // borrowed delta rows, reused across deltas
}

// OpenWatch subscribes to a persistent view's changefeed. With hasFrom,
// fromLSN is a resume cursor: the LSN of the last delta the caller already
// has. If it is inside the in-memory resume window the stream continues
// exactly at fromLSN+1; otherwise — and always without a cursor — Next
// first hands out a WatchSnapshot of the view at some LSN S, then deltas
// from S+1 on. Every delta handed out is durable (published only after its
// WAL commit). The caller must Close the stream.
//
// Requires Options.Feed.
func (db *DB) OpenWatch(viewName string, fromLSN uint64, hasFrom bool) (*WatchStream, error) {
	if db.hub == nil {
		return nil, fmt.Errorf("chronicledb: changefeeds are disabled (set Options.Feed)")
	}
	if _, ok := db.eng.View(viewName); !ok {
		return nil, fmt.Errorf("chronicledb: unknown view %q", viewName)
	}
	// Register first; Next reads the snapshot later. A delta applied after
	// the snapshot is loaded has LSN > the snapshot's LSN and is already
	// being enqueued to the live subscription, so dropping deltas ≤ S
	// makes the splice exact. A tail resume drops deltas ≤ fromLSN the
	// same way: the frame that straddles the cursor arrives whole.
	sub, kind := db.hub.Subscribe(viewName, fromLSN, hasFrom)
	w := &WatchStream{db: db, view: viewName, sub: sub, resume: kind, snap: kind == feed.ResumeSnapshot}
	if hasFrom {
		w.cursor = fromLSN
	}
	return w, nil
}

// Resume names how the stream catches up: "tail" (deltas from the cursor
// on) or "snapshot" (a snapshot first).
func (w *WatchStream) Resume() string { return w.resume.String() }

// LSN is the stream's cursor: the LSN of the last snapshot or delta handed
// out — before any, the resume cursor, or 0 without one.
func (w *WatchStream) LSN() uint64 { return w.cursor }

// Ready signals that deltas, or the end, may be waiting for Next.
func (w *WatchStream) Ready() <-chan struct{} { return w.sub.C() }

// Next hands fn, in order, the snapshot if it is owed, every delta ready
// now, and a terminal WatchEnd if the subscription ended (shed as slow, or
// the view dropped). A WatchDelta's rows are borrowed: they are valid only
// until fn returns. Next reports false once the stream is over — fn
// returned false, or the end was handed out — and an error if the snapshot
// could not be read.
func (w *WatchStream) Next(fn func(WatchEvent) bool) (bool, error) {
	if w.done {
		return false, nil
	}
	if w.snap {
		w.snap = false
		var rows []Row
		lsn, err := w.db.eng.ViewScan(w.view, view.Window{}, func(t Row) bool {
			rows = append(rows, t)
			return true
		})
		if err != nil {
			w.done = true
			return false, err
		}
		w.cursor = lsn
		if !fn(WatchEvent{Kind: WatchSnapshot, LSN: lsn, Rows: rows}) {
			w.done = true
			return false, nil
		}
	}
	w.frames = w.sub.Drain(w.frames[:0])
	for i, f := range w.frames {
		if !w.done && f.LSN > w.cursor {
			w.deliver(f, fn)
		}
		f.Release()
		w.frames[i] = nil
	}
	if w.done {
		return false, nil
	}
	if closed, reason := w.sub.Closed(); closed {
		w.done = true
		fn(WatchEvent{Kind: WatchEnd, LSN: w.cursor, Reason: reason.String()})
		return false, nil
	}
	return true, nil
}

// deliver hands fn one WatchDelta per LSN of f above the cursor, until fn
// returns false.
func (w *WatchStream) deliver(f *feed.Frame, fn func(WatchEvent) bool) {
	w.dec, w.cells = f.Decode(w.dec[:0], w.cells)
	for rows := w.dec; len(rows) > 0 && !w.done; {
		lsn, n := rows[0].LSN, 1
		for n < len(rows) && rows[n].LSN == lsn {
			n++
		}
		if lsn > w.cursor {
			w.rows = w.rows[:0]
			for _, r := range rows[:n] {
				w.rows = append(w.rows, WatchRow{SN: r.SN, Chronon: r.Chronon, Vals: r.Vals})
			}
			w.cursor = lsn
			w.done = !fn(WatchEvent{Kind: WatchDelta, LSN: lsn, Deltas: w.rows})
		}
		rows = rows[n:]
	}
}

// Close unregisters the subscription. It is safe to call more than once.
func (w *WatchStream) Close() { w.sub.Close() }

// Watch subscribes to a persistent view's changefeed and streams events to
// fn until fn returns false, ctx is done, or the subscription ends (shed
// as slow, or the view dropped — fn then receives a terminal WatchEnd).
// The resume cursor and the splice are OpenWatch's; every row fn receives
// is caller-owned.
//
// Requires Options.Feed.
func (db *DB) Watch(ctx context.Context, viewName string, fromLSN uint64, hasFrom bool, fn func(WatchEvent) bool) error {
	w, err := db.OpenWatch(viewName, fromLSN, hasFrom)
	if err != nil {
		return err
	}
	defer w.Close()
	own := func(ev WatchEvent) bool {
		if ev.Kind == WatchDelta {
			ev.Deltas = append([]WatchRow(nil), ev.Deltas...)
			for i := range ev.Deltas {
				ev.Deltas[i].Vals = ev.Deltas[i].Vals.Clone()
			}
		}
		return fn(ev)
	}
	for {
		if more, err := w.Next(own); !more {
			return err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-w.Ready():
		}
	}
}
