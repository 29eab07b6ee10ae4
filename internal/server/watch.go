// The /watch endpoint: changefeed delivery over HTTP. The primary shape is
// Server-Sent Events — one long-lived GET whose body is a stream of
// `event:`/`data:` records — because SSE survives proxies, needs no
// special client library, and reconnects carry a cursor in plain query
// parameters.
//
// Wire protocol (every data payload is JSON):
//
//	event: info      {"view","columns":[...],"from_lsn",resume:"tail|snapshot"}
//	event: snapshot  {"view","lsn","rows":[[...],...]}           (snapshot resume only)
//	event: delta     {"view","lsn","rows":[{"sn","chronon","vals":[...]},...]}
//	event: hb        {"lsn"}                                     (idle keep-alive)
//	event: bye       {"reason":"drain|slow|dropped|closed","lsn"} (terminal)
//
// The LSN sequence a subscriber observes across snapshot and delta events
// is gapless and duplicate-free, including across reconnects that pass the
// last delivered LSN back as from_lsn. A bye event's lsn is the cursor to
// resume from.
package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	chronicledb "chronicledb"
)

// watchInfo opens every stream: the view's columns, the resolved starting
// cursor, and which resume path was taken.
type watchInfo struct {
	View    string   `json:"view"`
	Columns []string `json:"columns"`
	FromLSN uint64   `json:"from_lsn"`
	Resume  string   `json:"resume"`
}

// watchRows is a snapshot payload: the view's full contents as of LSN.
type watchRows struct {
	View string  `json:"view"`
	LSN  uint64  `json:"lsn"`
	Rows [][]any `json:"rows"`
}

// watchDelta is one committed mutation's expression delta.
type watchDelta struct {
	View string          `json:"view"`
	LSN  uint64          `json:"lsn"`
	Rows []watchDeltaRow `json:"rows"`
}

type watchDeltaRow struct {
	SN      int64 `json:"sn"`
	Chronon int64 `json:"chronon"`
	Vals    []any `json:"vals"`
}

// watchHB is the idle keep-alive; lsn is the subscriber's current cursor.
type watchHB struct {
	LSN uint64 `json:"lsn"`
}

// watchBye terminates a stream; lsn is the cursor to resume from.
type watchBye struct {
	Reason string `json:"reason"`
	LSN    uint64 `json:"lsn"`
}

// handleWatch answers GET /watch?view=NAME[&from_lsn=N].
// Subscribers are admitted under their own MaxSubscribers gate — a watcher
// flood sheds watchers with 429, never append capacity, and vice versa.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	name := q.Get("view")
	if name == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing view parameter"))
		return
	}
	v, ok := s.db.View(name)
	if !ok {
		writeError(w, http.StatusUnprocessableEntity, fmt.Errorf("unknown view %q", name))
		return
	}
	if !s.staleGate(w) {
		return // follower past its staleness bound; subscribe elsewhere
	}
	var fromLSN uint64
	hasFrom := false
	if raw := q.Get("from_lsn"); raw != "" {
		parsed, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("from_lsn must be a non-negative integer"))
			return
		}
		fromLSN, hasFrom = parsed, true
	}
	select {
	case s.watchers <- struct{}{}:
	default:
		s.watchShed.Add(1)
		s.writeOverloaded(w)
		return
	}
	defer func() { <-s.watchers }()

	// The DB splices: it registers before it reads any snapshot. It also
	// refuses the watch when changefeeds are off.
	ws, err := s.db.OpenWatch(name, fromLSN, hasFrom)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	defer ws.Close()
	s.watchStream(w, r, ws, name, v.Schema().Names())
}

// sseWrite writes one SSE event to w, unflushed.
func sseWrite(w http.ResponseWriter, event string, body any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
	return err
}

// sseSend writes one event on its own: under a fresh write deadline, then
// flushed to the wire.
func (s *Server) sseSend(w http.ResponseWriter, rc *http.ResponseController, event string, body any) error {
	rc.SetWriteDeadline(time.Now().Add(s.writeWindow))
	if err := sseWrite(w, event, body); err != nil {
		return err
	}
	return rc.Flush()
}

// watchStream serves the SSE path: info, optional snapshot, then live
// deltas with heartbeats, ending in a terminal bye.
//
// Every event one ws.Next hands out — a commit's frames arrive together, a
// call's frame cut into one delta event per LSN — is written under one write
// deadline and flushed once, so a k-row call costs a stream one flush, not k. The deadline is what bounds a
// stalled client: the stream has no overall timeout, but no batch of events
// may take longer than the server's write window to drain.
func (s *Server) watchStream(w http.ResponseWriter, r *http.Request, ws *chronicledb.WatchStream, name string, cols []string) {
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)

	if err := s.sseSend(w, rc, "info", watchInfo{View: name, Columns: cols, FromLSN: ws.LSN(), Resume: ws.Resume()}); err != nil {
		return
	}
	var (
		werr    error // the batch's first write error; the rest of it is skipped
		written bool  // the batch wrote an event, which a flush owes the wire
	)
	write := func(event string, body any) bool {
		if werr == nil {
			werr, written = sseWrite(w, event, body), true
		}
		return werr == nil
	}
	send := func(ev chronicledb.WatchEvent) bool {
		switch ev.Kind {
		case chronicledb.WatchSnapshot:
			snap := watchRows{View: name, LSN: ev.LSN}
			for _, t := range ev.Rows {
				snap.Rows = append(snap.Rows, jsonValues(t))
			}
			return write("snapshot", snap)
		case chronicledb.WatchDelta:
			d := watchDelta{View: name, LSN: ev.LSN, Rows: make([]watchDeltaRow, len(ev.Deltas))}
			for i, row := range ev.Deltas {
				d.Rows[i] = watchDeltaRow{SN: row.SN, Chronon: row.Chronon, Vals: jsonValues(row.Vals)}
			}
			return write("delta", d)
		}
		write("bye", watchBye{Reason: ev.Reason, LSN: ev.LSN})
		return false
	}

	hb := time.NewTicker(s.heartbeat)
	defer hb.Stop()
	for {
		rc.SetWriteDeadline(time.Now().Add(s.writeWindow))
		more, err := ws.Next(send)
		if err != nil {
			write("bye", watchBye{Reason: "error: " + err.Error(), LSN: ws.LSN()})
		}
		if werr != nil || written && rc.Flush() != nil || !more {
			return
		}
		written = false
		select {
		case <-r.Context().Done():
			return
		case <-s.drainCh:
			s.sseSend(w, rc, "bye", watchBye{Reason: "drain", LSN: ws.LSN()})
			return
		case <-hb.C:
			if err := s.sseSend(w, rc, "hb", watchHB{LSN: ws.LSN()}); err != nil {
				return
			}
		case <-ws.Ready():
		}
	}
}
