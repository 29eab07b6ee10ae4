// Replication endpoints: the primary side of log shipping.
//
//	GET  /repl/stream?from=L&follower=ID&ddl=N — long-lived frame stream:
//	     the catalog tail past the follower's N applied statements, then
//	     committed WAL records from LSN L+1 on (disk backlog out of the
//	     segment set, then live fan-out), with heartbeats carrying the
//	     primary's durable cursor. 410 Gone when L was compacted below the
//	     checkpoint chain — the follower resyncs from /repl/snapshot.
//	GET  /repl/snapshot — the checkpoint chain's manifest, the catalog
//	     prefix it was cut against, and its files byte for byte, for
//	     bootstrapping a follower the log was compacted past.
//	POST /repl/ack — follower's applied-LSN acknowledgement (sync ack mode).
//	POST /promote — seal the replica's WAL at its last applied LSN and start
//	     accepting writes: explicit failover.
package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"chronicledb/internal/repl"
)

// replAck is the body of POST /repl/ack.
type replAck struct {
	Follower string `json:"follower"`
	LSN      uint64 `json:"lsn"`
}

// PromoteResponse is the body of a successful POST /promote.
type PromoteResponse struct {
	Role string `json:"role"`
	LSN  uint64 `json:"lsn"`
}

func (s *Server) handleReplStream(w http.ResponseWriter, r *http.Request) {
	src := s.db.ReplSource()
	if src == nil {
		writeError(w, http.StatusUnprocessableEntity, fmt.Errorf("replication requires the durable segmented layout"))
		return
	}
	q := r.URL.Query()
	from, err := strconv.ParseUint(q.Get("from"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad from parameter"))
		return
	}
	follower := q.Get("follower")
	if follower == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing follower parameter"))
		return
	}
	ddlHave, err := strconv.ParseUint(q.Get("ddl"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad ddl parameter"))
		return
	}
	// The Gone check runs before any byte of a 200 is committed; a segment
	// compacted away *during* the stream surfaces as a backlog gap error
	// that closes the connection, and the follower's re-dial lands here.
	if s.db.ReplGone(from) {
		writeErrorCode(w, http.StatusGone, "gone",
			fmt.Errorf("lsn %d compacted below the checkpoint chain; resync from /repl/snapshot", from))
		return
	}
	tail, err := s.db.ReplCatalogTail(ddlHave)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}

	src.Attach(follower)
	defer src.Detach(follower)

	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	var buf []byte
	// Every write gets its own deadline: the stream as a whole is unbounded
	// (it bypasses the request timeout, like /watch), so a stalled follower
	// is detected per frame, not never.
	send := func(frame []byte) error {
		rc.SetWriteDeadline(time.Now().Add(s.writeWindow))
		if _, err := w.Write(frame); err != nil {
			return err
		}
		return rc.Flush()
	}

	// Catalog tail first: the follower applies statement i only when its
	// own count is i, so resending an overlap after reconnect is harmless.
	for i, stmt := range tail {
		buf = repl.AppendDDLFrame(buf[:0], ddlHave+uint64(i), 0, stmt)
		if send(buf) != nil {
			return
		}
	}

	ctx := r.Context()
	hb := time.NewTicker(s.replHeartbeat)
	defer hb.Stop()
	lastSent := from
	for {
		// Subscribe, then fill (lastSent, StartLSN] from the segment set:
		// every record released after the subscribe arrives on the channel
		// with LSN > StartLSN, so the two sources tile exactly.
		sub := src.Subscribe(repl.FollowerBuffer)
		err := s.db.ReplBacklog(lastSent, sub.StartLSN, func(payload []byte, lsn, span uint64) error {
			buf = repl.AppendBodyFrame(buf[:0], repl.FrameRecord, payload)
			if err := send(buf); err != nil {
				return err
			}
			lastSent = lsn + span - 1
			return nil
		})
		if err != nil {
			// Backlog gap (compaction mid-read) or a dead follower: close;
			// the follower re-dials into the Gone check above.
			src.Unsubscribe(sub)
			return
		}
		// Prime the follower's staleness accounting with the cursor now —
		// an idle primary would otherwise leave it unknown until the first
		// heartbeat tick.
		buf = repl.AppendHeartbeatFrame(buf[:0], src.Cursor())
		if send(buf) != nil {
			src.Unsubscribe(sub)
			return
		}
	live:
		for {
			select {
			case <-ctx.Done():
				src.Unsubscribe(sub)
				return
			case <-hb.C:
				buf = repl.AppendHeartbeatFrame(buf[:0], src.Cursor())
				if send(buf) != nil {
					src.Unsubscribe(sub)
					return
				}
			case f, ok := <-sub.C:
				if !ok {
					// Shed as a slow subscriber: the buffer overflowed while
					// this handler was blocked writing. Re-subscribe and
					// catch the gap up from disk.
					break live
				}
				switch f.Type {
				case repl.FrameRecord:
					if f.LSN+f.Span-1 <= lastSent {
						continue // already sent via the disk backlog
					}
					buf = repl.AppendBodyFrame(buf[:0], repl.FrameRecord, f.Payload)
					if send(buf) != nil {
						src.Unsubscribe(sub)
						return
					}
					lastSent = f.LSN + f.Span - 1
				case repl.FrameDDL:
					buf = repl.AppendBodyFrame(buf[:0], repl.FrameDDL, f.Payload)
					if send(buf) != nil {
						src.Unsubscribe(sub)
						return
					}
				}
			}
		}
		src.Unsubscribe(sub)
	}
}

func (s *Server) handleReplSnapshot(w http.ResponseWriter, r *http.Request) {
	rc := http.NewResponseController(w)
	started := false
	err := s.db.ReplSnapshot(func(frame []byte) error {
		if !started {
			w.Header().Set("Content-Type", "application/octet-stream")
			w.WriteHeader(http.StatusOK)
			started = true
		}
		// Per-write deadline, as on /repl/stream: a stalled follower is
		// detected per frame.
		rc.SetWriteDeadline(time.Now().Add(s.writeWindow))
		_, err := w.Write(frame)
		return err
	})
	if err != nil && !started {
		writeError(w, http.StatusInternalServerError, err)
	}
}

func (s *Server) handleReplAck(w http.ResponseWriter, r *http.Request) {
	src := s.db.ReplSource()
	if src == nil {
		writeError(w, http.StatusUnprocessableEntity, fmt.Errorf("not a replication source"))
		return
	}
	var ack replAck
	if err := json.NewDecoder(r.Body).Decode(&ack); err != nil {
		writeError(w, decodeStatus(err), fmt.Errorf("bad request body: %w", err))
		return
	}
	if ack.Follower == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing follower"))
		return
	}
	src.Ack(ack.Follower, ack.LSN)
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// handlePromote turns a replica into a writable primary: the apply loop
// stops, the WAL seals at the last applied LSN, and the write gate opens.
// Idempotent — promoting a primary answers 200 with its current state.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	if err := s.db.Promote(); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	var lsn uint64
	if src := s.db.ReplSource(); src != nil {
		lsn = src.Cursor()
	}
	writeJSON(w, http.StatusOK, PromoteResponse{Role: s.db.Role(), LSN: lsn})
}
