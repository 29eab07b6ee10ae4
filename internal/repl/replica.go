package repl

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"chronicledb/internal/wal"
)

// Callbacks are the follower database's apply hooks. All three are invoked
// from the replica's single apply goroutine, so they never race each
// other.
type Callbacks struct {
	// ApplyRecord applies one replicated WAL record through the follower's
	// engine (the recovery apply switch). Frames arrive in LSN order.
	ApplyRecord func(r wal.Record) error
	// ApplyDDL applies catalog statement idx (0-based position in the
	// primary's catalog). It must skip idx below the follower's own count
	// (redelivery) and error on a gap above it.
	ApplyDDL func(idx uint64, stmt string) error
	// DDLCount reports how many catalog statements the follower has
	// applied, sent with each stream request so the primary can replay the
	// missing catalog tail.
	DDLCount func() uint64
	// Snapshot performs a full resync after the primary reports the
	// requested LSN is gone (compacted below its checkpoint), returning
	// the restored LSN frontier. ctx ends when the replica stops.
	Snapshot func(ctx context.Context) (uint64, error)
}

// Config configures a Replica.
type Config struct {
	Primary    string // primary base URL, e.g. http://127.0.0.1:7457
	FollowerID string
	From       uint64 // applied LSN frontier at start (follower recovery's eng.LSN())
	Client     *http.Client
	// Backoff between failed connection attempts (default 100ms).
	Backoff time.Duration
}

// State is a point-in-time snapshot of replication progress for stats and
// staleness accounting.
type State struct {
	AppliedLSN    uint64
	PrimaryLSN    uint64
	Connected     bool
	LastContact   time.Time
	CaughtUpAt    time.Time
	Resyncs       int64
	FramesApplied int64
}

// Replica tails a primary's replication stream and applies it. One apply
// goroutine consumes frames; one acker goroutine posts the applied LSN
// back so the primary's sync ack mode can wait on it.
type Replica struct {
	cfg Config
	cb  Callbacks

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	applied    atomic.Uint64
	primaryLSN atomic.Uint64
	connected  atomic.Bool
	lastMs     atomic.Int64 // last primary contact, unix millis
	caughtMs   atomic.Int64 // last moment applied >= primaryLSN, unix millis
	resyncs    atomic.Int64
	frames     atomic.Int64

	ackKick chan struct{}

	lastErr struct {
		sync.Mutex
		err error
	}
}

// Start launches the replica loop.
func Start(cfg Config, cb Callbacks) *Replica {
	if cfg.Client == nil {
		cfg.Client = &http.Client{} // no overall timeout: the stream is long-lived
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 100 * time.Millisecond
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &Replica{cfg: cfg, cb: cb, ctx: ctx, cancel: cancel, ackKick: make(chan struct{}, 1)}
	r.applied.Store(cfg.From)
	now := time.Now().UnixMilli()
	r.lastMs.Store(now)
	r.caughtMs.Store(now)
	r.wg.Add(2)
	go r.run()
	go r.ackLoop()
	return r
}

// Stop tears the replica down and waits for both goroutines to exit. After
// Stop returns no further frames will be applied — the promotion seal
// point.
func (r *Replica) Stop() {
	r.cancel()
	r.wg.Wait()
}

// State snapshots replication progress.
func (r *Replica) State() State {
	return State{
		AppliedLSN:    r.applied.Load(),
		PrimaryLSN:    r.primaryLSN.Load(),
		Connected:     r.connected.Load(),
		LastContact:   time.UnixMilli(r.lastMs.Load()),
		CaughtUpAt:    time.UnixMilli(r.caughtMs.Load()),
		Resyncs:       r.resyncs.Load(),
		FramesApplied: r.frames.Load(),
	}
}

// Err returns the most recent stream error (nil when healthy).
func (r *Replica) Err() error {
	r.lastErr.Lock()
	defer r.lastErr.Unlock()
	return r.lastErr.err
}

func (r *Replica) setErr(err error) {
	r.lastErr.Lock()
	r.lastErr.err = err
	r.lastErr.Unlock()
}

func (r *Replica) run() {
	defer r.wg.Done()
	for r.ctx.Err() == nil {
		err := r.stream()
		if r.ctx.Err() != nil {
			return
		}
		r.setErr(err)
		r.connected.Store(false)
		select {
		case <-r.ctx.Done():
			return
		case <-time.After(r.cfg.Backoff):
		}
	}
}

// stream opens one connection to the primary and applies frames until it
// breaks. It returns the terminal error (nil only on context cancel).
func (r *Replica) stream() error {
	from := r.applied.Load()
	u := strings.TrimRight(r.cfg.Primary, "/") + "/repl/stream?" + url.Values{
		"from":     {strconv.FormatUint(from, 10)},
		"follower": {r.cfg.FollowerID},
		"ddl":      {strconv.FormatUint(r.cb.DDLCount(), 10)},
	}.Encode()
	req, err := http.NewRequestWithContext(r.ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := r.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		if r.cb.Snapshot == nil {
			return fmt.Errorf("repl: primary compacted past lsn %d and no snapshot hook", from)
		}
		lsn, err := r.cb.Snapshot(r.ctx)
		if err != nil {
			return fmt.Errorf("repl: snapshot resync: %w", err)
		}
		r.resyncs.Add(1)
		r.applied.Store(lsn)
		r.kickAck()
		return fmt.Errorf("repl: resynced from snapshot at lsn %d", lsn)
	default:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("repl: primary returned %s", resp.Status)
	}

	r.connected.Store(true)
	r.setErr(nil)
	fr := NewFrameReader(resp.Body)
	for {
		typ, payload, err := fr.Next()
		if err != nil {
			return err
		}
		r.lastMs.Store(time.Now().UnixMilli())
		switch typ {
		case FrameRecord:
			rec, err := wal.DecodeRecord(payload)
			if err != nil {
				return err
			}
			span := wal.RecordSpan(rec)
			top := rec.LSN + span - 1
			if top <= r.applied.Load() {
				continue // overlap after reconnect; already applied
			}
			if err := r.cb.ApplyRecord(rec); err != nil {
				return fmt.Errorf("repl: apply lsn %d: %w", rec.LSN, err)
			}
			r.frames.Add(1)
			r.applied.Store(top)
			r.noteProgress()
			r.kickAck()
		case FrameDDL:
			idx, _, stmt, err := DecodeDDLFrame(payload)
			if err != nil {
				return err
			}
			if err := r.cb.ApplyDDL(idx, stmt); err != nil {
				return fmt.Errorf("repl: apply ddl %d: %w", idx, err)
			}
			r.frames.Add(1)
		case FrameHeartbeat:
			lsn, err := DecodeHeartbeatFrame(payload)
			if err != nil {
				return err
			}
			if lsn > r.primaryLSN.Load() {
				r.primaryLSN.Store(lsn)
			}
			r.noteProgress()
		default:
			return fmt.Errorf("repl: unknown frame type %d", typ)
		}
	}
}

// noteProgress refreshes the caught-up stamp whenever the applied frontier
// covers the primary's advertised cursor — the basis of the staleness
// bound: lag_ns = now - caughtUpAt.
func (r *Replica) noteProgress() {
	if r.applied.Load() >= r.primaryLSN.Load() {
		r.caughtMs.Store(time.Now().UnixMilli())
	}
}

func (r *Replica) kickAck() {
	select {
	case r.ackKick <- struct{}{}:
	default:
	}
}

// ackLoop posts the applied LSN back to the primary. The buffered kick
// channel coalesces: at most one ack POST is in flight, covering whatever
// frontier the apply loop reached meanwhile.
func (r *Replica) ackLoop() {
	defer r.wg.Done()
	var lastAcked uint64
	for {
		select {
		case <-r.ctx.Done():
			return
		case <-r.ackKick:
		}
		lsn := r.applied.Load()
		if lsn <= lastAcked {
			continue
		}
		body := fmt.Sprintf(`{"follower":%q,"lsn":%d}`, r.cfg.FollowerID, lsn)
		req, err := http.NewRequestWithContext(r.ctx, http.MethodPost,
			strings.TrimRight(r.cfg.Primary, "/")+"/repl/ack", strings.NewReader(body))
		if err != nil {
			continue
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := r.cfg.Client.Do(req)
		ok := false
		if err == nil {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			ok = resp.StatusCode == http.StatusOK
		}
		if ok {
			lastAcked = lsn
			continue
		}
		// Failed ack with possibly no further frames coming: retry after a
		// backoff so a caught-up follower still converges its ack.
		select {
		case <-r.ctx.Done():
			return
		case <-time.After(r.cfg.Backoff):
			r.kickAck()
		}
	}
}
