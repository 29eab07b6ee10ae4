package feed

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"chronicledb/internal/chronicle"
	"chronicledb/internal/value"
)

// rowsFor builds n one-column delta rows carrying val, stamped with lsn.
func rowsFor(lsn uint64, n int, val int64) []chronicle.Row {
	out := make([]chronicle.Row, n)
	for i := range out {
		out[i] = chronicle.Row{SN: int64(lsn), Chronon: int64(lsn), LSN: lsn, Vals: value.Tuple{value.Int(val)}}
	}
	return out
}

// publishOne pushes one frame for view at lsn through a full batch cycle.
func publishOne(h *Hub, d *Door, view string, lsn uint64, val int64) {
	b := h.Begin(d)
	b.Capture(view, lsn, rowsFor(lsn, 1, val))
	b.Publish()
}

// drainLSNs empties a subscription, releasing frames and returning LSNs.
func drainLSNs(sub *Subscription, frames []*Frame) ([]uint64, []*Frame) {
	frames = sub.Drain(frames[:0])
	var lsns []uint64
	for _, f := range frames {
		lsns = append(lsns, f.LSN)
		f.Release()
	}
	return lsns, frames
}

func TestSubscribeNoCursorIsSnapshot(t *testing.T) {
	h := NewHub(Config{})
	sub, kind := h.Subscribe("v", 0, false)
	defer sub.Close()
	if kind != ResumeSnapshot {
		t.Fatalf("no-cursor resume = %v, want snapshot", kind)
	}
	st := h.Stats()
	if st.Subscribers != 1 || st.CatchupsSnapshot != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPublishDeliversInLSNOrder(t *testing.T) {
	h := NewHub(Config{})
	d := NewDoor()
	sub, _ := h.Subscribe("v", 0, false)
	defer sub.Close()

	for lsn := uint64(1); lsn <= 5; lsn++ {
		publishOne(h, d, "v", lsn, int64(lsn))
	}
	<-sub.C()
	lsns, _ := drainLSNs(sub, nil)
	if len(lsns) != 5 {
		t.Fatalf("got %d frames, want 5", len(lsns))
	}
	for i, lsn := range lsns {
		if lsn != uint64(i+1) {
			t.Fatalf("lsns = %v, want 1..5", lsns)
		}
	}
	if st := h.Stats(); st.Published != 5 || st.RowsPublished != 5 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestDoorOrdersOutOfOrderCommits draws two tickets in order but publishes
// the second batch first from another goroutine: the door must hold it
// until the first ticket retires, so the subscriber still sees LSN order.
func TestDoorOrdersOutOfOrderCommits(t *testing.T) {
	h := NewHub(Config{})
	d := NewDoor()
	sub, _ := h.Subscribe("v", 0, false)
	defer sub.Close()

	b1 := h.Begin(d)
	b1.Capture("v", 1, rowsFor(1, 1, 1))
	b2 := h.Begin(d)
	b2.Capture("v", 2, rowsFor(2, 1, 2))

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		b2.Publish() // must block until b1 retires
	}()
	b1.Publish()
	wg.Wait()

	lsns, _ := drainLSNs(sub, nil)
	if len(lsns) != 2 || lsns[0] != 1 || lsns[1] != 2 {
		t.Fatalf("lsns = %v, want [1 2]", lsns)
	}
}

// TestAbandonRetiresTicket proves a failed commit's batch does not wedge
// the door: the next ticket still publishes.
func TestAbandonRetiresTicket(t *testing.T) {
	h := NewHub(Config{})
	d := NewDoor()
	sub, _ := h.Subscribe("v", 0, false)
	defer sub.Close()

	b1 := h.Begin(d)
	b1.Capture("v", 1, rowsFor(1, 1, 1))
	b1.Abandon()
	publishOne(h, d, "v", 2, 2)

	lsns, _ := drainLSNs(sub, nil)
	if len(lsns) != 1 || lsns[0] != 2 {
		t.Fatalf("lsns = %v, want [2] (abandoned frame must not publish)", lsns)
	}
}

func TestTailResume(t *testing.T) {
	h := NewHub(Config{})
	d := NewDoor()
	for lsn := uint64(1); lsn <= 10; lsn++ {
		publishOne(h, d, "v", lsn, int64(lsn))
	}
	sub, kind := h.Subscribe("v", 5, true)
	defer sub.Close()
	if kind != ResumeTail {
		t.Fatalf("resume = %v, want tail", kind)
	}
	lsns, _ := drainLSNs(sub, nil)
	want := []uint64{6, 7, 8, 9, 10}
	if len(lsns) != len(want) {
		t.Fatalf("backlog lsns = %v, want %v", lsns, want)
	}
	for i := range want {
		if lsns[i] != want[i] {
			t.Fatalf("backlog lsns = %v, want %v", lsns, want)
		}
	}
	if st := h.Stats(); st.CatchupsTail != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestEvictionForcesSnapshot shrinks the tail so old cursors fall off the
// resume window and must take the snapshot path.
func TestEvictionForcesSnapshot(t *testing.T) {
	h := NewHub(Config{TailFrames: 4})
	d := NewDoor()
	for lsn := uint64(1); lsn <= 10; lsn++ {
		publishOne(h, d, "v", lsn, int64(lsn))
	}
	// Tail holds 7..10; a cursor at 2 predates the horizon.
	sub, kind := h.Subscribe("v", 2, true)
	defer sub.Close()
	if kind != ResumeSnapshot {
		t.Fatalf("resume = %v, want snapshot (cursor evicted)", kind)
	}
	// A cursor inside the window still tail-resumes.
	sub2, kind2 := h.Subscribe("v", 8, true)
	defer sub2.Close()
	if kind2 != ResumeTail {
		t.Fatalf("resume = %v, want tail", kind2)
	}
	lsns, _ := drainLSNs(sub2, nil)
	if len(lsns) != 2 || lsns[0] != 9 || lsns[1] != 10 {
		t.Fatalf("backlog = %v, want [9 10]", lsns)
	}
	if st := h.Stats(); st.Evicted != 6 {
		t.Fatalf("evicted = %d, want 6", st.Evicted)
	}
}

// TestSetBaseRaisesHorizon mirrors recovery: after a checkpoint restore
// the tail is empty and base is the checkpoint LSN, so any older cursor
// must fall back to a snapshot.
func TestSetBaseRaisesHorizon(t *testing.T) {
	h := NewHub(Config{})
	h.SetBase(100)
	if sub, kind := h.Subscribe("v", 50, true); kind != ResumeSnapshot {
		t.Fatalf("resume below base = %v, want snapshot", kind)
	} else {
		sub.Close()
	}
	if sub, kind := h.Subscribe("v", 100, true); kind != ResumeTail {
		t.Fatalf("resume at base = %v, want tail", kind)
	} else {
		sub.Close()
	}
}

// TestSlowConsumerShed overflows a tiny subscriber ring: the hub must shed
// the subscriber (ReasonSlow), release its frames, and keep publishing to
// healthy subscribers.
func TestSlowConsumerShed(t *testing.T) {
	h := NewHub(Config{Ring: 2})
	d := NewDoor()
	slow, _ := h.Subscribe("v", 0, false)
	for lsn := uint64(1); lsn <= 4; lsn++ {
		publishOne(h, d, "v", lsn, int64(lsn))
	}
	closed, reason := slow.Closed()
	if !closed || reason != ReasonSlow {
		t.Fatalf("closed=%v reason=%v, want slow shed", closed, reason)
	}
	st := h.Stats()
	if st.DroppedSlow != 1 || st.Subscribers != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// The shed subscriber's queue was released; Drain returns nothing.
	if frames := slow.Drain(nil); len(frames) != 0 {
		t.Fatalf("drained %d frames from shed subscriber", len(frames))
	}
}

func TestDropViewClosesSubscribers(t *testing.T) {
	h := NewHub(Config{})
	d := NewDoor()
	publishOne(h, d, "v", 1, 1)
	sub, _ := h.Subscribe("v", 0, false)
	h.DropView("v")
	closed, reason := sub.Closed()
	if !closed || reason != ReasonDropped {
		t.Fatalf("closed=%v reason=%v, want dropped", closed, reason)
	}
	// The view's tail is gone: a fresh subscription starts from scratch.
	sub2, kind := h.Subscribe("v", 1, true)
	defer sub2.Close()
	if kind != ResumeTail {
		// Horizon fell back to base 0... cursor 1 >= 0 is still tail-able
		// against an empty tail; both kinds are defensible, but the backlog
		// must be empty either way.
		t.Logf("post-drop resume = %v", kind)
	}
	if lsns, _ := drainLSNs(sub2, nil); len(lsns) != 0 {
		t.Fatalf("backlog after drop = %v, want empty", lsns)
	}
}

// TestSubscribeDuringPublish races subscriptions against publishes: every
// subscriber must see a strictly increasing LSN sequence with no
// duplicates, whether a frame arrived via backlog or live enqueue.
func TestSubscribeDuringPublish(t *testing.T) {
	// Ring must hold the whole run: this test checks ordering, not
	// shedding, and a shed subscriber would block forever on C().
	h := NewHub(Config{Ring: 1024})
	d := NewDoor()
	const total = 500
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for lsn := uint64(1); lsn <= total; lsn++ {
			publishOne(h, d, "v", lsn, int64(lsn))
		}
	}()

	results := make([][]uint64, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Join mid-stream at an arbitrary point with a cursor of 0: the
			// horizon may have moved past it, in which case the snapshot
			// kind tells the caller to read the view; here we only check
			// the live stream's ordering.
			sub, _ := h.Subscribe("v", 0, true)
			defer sub.Close()
			var got []uint64
			var frames []*Frame
			for {
				var lsns []uint64
				lsns, frames = drainLSNs(sub, frames)
				got = append(got, lsns...)
				if len(got) > 0 && got[len(got)-1] == total {
					break
				}
				if closed, reason := sub.Closed(); closed {
					t.Errorf("subscriber %d shed (%v) before seeing LSN %d", i, reason, total)
					break
				}
				<-sub.C()
			}
			results[i] = got
		}(i)
	}
	wg.Wait()
	for i, got := range results {
		for j := 1; j < len(got); j++ {
			if got[j] <= got[j-1] {
				t.Fatalf("subscriber %d: LSNs not strictly increasing at %d: %d then %d",
					i, j, got[j-1], got[j])
			}
		}
		if got[len(got)-1] != total {
			t.Fatalf("subscriber %d: last LSN %d, want %d", i, got[len(got)-1], total)
		}
	}
}

// TestEmptyBatchSkipsCapture proves empty delta slices produce no frames.
func TestEmptyBatchSkipsCapture(t *testing.T) {
	h := NewHub(Config{})
	d := NewDoor()
	b := h.Begin(d)
	b.Capture("v", 1, nil)
	if !b.Empty() {
		t.Fatal("empty capture must leave the batch empty")
	}
	b.Publish()
	if st := h.Stats(); st.Published != 0 {
		t.Fatalf("published = %d, want 0", st.Published)
	}
}

// TestRingGrowsToItsBound: a subscriber that falls behind grows its ring
// from ringStart up to Config.Ring, a bound that is no power of two, and
// keeps every frame in LSN order across growth from a wrapped head; it is
// shed exactly when Config.Ring frames wait and one more arrives.
func TestRingGrowsToItsBound(t *testing.T) {
	const bound = 100
	h := NewHub(Config{Ring: bound, TailFrames: 4})
	d := NewDoor()
	sub, _ := h.Subscribe("v", 0, false)
	lsn := uint64(0)
	publish := func(n int) {
		for range n {
			lsn++
			publishOne(h, d, "v", lsn, int64(lsn))
		}
	}
	// Move the head off zero, so the first growth copies a wrapped ring.
	publish(ringStart - 3)
	if got, _ := drainLSNs(sub, nil); len(got) != ringStart-3 {
		t.Fatalf("drained %d frames, want %d", len(got), ringStart-3)
	}
	first := lsn + 1
	publish(bound)
	if closed, _ := sub.Closed(); closed {
		t.Fatalf("shed with %d frames waiting, the bound", bound)
	}
	if len(sub.ring.buf) != bound {
		t.Fatalf("the ring holds %d slots with %d frames waiting, want %d", len(sub.ring.buf), bound, bound)
	}
	got, _ := drainLSNs(sub, nil)
	for i, l := range got {
		if l != first+uint64(i) {
			t.Fatalf("frame %d has LSN %d, want %d: %v", i, l, first+uint64(i), got)
		}
	}
	if len(got) != bound {
		t.Fatalf("drained %d frames, want %d", len(got), bound)
	}
	publish(bound + 1)
	if closed, reason := sub.Closed(); !closed || reason != ReasonSlow {
		t.Fatalf("closed=%v reason=%v with %d frames pending, want a slow shed", closed, reason, bound+1)
	}
	if st := h.Stats(); st.DroppedSlow != 1 || st.Subscribers != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestShortSubscriptionBytes: a subscription that ends before it falls
// behind costs its ring's start, not Config.Ring frames — a watch that some
// configurations bound at 1<<15 frames used to allocate 256 KiB up front.
func TestShortSubscriptionBytes(t *testing.T) {
	h := NewHub(Config{Ring: 1 << 15})
	d := NewDoor()
	publishOne(h, d, "v", 1, 1) // the view's tail exists before the count
	const subs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range subs {
		sub, _ := h.Subscribe("v", 0, false)
		publishOne(h, d, "v", uint64(i+2), 1)
		drainLSNs(sub, nil)
		sub.Close()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / subs
	t.Logf("a short subscription with Ring %d: %d B", 1<<15, per)
	if per > 1024 {
		t.Errorf("a short subscription allocates %d B, budget 1 KiB", per)
	}
}

// callRows builds one call's delta rows: k rows from LSN first on, one LSN
// per row, each with a string cell of its own.
func callRows(first uint64, k int) []chronicle.Row {
	out := make([]chronicle.Row, k)
	for i := range out {
		lsn := first + uint64(i)
		out[i] = chronicle.Row{SN: int64(lsn) - 1, Chronon: -1 << 40 * int64(i%3), LSN: lsn,
			Vals: value.Tuple{value.Str(strings.Repeat("s", i*20)), value.Int(int64(lsn)), value.Float(0.5)}}
	}
	return out
}

// publishCall pushes one call's frame for view through a full batch cycle.
func publishCall(h *Hub, d *Door, view string, first uint64, k int) {
	b := h.Begin(d)
	b.Capture(view, first+uint64(k)-1, callRows(first, k))
	b.Publish()
}

// TestFrameDecodesWhatItPacked: a frame packs a round's rows, several LSNs
// and rows of one LSN among them, and decodes them as they were; its
// decoded strings stay put after the frame is released and its pooled slab
// packs another round.
func TestFrameDecodesWhatItPacked(t *testing.T) {
	rows := callRows(1000, 10)
	rows[4].LSN, rows[5].LSN = rows[3].LSN, rows[3].LSN // one mutation, three rows
	for i := range rows {
		rows[i].Chronon = int64(7*i*i - 30*i) // steps back, then on by more each row
	}
	rows = append(rows, chronicle.Row{SN: 1 << 62, Chronon: 1 << 62, LSN: 1 << 63, Vals: value.Tuple{value.Null(), value.Bool(true), value.Str("")}})
	b := NewHub(Config{}).Begin(NewDoor())
	b.Capture("v", 1<<63, rows)
	f := b.frames[0]
	if f.LSN != 1<<63 || f.deltas != 9 {
		t.Fatalf("frame LSN %d with %d deltas, want %d and 9", f.LSN, f.deltas, uint64(1<<63))
	}
	got, _ := f.Decode(nil, nil)
	if fmt.Sprint(got) != fmt.Sprint(rows) {
		t.Fatalf("decoded\n%v\nwant\n%v", got, rows)
	}
	want := fmt.Sprint(got)
	f.Release()
	other := callRows(1998, 3) // fits the released slab
	for i := range other {
		other[i].Vals[0] = value.Str(strings.Repeat("z", 60))
	}
	for range 10 {
		b.Capture("v", 2000, other)
	}
	if fmt.Sprint(got) != want {
		t.Fatalf("decoded rows changed once their frame's slab was reused:\n%v\nwant\n%v", got, want)
	}
}

// TestTailCountsDeltas: the tail holds whole frames, one a call, but is
// bounded in deltas. It keeps the last TailFrames deltas and the rest of the
// frame that holds the oldest of them; a cursor inside a retained frame
// resumes from the tail with that frame whole, one inside an evicted frame
// needs a snapshot; published and evicted count deltas.
func TestTailCountsDeltas(t *testing.T) {
	h := NewHub(Config{TailFrames: 20})
	d := NewDoor()
	for c := range 4 {
		publishCall(h, d, "v", uint64(16*c+1), 16) // LSNs 1..64
	}
	// 49..64 holds 16 deltas, fewer than 20: 33..48 stays too.
	if st := h.Stats(); st.Published != 64 || st.RowsPublished != 64 || st.Evicted != 32 {
		t.Fatalf("stats = %+v, want 64 published and 32 evicted", st)
	}
	if sub, kind := h.Subscribe("v", 31, true); kind != ResumeSnapshot {
		t.Fatalf("a cursor inside an evicted frame resumes by %v, want snapshot", kind)
	} else {
		sub.Close()
	}
	for _, from := range []uint64{32, 40, 48, 63} {
		sub, kind := h.Subscribe("v", from, true)
		lsns, _ := drainLSNs(sub, nil)
		sub.Close()
		want := []uint64{48, 64}
		if from >= 48 {
			want = want[1:]
		}
		if kind != ResumeTail || fmt.Sprint(lsns) != fmt.Sprint(want) {
			t.Fatalf("from %d: resumed by %v with frames %v, want tail and %v", from, kind, lsns, want)
		}
	}
}

// TestRingShedsAtPendingDeltas: a subscriber is shed when a frame would
// take it past Config.Ring pending deltas, however few frames that is.
func TestRingShedsAtPendingDeltas(t *testing.T) {
	h := NewHub(Config{Ring: 20})
	d := NewDoor()
	sub, _ := h.Subscribe("v", 0, false)
	publishCall(h, d, "v", 1, 8)
	publishCall(h, d, "v", 9, 8)
	if closed, _ := sub.Closed(); closed {
		t.Fatal("shed with 16 deltas pending, the bound is 20")
	}
	publishCall(h, d, "v", 17, 8)
	if closed, reason := sub.Closed(); !closed || reason != ReasonSlow {
		t.Fatalf("closed=%v reason=%v with 24 deltas pending, want a slow shed", closed, reason)
	}
}
