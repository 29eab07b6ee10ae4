package shard

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"chronicledb/internal/aggregate"
	"chronicledb/internal/algebra"
	"chronicledb/internal/chronicle"
	"chronicledb/internal/value"
	"chronicledb/internal/view"
)

// idOf reads the unique id a test append carries in its first tuple.
func idOf(q *appendReq) int64 {
	return q.rec.Parts[0].Tuples[0][1].AsInt()
}

// idRows maps each id found in the chronicle's rows to how many rows carry
// it (newRouter retains every row).
func idRows(t *testing.T, r *Router, name string) map[int64]int {
	t.Helper()
	rows := chronicleRows(t, r, name)
	out := make(map[int64]int, len(rows))
	for _, row := range rows {
		out[row.Vals[1].AsInt()]++
	}
	return out
}

// TestPromotedLeaderAppliesOnce holds the first leader inside its commit
// while maxCoalesce+4 callers queue behind it and a Close arrives, then lets
// go: the lead must pass to the head of the queue, whose pass takes its own
// request plus maxCoalesce-1 followers, and the remainder goes to the next
// head. Every request is applied exactly once, in arrival order, and Close
// returns only after the last pass.
func TestPromotedLeaderAppliesOnce(t *testing.T) {
	const queued = maxCoalesce + 4
	r := newRouter(t, 1)
	mustCreateChronicle(t, r, "calls", "telecom")
	s := r.shards[0]

	entered, release := make(chan struct{}), make(chan struct{})
	var passes []int
	var leaders []int64
	var closeReturned atomic.Bool
	r.shards[0].commit = func() error {
		// The commit runs on the leader's goroutine inside its pass, so the
		// pass's scratch is its to read.
		passes = append(passes, len(s.batch))
		leaders = append(leaders, idOf(s.batch[0]))
		if len(passes) == 1 {
			close(entered)
			<-release
			return nil
		}
		// Give a Close that did not wait every chance to have returned.
		for i := 0; i < 100; i++ {
			runtime.Gosched()
		}
		if closeReturned.Load() {
			t.Error("a pass ran after Close returned")
		}
		return nil
	}

	var wg sync.WaitGroup
	appendID := func(id int64) {
		defer wg.Done()
		if _, err := appendTx(r, "calls", []value.Tuple{{value.Str("a"), value.Int(id)}}); err != nil {
			t.Error(err)
		}
	}
	wg.Add(1)
	go appendID(0)
	<-entered
	// Queue the rest one at a time so arrival order is the id order.
	for id := int64(1); id <= queued; id++ {
		wg.Add(1)
		go appendID(id)
		for n := 0; n != int(id); runtime.Gosched() {
			s.mu.Lock()
			n = len(s.queue)
			s.mu.Unlock()
		}
	}
	closeDone := make(chan struct{})
	go func() {
		r.Close()
		closeReturned.Store(true)
		close(closeDone)
	}()
	for closing := false; !closing; runtime.Gosched() {
		s.mu.Lock()
		closing = s.closed
		s.mu.Unlock()
	}
	close(release)
	wg.Wait()
	<-closeDone

	if want := []int{1, maxCoalesce, queued - maxCoalesce}; fmt.Sprint(passes) != fmt.Sprint(want) {
		t.Errorf("pass sizes = %v, want %v", passes, want)
	}
	if want := []int64{0, 1, maxCoalesce + 1}; fmt.Sprint(leaders) != fmt.Sprint(want) {
		t.Errorf("pass leaders = %v, want %v (the lead goes to the queue's head)", leaders, want)
	}
	rows := chronicleRows(t, r, "calls")
	if len(rows) != queued+1 {
		t.Fatalf("%d rows applied, want %d", len(rows), queued+1)
	}
	for i, row := range rows {
		if row.SN != int64(i) || row.Vals[1].AsInt() != int64(i) {
			t.Fatalf("row %d = SN %d id %d: not applied once in arrival order", i, row.SN, row.Vals[1].AsInt())
		}
	}
}

// TestConcurrentStress races appenders (single, bulk and idempotent
// requests) over disjoint chronicle groups on one shard and on four, while
// another goroutine interleaves proactive relation updates, a commit hook
// fails every seventh pass, and a Close arrives in mid-flight. Every
// temporal-join view must equal its AsOf reference evaluation — any
// divergence means the barrier failed to order a relation update against
// appends. Every call must be answered exactly once; the requests a failed
// commit covered — and only those — come back with its error; what was
// applied is exactly what was answered, once each, with sequence numbers
// that tile; and no pass runs once Close has returned.
func TestConcurrentStress(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { concurrentStress(t, shards) })
	}
}

func concurrentStress(t *testing.T, shards int) {
	const (
		groups    = 8
		workers   = 4 // per group
		perWorker = 150
		failEvery = 7
	)
	r := newRouter(t, shards)
	rel, err := r.CreateRelation("customers", custSchema(), []int{0})
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 16; a++ {
		if err := r.Upsert("customers", value.Tuple{value.Str(acct(a)), value.Str("nj")}); err != nil {
			t.Fatal(err)
		}
	}
	chronicles := make([]*chronicle.Chronicle, groups)
	for g := range chronicles {
		c := mustCreateChronicle(t, r, fmt.Sprintf("c%d", g), fmt.Sprintf("g%d", g))
		jr, err := algebra.NewJoinRel(algebra.NewScan(c), rel, []int{0}, []int{0})
		if err != nil {
			t.Fatal(err)
		}
		def := view.Def{
			Name: fmt.Sprintf("by_state%d", g), Expr: jr, Mode: view.SummarizeGroupBy,
			GroupCols: []int{3}, // state
			Aggs:      []aggregate.Spec{{Func: aggregate.Sum, Col: 1, Name: "total"}},
		}
		if _, err := r.CreateView(def); err != nil {
			t.Fatal(err)
		}
		chronicles[g] = c
	}

	errCommit := errors.New("injected commit failure")
	var (
		mu            sync.Mutex // guards unacked and passCount
		unacked       = map[int64]bool{}
		passCount     = make([]int, shards)
		closeReturned atomic.Bool
	)
	for _, s := range r.shards {
		s.commit = func() error {
			if closeReturned.Load() {
				t.Error("a pass ran after Close returned")
			}
			mu.Lock()
			defer mu.Unlock()
			if passCount[s.id]++; passCount[s.id]%failEvery != 0 {
				return nil
			}
			for _, q := range s.batch {
				if q.err == nil {
					unacked[idOf(q)] = true
				}
			}
			return errCommit
		}
	}

	type answer struct {
		id          int64
		group       int
		first, last int64
		err         error
	}
	var (
		wg       sync.WaitGroup
		answered atomic.Int64
		answers  = make([][]answer, groups*workers)
		closed   = make(chan struct{})
	)
	for slot := range answers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := slot / workers
			name := chronicles[g].Name()
			rng := rand.New(rand.NewSource(int64(slot)))
			for i := 0; i < perWorker; i++ {
				// The id rides in the summed column; the account joins customers.
				a := answer{id: int64(slot*perWorker + i), group: g}
				one := []value.Tuple{{value.Str(acct(rng.Intn(16))), value.Int(a.id)}}
				switch i % 3 {
				case 0:
					a.first, a.err = appendTx(r, name, one)
					a.last = a.first
				case 1:
					two := append(one, value.Tuple{value.Str(acct(rng.Intn(16))), value.Int(a.id)})
					a.first, a.last, _, a.err = appendEach(r, name, two, "", "")
				case 2:
					a.first, a.last, _, a.err = appendEach(r, name, one, "client", fmt.Sprint(a.id))
				}
				answers[slot] = append(answers[slot], a)
				if answered.Add(1) == groups*workers*perWorker/2 {
					go func() {
						r.Close()
						closeReturned.Store(true)
						close(closed)
					}()
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		states := []string{"nj", "ny", "ca", "tx", "wa"}
		for i := 0; ; i++ {
			select {
			case <-closed:
				return
			default:
			}
			// Occasionally drop a customer entirely: appends until it is
			// restored must not join.
			key := value.Tuple{value.Str(acct(rng.Intn(16)))}
			var err error
			if i%25 == 24 {
				_, err = r.DeleteKey("customers", key)
			} else {
				err = r.Upsert("customers", append(key, value.Str(states[rng.Intn(len(states))])))
			}
			if err != nil {
				t.Error(err)
				return
			}
			runtime.Gosched()
		}
	}()
	wg.Wait()
	<-closed

	for g := range chronicles {
		v, _ := r.View(fmt.Sprintf("by_state%d", g))
		want, err := v.Recompute()
		if err != nil {
			t.Fatalf("recompute %s: %v", v.Def().Name, err)
		}
		if d := multisetDiff(v.Rows(), want); d != 0 {
			t.Errorf("view %s diverges from AsOf reference in %d row(s)", v.Def().Name, d)
		}
	}
	if sum := r.Counters(); sum.RelationUpdates == 0 || sum.Maintenance.Count() == 0 {
		t.Errorf("RelationUpdates = %d, merged maintenance histogram count = %d", sum.RelationUpdates, sum.Maintenance.Count())
	}

	applied := make([]map[int64]int, groups)
	sns := make([]map[int64]bool, groups)
	for g := range applied {
		applied[g], sns[g] = idRows(t, r, chronicles[g].Name()), map[int64]bool{}
	}
	var nAcked, nUnacked, nRefused int
	for _, as := range answers {
		if len(as) != perWorker {
			t.Fatalf("a worker got %d answers for %d calls", len(as), perWorker)
		}
		for _, a := range as {
			rows := int(a.last-a.first) + 1
			switch {
			case errors.Is(a.err, errClosed):
				nRefused++
				rows = 0
			case a.err == nil:
				nAcked++
				if unacked[a.id] {
					t.Errorf("id %d acked, but its pass's commit failed", a.id)
				}
			case errors.Is(a.err, errCommit):
				nUnacked++
				if !unacked[a.id] {
					t.Errorf("id %d un-acked, but no failed commit covered it", a.id)
				}
				delete(unacked, a.id)
			default:
				t.Fatalf("id %d: unexpected error %v", a.id, a.err)
			}
			if applied[a.group][a.id] != rows {
				t.Errorf("id %d answered for %d rows (%v), applied %d times", a.id, rows, a.err, applied[a.group][a.id])
			}
			delete(applied[a.group], a.id)
			for sn := a.first; rows > 0 && sn <= a.last; sn++ {
				if sns[a.group][sn] {
					t.Errorf("group %d: SN %d answered twice", a.group, sn)
				}
				sns[a.group][sn] = true
			}
		}
	}
	if len(unacked) != 0 {
		t.Errorf("%d requests covered by a failed commit were not un-acked", len(unacked))
	}
	for g := range applied {
		if len(applied[g]) != 0 {
			t.Errorf("group %d: %d applied ids were never answered", g, len(applied[g]))
		}
		for sn := int64(0); sn < int64(len(sns[g])); sn++ {
			if !sns[g][sn] {
				t.Errorf("group %d: answered SNs do not tile: %d missing of %d", g, sn, len(sns[g]))
				break
			}
		}
	}
	if nAcked == 0 || nUnacked == 0 || nRefused == 0 {
		t.Errorf("acked %d, un-acked %d, refused %d: the run missed a case", nAcked, nUnacked, nRefused)
	}
	for _, s := range r.shards {
		s.mu.Lock()
		if s.busy || len(s.queue) != 0 {
			t.Errorf("shard %d left busy=%v queue=%d", s.id, s.busy, len(s.queue))
		}
		s.mu.Unlock()
	}
	// The callers are back and the router started nothing of its own: no
	// goroutine is left inside it.
	stacks := make([]byte, 1<<20)
	stacks = stacks[:runtime.Stack(stacks, true)]
	if bytes.Contains(stacks, []byte("shard.(*shardState)")) || bytes.Contains(stacks, []byte("shard.(*Router)")) {
		t.Errorf("a goroutine outlived Close inside the router:\n%s", stacks)
	}
}
