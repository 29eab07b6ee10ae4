package relation

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"chronicledb/internal/value"
)

func custSchema() *value.Schema {
	return value.NewSchema(
		value.Column{Name: "acct", Kind: value.KindString},
		value.Column{Name: "name", Kind: value.KindString},
		value.Column{Name: "state", Kind: value.KindString},
	)
}

func cust(acct, name, state string) value.Tuple {
	return value.Tuple{value.Str(acct), value.Str(name), value.Str(state)}
}

func newCust(t *testing.T, history bool) *Relation {
	t.Helper()
	r, err := New("customers", custSchema(), []int{0}, history)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewValidation(t *testing.T) {
	if _, err := New("r", nil, []int{0}, false); err == nil {
		t.Error("nil schema accepted")
	}
	if _, err := New("r", custSchema(), nil, false); err == nil {
		t.Error("empty key accepted")
	}
	if _, err := New("r", custSchema(), []int{7}, false); err == nil {
		t.Error("out-of-range key accepted")
	}
	if _, err := New("r", custSchema(), []int{0, 0}, false); err == nil {
		t.Error("duplicate key column accepted")
	}
	r, err := New("r", custSchema(), []int{0, 1}, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.KeyCols(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("KeyCols = %v", got)
	}
}

func TestUpsertGetDelete(t *testing.T) {
	r := newCust(t, false)
	if err := r.Upsert(1, cust("a1", "alice", "nj")); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d", r.Len())
	}
	got, ok := r.Get(value.Tuple{value.Str("a1")})
	if !ok || got[1].AsString() != "alice" {
		t.Errorf("Get = %v, %v", got, ok)
	}
	// Replace.
	if err := r.Upsert(2, cust("a1", "alice", "ny")); err != nil {
		t.Fatal(err)
	}
	got, _ = r.Get(value.Tuple{value.Str("a1")})
	if got[2].AsString() != "ny" {
		t.Errorf("after replace: %v", got)
	}
	if r.Len() != 1 {
		t.Errorf("Len after replace = %d", r.Len())
	}
	// Delete.
	if !r.Delete(3, value.Tuple{value.Str("a1")}) {
		t.Error("Delete reported false")
	}
	if r.Len() != 0 {
		t.Errorf("Len after delete = %d", r.Len())
	}
	if _, ok := r.Get(value.Tuple{value.Str("a1")}); ok {
		t.Error("Get after delete succeeded")
	}
	if r.Delete(4, value.Tuple{value.Str("a1")}) {
		t.Error("double delete reported true")
	}
	if r.Delete(4, value.Tuple{value.Str("zz")}) {
		t.Error("deleting absent key reported true")
	}
	if r.Updates() != 3 {
		t.Errorf("Updates = %d, want 3", r.Updates())
	}
}

func TestUpsertValidation(t *testing.T) {
	r := newCust(t, false)
	if err := r.Upsert(1, value.Tuple{value.Str("a")}); err == nil {
		t.Error("arity violation accepted")
	}
	if err := r.Upsert(1, value.Tuple{value.Null(), value.Str("x"), value.Str("y")}); err == nil {
		t.Error("null key accepted")
	}
}

func TestHistoryAsOf(t *testing.T) {
	r := newCust(t, true)
	r.Upsert(10, cust("a1", "alice", "nj"))
	r.Upsert(20, cust("a1", "alice", "ny"))
	r.Delete(30, value.Tuple{value.Str("a1")})
	r.Upsert(40, cust("a1", "alice", "ca"))

	for _, tc := range []struct {
		lsn   uint64
		state string
		live  bool
	}{
		{5, "", false},
		{10, "nj", true},
		{15, "nj", true},
		{20, "ny", true},
		{29, "ny", true},
		{30, "", false},
		{39, "", false},
		{40, "ca", true},
		{100, "ca", true},
	} {
		got, ok := r.GetAsOf(tc.lsn, value.Tuple{value.Str("a1")})
		if ok != tc.live {
			t.Errorf("AsOf(%d) live = %v, want %v", tc.lsn, ok, tc.live)
			continue
		}
		if ok && got[2].AsString() != tc.state {
			t.Errorf("AsOf(%d) state = %s, want %s", tc.lsn, got[2].AsString(), tc.state)
		}
	}
}

func TestNoHistoryCollapses(t *testing.T) {
	r := newCust(t, false)
	r.Upsert(10, cust("a1", "alice", "nj"))
	r.Upsert(20, cust("a1", "alice", "ny"))
	// Without history, AsOf degrades to current.
	got, ok := r.GetAsOf(10, value.Tuple{value.Str("a1")})
	if !ok || got[2].AsString() != "ny" {
		t.Errorf("no-history AsOf = %v, %v", got, ok)
	}
}

func TestSameLSNLastWins(t *testing.T) {
	r := newCust(t, true)
	r.Upsert(10, cust("a1", "alice", "nj"))
	r.Upsert(10, cust("a1", "alice", "ny"))
	got, _ := r.Get(value.Tuple{value.Str("a1")})
	if got[2].AsString() != "ny" {
		t.Errorf("same-LSN update: %v", got)
	}
	if got, ok := r.GetAsOf(10, value.Tuple{value.Str("a1")}); !ok || got[2].AsString() != "ny" {
		t.Errorf("same-LSN AsOf: %v, %v", got, ok)
	}
}

func TestScan(t *testing.T) {
	r := newCust(t, false)
	r.Upsert(1, cust("c", "carol", "nj"))
	r.Upsert(2, cust("a", "alice", "ny"))
	r.Upsert(3, cust("b", "bob", "ca"))
	r.Delete(4, value.Tuple{value.Str("b")})
	var accts []string
	r.Scan(func(t value.Tuple) bool {
		accts = append(accts, t[0].AsString())
		return true
	})
	if len(accts) != 2 || accts[0] != "a" || accts[1] != "c" {
		t.Errorf("Scan = %v (want key order, deleted excluded)", accts)
	}
	// Early stop.
	count := 0
	r.Scan(func(value.Tuple) bool { count++; return false })
	if count != 1 {
		t.Errorf("early stop visited %d", count)
	}
}

func TestScanAsOf(t *testing.T) {
	r := newCust(t, true)
	r.Upsert(1, cust("a", "alice", "ny"))
	r.Upsert(2, cust("b", "bob", "ca"))
	r.Delete(3, value.Tuple{value.Str("a")})
	var at2, at3 []string
	r.ScanAsOf(2, func(t value.Tuple) bool { at2 = append(at2, t[0].AsString()); return true })
	r.ScanAsOf(3, func(t value.Tuple) bool { at3 = append(at3, t[0].AsString()); return true })
	if len(at2) != 2 {
		t.Errorf("ScanAsOf(2) = %v", at2)
	}
	if len(at3) != 1 || at3[0] != "b" {
		t.Errorf("ScanAsOf(3) = %v", at3)
	}
}

func TestLookupByKey(t *testing.T) {
	r := newCust(t, false)
	r.Upsert(1, cust("a", "alice", "ny"))
	r.Upsert(2, cust("b", "bob", "ca"))
	got := r.LookupBy([]int{0}, value.Tuple{value.Str("b")})
	if len(got) != 1 || got[0][1].AsString() != "bob" {
		t.Errorf("LookupBy key = %v", got)
	}
	if got := r.LookupBy([]int{0}, value.Tuple{value.Str("zz")}); got != nil {
		t.Errorf("LookupBy absent = %v", got)
	}
}

func TestLookupByNonKey(t *testing.T) {
	r := newCust(t, false)
	r.Upsert(1, cust("a", "alice", "ny"))
	r.Upsert(2, cust("b", "bob", "ny"))
	r.Upsert(3, cust("c", "carol", "ca"))
	got := r.LookupBy([]int{2}, value.Tuple{value.Str("ny")})
	if len(got) != 2 {
		t.Errorf("LookupBy non-key = %v", got)
	}
}

func TestIsKey(t *testing.T) {
	r, _ := New("r", custSchema(), []int{0, 1}, false)
	if !r.IsKey([]int{0, 1}) || !r.IsKey([]int{1, 0}) {
		t.Error("key set (any order) should be recognized")
	}
	if r.IsKey([]int{0}) || r.IsKey([]int{0, 2}) || r.IsKey([]int{0, 1, 2}) {
		t.Error("non-key sets misrecognized")
	}
}

func TestCompositeKey(t *testing.T) {
	r, _ := New("r", custSchema(), []int{0, 2}, false)
	r.Upsert(1, cust("a", "alice", "ny"))
	r.Upsert(2, cust("a", "alice2", "ca")) // same acct, different state: distinct key
	if r.Len() != 2 {
		t.Errorf("Len = %d, want 2", r.Len())
	}
	got, ok := r.Get(value.Tuple{value.Str("a"), value.Str("ca")})
	if !ok || got[1].AsString() != "alice2" {
		t.Errorf("composite Get = %v, %v", got, ok)
	}
}

// TestAsOfMatchesReplay checks, for random update streams, that GetAsOf at
// every LSN agrees with replaying the stream up to that LSN.
func TestAsOfMatchesReplay(t *testing.T) {
	type update struct {
		Key  uint8
		Del  bool
		Name uint16
	}
	f := func(updates []update) bool {
		r := newCustQuick(true)
		// Replay state: key -> name (live only).
		type state map[uint8]uint16
		snapshots := []state{}
		cur := state{}
		for i, u := range updates {
			lsn := uint64(i + 1)
			key := value.Tuple{value.Str(string(rune('a' + u.Key%4)))}
			if u.Del {
				r.Delete(lsn, key)
				delete(cur, u.Key%4)
			} else {
				name := value.Str(string(rune('A' + u.Name%26)))
				r.Upsert(lsn, value.Tuple{key[0], name, value.Str("x")})
				cur[u.Key%4] = u.Name % 26
			}
			snap := state{}
			for k, v := range cur {
				snap[k] = v
			}
			snapshots = append(snapshots, snap)
		}
		for i, snap := range snapshots {
			lsn := uint64(i + 1)
			for k := uint8(0); k < 4; k++ {
				key := value.Tuple{value.Str(string(rune('a' + k)))}
				got, ok := r.GetAsOf(lsn, key)
				want, live := snap[k]
				if ok != live {
					return false
				}
				if ok && got[1].AsString() != string(rune('A'+want)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func newCustQuick(history bool) *Relation {
	r, err := New("customers", custSchema(), []int{0}, history)
	if err != nil {
		panic(err)
	}
	return r
}

// refVersion is one state of a key in the reference: the tuple current from
// lsn, nil once deleted.
type refVersion struct {
	lsn uint64
	t   value.Tuple
}

// refRelation is the reference a Relation is checked against: a map of
// version lists by key encoding, the shape the relation kept before rows
// were stored as bytes.
type refRelation struct {
	keyCols []int
	history bool
	keys    map[string][]refVersion
}

func (m *refRelation) key(keyVals value.Tuple) string {
	var b []byte
	for _, v := range keyVals {
		b = value.AppendKey(b, v)
	}
	return string(b)
}

func (m *refRelation) push(k string, v refVersion) {
	vs := m.keys[k]
	switch n := len(vs); {
	case n > 0 && vs[n-1].lsn == v.lsn, n > 0 && !m.history:
		vs[n-1] = v
	default:
		vs = append(vs, v)
	}
	m.keys[k] = vs
}

func (m *refRelation) upsert(lsn uint64, t value.Tuple) {
	m.push(m.key(t.Project(m.keyCols)), refVersion{lsn, t.Clone()})
}

func (m *refRelation) delete(lsn uint64, keyVals value.Tuple) bool {
	k := m.key(keyVals)
	if _, live := m.asOf(k, ^uint64(0)); !live {
		return false
	}
	m.push(k, refVersion{lsn, nil})
	return true
}

func (m *refRelation) asOf(k string, lsn uint64) (value.Tuple, bool) {
	vs := m.keys[k]
	if !m.history && len(vs) > 0 {
		return vs[len(vs)-1].t, vs[len(vs)-1].t != nil
	}
	for i := len(vs) - 1; i >= 0; i-- {
		if vs[i].lsn <= lsn {
			return vs[i].t, vs[i].t != nil
		}
	}
	return nil, false
}

// rowsAsOf lists the tuples live at lsn in key-encoding order.
func (m *refRelation) rowsAsOf(lsn uint64) []value.Tuple {
	keys := make([]string, 0, len(m.keys))
	for k := range m.keys {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []value.Tuple
	for _, k := range keys {
		if t, ok := m.asOf(k, lsn); ok {
			out = append(out, t)
		}
	}
	return out
}

// restored is the reference after a checkpoint restore at lsn: every live
// row is current from lsn and nothing else is remembered.
func (m *refRelation) restored(lsn uint64) *refRelation {
	out := &refRelation{keyCols: m.keyCols, history: m.history, keys: map[string][]refVersion{}}
	for _, t := range m.rowsAsOf(^uint64(0)) {
		out.upsert(lsn, t)
	}
	return out
}

// sameTuples compares tuples by their encodings, so a NaN cell equals itself.
func sameTuples(a, b []value.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if string(value.AppendTuple(nil, a[i])) != string(value.AppendTuple(nil, b[i])) {
			return false
		}
	}
	return true
}

func oneOrNone(t value.Tuple, ok bool) []value.Tuple {
	if !ok {
		return nil
	}
	return []value.Tuple{t}
}

// TestRelationMatchesReference drives a relation and the reference through
// seeded upsert, delete, Get, GetAsOf, Scan, ScanAsOf and LookupBy sequences,
// with history on and off, and halfway through carries the relation through a
// checkpoint image into a relation that held other rows. The key is two
// columns out of schema order; key strings run past 255 bytes, so a key cell's
// length byte wraps, and float keys mix -0, integral values and NaN.
func TestRelationMatchesReference(t *testing.T) {
	schema := value.NewSchema(
		value.Column{Name: "id", Kind: value.KindInt},
		value.Column{Name: "region", Kind: value.KindString},
		value.Column{Name: "score", Kind: value.KindFloat},
		value.Column{Name: "flag", Kind: value.KindBool},
		value.Column{Name: "note", Kind: value.KindString},
	)
	regions := []string{"", "a", "ab", "b", strings.Repeat("x", 300)}
	ids := []int64{-1, 0, 1, 2, 1 << 53, -1 << 62}
	scores := []float64{0, math.Copysign(0, -1), 1, 1.5, -2, math.NaN()}
	for _, keyCols := range [][]int{{1, 0}, {2}} {
		for _, history := range []bool{false, true} {
			for seed := int64(1); seed <= 12; seed++ {
				name := fmt.Sprintf("key%v/history=%v/seed=%d", keyCols, history, seed)
				rng := rand.New(rand.NewSource(seed))
				r, err := New("r", schema, keyCols, history)
				if err != nil {
					t.Fatal(err)
				}
				ref := &refRelation{keyCols: keyCols, history: history, keys: map[string][]refVersion{}}
				randTuple := func() value.Tuple {
					note := value.Null()
					if rng.Intn(3) > 0 {
						note = value.Str(regions[rng.Intn(len(regions))] + "n")
					}
					return value.Tuple{value.Int(ids[rng.Intn(len(ids))]), value.Str(regions[rng.Intn(len(regions))]),
						value.Float(scores[rng.Intn(len(scores))]), value.Bool(rng.Intn(2) == 0), note}
				}
				keyOf := func(t value.Tuple) value.Tuple { return t.Project(keyCols) }
				lsn := uint64(1)
				var updates int64
				for step := 0; step < 400; step++ {
					lsn += uint64(rng.Intn(2)) // updates may share an LSN
					where := fmt.Sprintf("%s step %d", name, step)
					switch op := rng.Intn(10); {
					case op < 4:
						tup := randTuple()
						if err := r.Upsert(lsn, tup); err != nil {
							t.Fatalf("%s: Upsert(%v): %v", where, tup, err)
						}
						ref.upsert(lsn, tup)
						updates++
					case op < 6:
						k := keyOf(randTuple())
						got, want := r.Delete(lsn, k), ref.delete(lsn, k)
						if got != want {
							t.Fatalf("%s: Delete(%v) = %v, want %v", where, k, got, want)
						}
						if got {
							updates++
						}
					case op == 6:
						k := keyOf(randTuple())
						got, ok := r.Get(k)
						want, wok := ref.asOf(ref.key(k), ^uint64(0))
						if !sameTuples(oneOrNone(got, ok), oneOrNone(want, wok)) {
							t.Fatalf("%s: Get(%v) = %v %v, want %v %v", where, k, got, ok, want, wok)
						}
						cols := append([]int(nil), keyCols...)
						vals := k.Clone()
						if len(cols) == 2 && rng.Intn(2) == 0 { // LookupBy takes the key columns in any order
							cols[0], cols[1], vals[0], vals[1] = cols[1], cols[0], vals[1], vals[0]
						}
						if got := r.LookupBy(cols, vals); !sameTuples(got, oneOrNone(want, wok)) {
							t.Fatalf("%s: LookupBy(%v, %v) = %v, want %v", where, cols, vals, got, want)
						}
					case op == 7:
						k, at := keyOf(randTuple()), uint64(rng.Int63n(int64(lsn)+2))
						got, ok := r.GetAsOf(at, k)
						want, wok := ref.asOf(ref.key(k), at)
						if !sameTuples(oneOrNone(got, ok), oneOrNone(want, wok)) {
							t.Fatalf("%s: GetAsOf(%d, %v) = %v %v, want %v %v", where, at, k, got, ok, want, wok)
						}
					case op == 8:
						at := uint64(rng.Int63n(int64(lsn) + 2))
						var got []value.Tuple
						r.ScanAsOf(at, func(t value.Tuple) bool { got = append(got, t.Clone()); return true })
						if want := ref.rowsAsOf(at); !sameTuples(got, want) {
							t.Fatalf("%s: ScanAsOf(%d) = %v, want %v", where, at, got, want)
						}
						flag := value.Bool(rng.Intn(2) == 0)
						var want []value.Tuple
						for _, t := range ref.rowsAsOf(^uint64(0)) {
							if value.Equal(t[3], flag) {
								want = append(want, t)
							}
						}
						if got := r.LookupBy([]int{3}, value.Tuple{flag}); !sameTuples(got, want) {
							t.Fatalf("%s: LookupBy(flag=%v) = %v, want %v", where, flag, got, want)
						}
					default:
						bad := randTuple()
						bad[keyCols[0]] = value.Null()
						if err := r.Upsert(lsn, bad); err == nil {
							t.Fatalf("%s: Upsert of a null key accepted", where)
						}
					}
					var got []value.Tuple
					r.Scan(func(t value.Tuple) bool { got = append(got, t.Clone()); return true })
					if want := ref.rowsAsOf(^uint64(0)); !sameTuples(got, want) || r.Len() != len(want) {
						t.Fatalf("%s: Scan = %v (Len %d), want %v", where, got, r.Len(), want)
					}
					if r.Updates() != updates {
						t.Fatalf("%s: Updates = %d, want %d", where, r.Updates(), updates)
					}
					if step == 200 {
						// Checkpoint → restore into a relation holding other rows.
						img := r.AppendImage([]byte("prefix"))[len("prefix"):]
						r2, _ := New("r", schema, keyCols, history)
						r2.Upsert(1, randTuple())
						n, err := r2.RestoreImage(lsn, append(img, "trailing"...))
						if err != nil || n != len(img) {
							t.Fatalf("%s: RestoreImage read %d of %d bytes: %v", where, n, len(img), err)
						}
						if again := r2.AppendImage(nil); string(again) != string(img) {
							t.Fatalf("%s: the restored relation's image differs from the one it was restored from", where)
						}
						r, ref = r2, ref.restored(lsn)
						updates = r.Updates()
					}
				}
			}
		}
	}
}

// TestRestoreImageRejectsMalformed: a malformed row in a checkpoint's
// relation section fails the restore with an error naming the row.
func TestRestoreImageRejectsMalformed(t *testing.T) {
	good := value.AppendTuple(nil, cust("a", "alice", "nj"))
	image := func(rows ...[]byte) []byte {
		b := binary.AppendUvarint(nil, uint64(len(rows)))
		for _, row := range rows {
			b = append(b, row...)
		}
		return b
	}
	for name, img := range map[string][]byte{
		"empty":           nil,
		"count past rows": image(good)[:len(image(good))-1],
		"arity":           image(good, value.AppendTuple(nil, value.Tuple{value.Str("b"), value.Str("bob")})),
		"kind":            image(value.AppendTuple(nil, value.Tuple{value.Str("b"), value.Int(1), value.Str("ny")})),
		"null key":        image(value.AppendTuple(nil, value.Tuple{value.Null(), value.Str("x"), value.Str("ny")})),
		"unknown tag":     image(append(append([]byte{3}, good[1:4]...), 200)),
		"truncated":       image(good[:len(good)-2]),
	} {
		r := newCust(t, false)
		if _, err := r.RestoreImage(1, img); err == nil {
			t.Errorf("%s: malformed image restored", name)
		}
	}
}
