package main

import (
	"fmt"
	"math/rand"
)

// The keyspace every workload draws from: Zipf(s = 1.1) over the workload's
// accounts, call lengths uniform in 1..60 minutes, costs in quarter units
// so every SUM(cost) is exact in float64 whatever order the rows fold in.
const (
	bgAccounts = 1000 // the read-http background appender's own accounts
	numStates  = 50
	numPlans   = 8
	maxMinutes = 60
	zipfS      = 1.1
)

// sigma are the eight selection prefixes of the maintain-fanout catalog:
// prefix p keeps rows with minutes >= sigma[p]. Prefix 0 keeps every row, so
// fold 0 is also the reference for the unfiltered views of the other
// workloads.
var sigma = [...]int64{1, 5, 10, 15, 20, 25, 30, 35}

// callRow is one generated tuple of calls(acct, minutes, cost).
type callRow struct {
	acct    int32
	minutes int64
	cost    float64
}

// fold is the reference summary of one group: what SUM, COUNT, MIN and MAX
// over the group's rows must read.
type fold struct {
	n, minutes int64
	cost       float64
	lo, hi     int64
}

func (f *fold) add(r callRow) {
	if f.n == 0 || r.minutes < f.lo {
		f.lo = r.minutes
	}
	if r.minutes > f.hi {
		f.hi = r.minutes
	}
	f.n++
	f.minutes += r.minutes
	f.cost += r.cost
}

func (f *fold) merge(o fold) {
	if o.n == 0 {
		return
	}
	if f.n == 0 || o.lo < f.lo {
		f.lo = o.lo
	}
	if o.hi > f.hi {
		f.hi = o.hi
	}
	f.n += o.n
	f.minutes += o.minutes
	f.cost += o.cost
}

// generator makes the rows a workload sends and keeps its own fold of them.
// The program under test sees only the rows; the fold is what every view
// must equal at the end (Theorem 4.2's invariant used as the output check).
type generator struct {
	rng      *rand.Rand
	zipf     *rand.Zipf
	accounts int      // the accounts appends and lookups draw from
	names    []string // account index → key; the tail holds the background accounts

	// byAcct[p][a] folds the rows of account a that pass sigma[p]. seen[p][m]
	// records that some row with minutes = m passed sigma[p].
	byAcct [len(sigma)][]fold
	seen   [len(sigma)][maxMinutes + 1]bool
	rows   int64
}

func newGenerator(seed int64, accounts int) *generator {
	rng := rand.New(rand.NewSource(seed))
	g := &generator{
		rng:      rng,
		zipf:     rand.NewZipf(rng, zipfS, 1, uint64(accounts-1)),
		accounts: accounts,
		names:    make([]string, accounts+bgAccounts),
	}
	for i := range g.names {
		if i < accounts {
			g.names[i] = fmt.Sprintf("a%05d", i)
		} else {
			// Sorts below every "a" key, so GET /latest never returns one.
			g.names[i] = fmt.Sprintf("0bg%04d", i-accounts)
		}
	}
	for p := range g.byAcct {
		g.byAcct[p] = make([]fold, len(g.names))
	}
	return g
}

// stateOf and planOf are the customers relation: fixed functions of the
// account, loaded once in set-up and never updated, so the key-join views
// fold by them.
func stateOf(acct int) string { return fmt.Sprintf("S%02d", acct%numStates) }
func planOf(acct int) string  { return fmt.Sprintf("P%d", (acct/numStates)%numPlans) }

// record folds one row into the reference.
func (g *generator) record(r callRow) {
	g.rows++
	for p := range sigma {
		if r.minutes >= sigma[p] {
			g.byAcct[p][r.acct].add(r)
			g.seen[p][r.minutes] = true
		}
	}
}

func (g *generator) rowFor(acct int) callRow {
	r := callRow{
		acct:    int32(acct),
		minutes: 1 + g.rng.Int63n(maxMinutes),
		cost:    float64(g.rng.Intn(400)) / 4,
	}
	g.record(r)
	return r
}

// batch draws n rows with Zipf-distributed accounts into dst.
func (g *generator) batch(dst []callRow, n int) []callRow {
	dst = dst[:0]
	for i := 0; i < n; i++ {
		dst = append(dst, g.rowFor(int(g.zipf.Uint64())))
	}
	return dst
}

// bgBatch draws n rows over the background accounts.
func (g *generator) bgBatch(dst []callRow, n int) []callRow {
	dst = dst[:0]
	for i := 0; i < n; i++ {
		dst = append(dst, g.rowFor(g.accounts+g.rng.Intn(bgAccounts)))
	}
	return dst
}

// pickAccount draws a lookup key with the same skew as the appends.
func (g *generator) pickAccount() int { return int(g.zipf.Uint64()) }

// absorb adds another generator's fold to this one: the background
// appender draws from its own generator so the two never share state.
func (g *generator) absorb(o *generator) {
	g.rows += o.rows
	for p := range g.byAcct {
		for a, f := range o.byAcct[p] {
			g.byAcct[p][a].merge(f)
		}
		for m, ok := range o.seen[p] {
			g.seen[p][m] = g.seen[p][m] || ok
		}
	}
}
