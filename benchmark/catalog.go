package main

import (
	"fmt"
	"strconv"
	"strings"
)

// viewSpec is one persistent view of a workload's catalog: how to create it
// and what the reference fold says it must contain. Rows are compared in a
// normal form: the leading keys cells joined into a string, the remaining
// cells as float64.
type viewSpec struct {
	name     string
	ddl      string
	keys     int
	periodic int64 // > 0: a moving-window family; every row lies in this many instances
	expect   func(g *generator) map[string][]float64
}

const (
	callsDDL     = `CREATE CHRONICLE calls (acct STRING, minutes INT, cost FLOAT)`
	customersDDL = `CREATE RELATION customers (acct STRING, state STRING, plan STRING, KEY(acct))`

	// The moving windows count chronons, and the in-process workload's clock
	// ticks once per appended row: a new window opens every windowEvery rows
	// and stays open for windowWidth, so each row folds into two instances.
	windowEvery = 400000
	windowWidth = 2 * windowEvery
)

// aggregate columns a view can carry, each read off a fold.
var aggs = map[string]struct {
	sql string
	get func(f fold) float64
}{
	"min":  {"SUM(minutes)", func(f fold) float64 { return float64(f.minutes) }},
	"cost": {"SUM(cost)", func(f fold) float64 { return f.cost }},
	"n":    {"COUNT(*)", func(f fold) float64 { return float64(f.n) }},
	"max":  {"MAX(minutes)", func(f fold) float64 { return float64(f.hi) }},
	"lo":   {"MIN(minutes)", func(f fold) float64 { return float64(f.lo) }},
}

func selectList(cols []string) string {
	parts := make([]string, len(cols))
	for i, c := range cols {
		parts[i] = fmt.Sprintf("%s AS %s", aggs[c].sql, "v_"+c)
	}
	return strings.Join(parts, ", ")
}

func foldValues(f fold, cols []string, times int64) []float64 {
	out := make([]float64, len(cols))
	for i, c := range cols {
		out[i] = aggs[c].get(f) * float64(times)
	}
	return out
}

// where is the σ prefix p as a conjunction: three atoms, so predicate
// evaluation is a visible part of maintenance and the six views that share
// a prefix share one node of the CSE DAG. A negative p is no selection at
// all (and folds like prefix 0, which keeps every row).
func where(p int) string {
	if p < 0 {
		return ""
	}
	return fmt.Sprintf("WHERE minutes >= %d AND minutes <= %d AND cost >= 0", sigma[p], maxMinutes)
}

// byAccount is a summary of calls grouped by account under prefix p, in the
// default (hash) view store.
func byAccount(name string, p int, cols ...string) viewSpec {
	return viewSpec{
		name: name,
		keys: 1,
		ddl: fmt.Sprintf("CREATE VIEW %s AS SELECT acct, %s FROM calls %s GROUP BY acct",
			name, selectList(cols), where(p)),
		expect: func(g *generator) map[string][]float64 { return accountGroups(g, p, cols, 1) },
	}
}

// accountGroups is what a view grouped by account under prefix p must hold:
// one group per account with a row that passed, its columns read off the
// fold and multiplied by times.
func accountGroups(g *generator, p int, cols []string, times int64) map[string][]float64 {
	out := make(map[string][]float64)
	for a, f := range g.byAcct[max(p, 0)] {
		if f.n > 0 {
			out[g.names[a]] = foldValues(f, cols, times)
		}
	}
	return out
}

// byCustomer is a key-join view: calls ⋈ customers grouped by a customer
// attribute (the CA⋈ class).
func byCustomer(name, attr string, of func(int) string, cols ...string) viewSpec {
	return viewSpec{
		name: name,
		keys: 1,
		ddl: fmt.Sprintf("CREATE VIEW %s AS SELECT %s, %s FROM calls JOIN customers ON calls.acct = customers.acct GROUP BY %s",
			name, attr, selectList(cols), attr),
		expect: func(g *generator) map[string][]float64 {
			groups := make(map[string]*fold)
			// The background accounts have no customers row, so the key
			// join drops their calls.
			for a, f := range g.byAcct[0][:g.accounts] {
				if f.n == 0 {
					continue
				}
				k := of(a)
				if groups[k] == nil {
					groups[k] = &fold{}
				}
				groups[k].merge(f)
			}
			out := make(map[string][]float64, len(groups))
			for k, f := range groups {
				out[k] = foldValues(*f, cols, 1)
			}
			return out
		},
	}
}

// distinctOf is a duplicate-eliminating projection of calls under prefix p.
func distinctOf(name, col string, p int) viewSpec {
	return viewSpec{
		name: name,
		keys: 1,
		ddl:  fmt.Sprintf("CREATE VIEW %s AS SELECT DISTINCT %s FROM calls %s", name, col, where(p)),
		expect: func(g *generator) map[string][]float64 {
			if col == "acct" {
				return accountGroups(g, p, nil, 1)
			}
			out := make(map[string][]float64)
			for m, ok := range g.seen[p] {
				if ok {
					out[strconv.Itoa(m)] = []float64{}
				}
			}
			return out
		},
	}
}

// window is a periodic moving-window summary by account.
func window(name string, cols ...string) viewSpec {
	v := byAccount(name, -1, cols...)
	v.periodic = windowWidth / windowEvery
	v.ddl = fmt.Sprintf("CREATE PERIODIC VIEW %s AS SELECT acct, %s FROM calls GROUP BY acct EVERY %d WIDTH %d",
		name, selectList(cols), windowEvery, windowWidth)
	v.expect = func(g *generator) map[string][]float64 { return accountGroups(g, -1, cols, v.periodic) }
	return v
}

// ordered puts a view in the B-tree store: ordered scans, latest-N, a
// copy-on-write snapshot per committed append, and blocks a cache can page.
func ordered(v viewSpec) viewSpec {
	v.ddl += " WITH STORE BTREE"
	return v
}

// usageView is the view every workload's summary queries read; it comes
// first in every catalog.
func usageView(p int) viewSpec { return ordered(byAccount("usage", p, "min", "cost", "n")) }

// servedCatalog is the two cheap views of the HTTP workloads.
func servedCatalog() []viewSpec {
	return []viewSpec{usageView(-1), byCustomer("revenue", "state", stateOf, "cost", "n")}
}

// fanoutCatalog is the 64 views of maintain-fanout: 48 summaries by account
// under 8 σ prefixes (six share each; one of the six is ordered, the rest
// are in the default store), 8 key-join views, 4 projections and 4 moving
// windows.
func fanoutCatalog() []viewSpec {
	var out []viewSpec
	for p := range sigma {
		all := ordered(byAccount(fmt.Sprintf("s%d_all", p), p, "min", "cost", "n"))
		if p == 0 {
			all = usageView(0)
		}
		out = append(out, all)
		for _, c := range []string{"min", "cost", "n", "max", "lo"} {
			out = append(out, byAccount(fmt.Sprintf("s%d_%s", p, c), p, c))
		}
	}
	for _, c := range []string{"cost", "min", "n", "max"} {
		out = append(out, byCustomer("j_state_"+c, "state", stateOf, c))
		out = append(out, byCustomer("j_plan_"+c, "plan", planOf, c))
	}
	out = append(out,
		distinctOf("d_acct", "acct", 0), distinctOf("d_acct3", "acct", 3),
		distinctOf("d_min", "minutes", 0), distinctOf("d_min5", "minutes", 5),
		window("w_min", "min"), window("w_cost", "cost"), window("w_n", "n"), window("w_all", "min", "cost", "n"))
	return out
}
