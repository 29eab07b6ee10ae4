// Package bench is the experiment harness: it regenerates, as measured
// tables, every claim of the chronicle paper with quantitative content.
// The paper (a theory extended abstract) has no tables or figures of its
// own, so the experiment list in DESIGN.md — E1..E13 — plays that role:
// each experiment's expected *shape* (who wins, what the scaling exponent
// is, where the crossover falls) comes straight from a theorem or a
// Section-5 design argument, and EXPERIMENTS.md records claim vs measured.
// The system-engineering experiments E14–E23 are recorded rows there;
// benchmark/ measures that engineering now.
//
// The same kernels back the root-level testing.B benchmarks and the
// cmd/chronbench driver.
package bench

import (
	"fmt"
	"strings"
)

// Table is one experiment's output.
type Table struct {
	ID     string
	Title  string
	Claim  string // the paper claim being reproduced
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	fmt.Fprintf(&b, "claim: %s\n", t.Claim)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, cell := range r {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			pad := 0
			if i < len(widths) {
				pad = widths[i]
			}
			fmt.Fprintf(&b, "  %-*s", pad, c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// Config scales the experiments.
type Config struct {
	// Quick shrinks sweeps for CI and unit tests; the full sweep is the
	// chronbench default.
	Quick bool
}

// Experiment is one runnable experiment.
type Experiment struct {
	ID   string
	Name string
	Run  func(cfg Config) (*Table, error)
}

// All returns every experiment in order.
func All() []Experiment {
	return []Experiment{
		{"E1", "maintenance vs chronicle size", RunE1},
		{"E2", "maintenance vs relation size", RunE2},
		{"E3", "append throughput by language class", RunE3},
		{"E4", "summary-query latency: view vs scan", RunE4},
		{"E5", "delta cost vs expression shape (u, j)", RunE5},
		{"E6", "moving windows: cyclic buffer vs re-aggregation", RunE6},
		{"E7", "affected-view dispatch vs view count", RunE7},
		{"E8", "periodic view lifecycle and expiration", RunE8},
		{"E9", "tiered discounts: incremental vs batch", RunE9},
		{"E10", "view store ablation: hash vs B-tree vs |V|", RunE10},
		{"E11", "proactive updates and temporal joins", RunE11},
		{"E12", "recovery: checkpoint + WAL tail vs full replay", RunE12},
		{"E13", "end-to-end maintenance latency distribution", RunE13},
	}
}

// fmtNs renders nanoseconds with a friendly unit.
func fmtNs(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.2fµs", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}

// fmtCount renders large counts compactly.
func fmtCount(n int) string {
	switch {
	case n >= 1_000_000 && n%1_000_000 == 0:
		return fmt.Sprintf("%dM", n/1_000_000)
	case n >= 1_000 && n%1_000 == 0:
		return fmt.Sprintf("%dk", n/1_000)
	default:
		return fmt.Sprintf("%d", n)
	}
}
