package main

import (
	"fmt"
	"strconv"
)

// normalize turns result rows into group key → values: the leading keys
// cells joined into the key, the rest as numbers. Rows with equal keys are
// added column by column, which is how the instances of a moving window
// combine.
func normalize(rows [][]any, keys int) (map[string][]float64, error) {
	out := make(map[string][]float64, len(rows))
	for _, row := range rows {
		if len(row) < keys {
			return nil, fmt.Errorf("row %v has fewer than %d cells", row, keys)
		}
		key := ""
		for _, c := range row[:keys] {
			switch c := c.(type) {
			case string:
				key += c + "|"
			case float64:
				key += strconv.FormatFloat(c, 'f', -1, 64) + "|"
			default:
				return nil, fmt.Errorf("unexpected key cell %v (%T)", c, c)
			}
		}
		key = key[:len(key)-1]
		vals := make([]float64, len(row)-keys)
		for i, c := range row[keys:] {
			f, ok := c.(float64)
			if !ok {
				return nil, fmt.Errorf("unexpected value cell %v (%T) in group %s", c, c, key)
			}
			vals[i] = f
		}
		if prev, ok := out[key]; ok {
			for i := range prev {
				prev[i] += vals[i]
			}
			continue
		}
		out[key] = vals
	}
	return out, nil
}

// sameGroups reports the first difference between what a view holds and
// what the reference fold says it must hold.
func sameGroups(name string, got, want map[string][]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("view %s has %d groups, the reference fold has %d", name, len(got), len(want))
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			return fmt.Errorf("view %s lacks group %s", name, k)
		}
		if len(g) != len(w) {
			return fmt.Errorf("view %s group %s has %d values, want %d", name, k, len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				return fmt.Errorf("view %s group %s column %d reads %v, the reference fold %v", name, k, i, g[i], w[i])
			}
		}
	}
	return nil
}

// verifyViews checks every view of the catalog against the generator's fold:
// a persistent view equals its defining expression over the whole chronicle.
func verifyViews(h host, views []viewSpec, g *generator) error {
	for _, v := range views {
		if err := verifyView(h, v, g); err != nil {
			return err
		}
	}
	return nil
}

func verifyView(h host, v viewSpec, g *generator) error {
	rows, err := h.scan(v)
	if err != nil {
		return fmt.Errorf("reading view %s: %w", v.name, err)
	}
	got, err := normalize(rows, v.keys)
	if err != nil {
		return fmt.Errorf("view %s: %w", v.name, err)
	}
	return sameGroups(v.name, got, v.expect(g))
}

// tiler checks that acknowledged sequence-number ranges follow one another
// with no gap and no overlap.
type tiler struct{ next int64 }

func (t *tiler) ack(first, last int64, rows int) error {
	if t.next != 0 && first != t.next {
		return fmt.Errorf("ack starts at SN %d, the previous one ended at %d", first, t.next-1)
	}
	if last-first+1 != int64(rows) {
		return fmt.Errorf("ack covers SN %d..%d for %d rows", first, last, rows)
	}
	t.next = last + 1
	return nil
}

// usageRow is the usage view's row for an account as the reference fold
// has it: SUM(minutes), SUM(cost), COUNT(*).
func usageRow(f fold) []float64 { return []float64{float64(f.minutes), f.cost, float64(f.n)} }

// checkUsageCells compares one returned usage row (acct, v_min, v_cost, v_n)
// with the fold of that account.
func checkUsageCells(cells []any, acct string, f fold) error {
	got, err := normalize([][]any{cells}, 1)
	if err != nil {
		return err
	}
	return sameGroups("usage", got, map[string][]float64{acct: usageRow(f)})
}
