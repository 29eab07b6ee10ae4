package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"syscall"
)

// setupBound is set-up time's bound. Its spread is exempt from the driver's
// check and the builder's contract asks that it take the largest bound, so it
// is the one bound above a tenth and the calibration leaves it alone.
const setupBound = 0.25

// maxBound is the largest bound any other gated metric may need; one that
// needs more is made steadier or demoted to the ungated list, not loosened.
const maxBound = 0.10

// selfCheck is the noise calibration: two interleaved sets (A, B, A, B, …)
// of n full runs of every workload on this same binary, each run a fresh
// process with its own seed, exactly as the driver runs them. For every
// workload/metric it prints each set's median and quartiles, each set's
// spread (interquartile range over median) and the gap between the two
// medians. A gated metric's bound must exceed what two sets of the same code
// differ by and what one set spreads over: it is set in BENCHMARK.json to
// max(0.03, 2 × gap, 3 × spread), at most maxBound, and the calibration fails
// if a gap doubled or a spread alone is already beyond maxBound.
func selfCheck(n int, seconds float64) error {
	if n < 5 {
		return fmt.Errorf("--selfcheck needs at least 5 runs per set, got %d", n)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	// values[set][workload][metric] collects one value per run.
	var values [2]map[string]map[string][]float64
	for i := range values {
		values[i] = make(map[string]map[string][]float64)
	}
	seed := int64(defaultSeed)
	for i := 0; i < n; i++ {
		for set := 0; set < 2; set++ {
			for _, sp := range specs {
				seed++
				all, err := runChild(self, sp.name, seed, seconds)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", sp.name, seed, err)
				}
				if values[set][sp.name] == nil {
					values[set][sp.name] = make(map[string][]float64)
				}
				for name, m := range all {
					values[set][sp.name][name] = append(values[set][sp.name][name], m.Value)
				}
				line, _ := json.Marshal(all) // progress only; a map of numbers and strings cannot fail
				fmt.Fprintf(os.Stderr, "selfcheck: run %d/%d set %c %s %s\n", i+1, n, 'A'+set, sp.name, line)
			}
		}
	}

	fmt.Printf("Two interleaved sets of %d runs of each workload at --seconds %g, seeds %d..%d.\n\n", n, seconds, defaultSeed+1, seed)
	fmt.Println("| workload | metric | unit | A median (q1..q3) | B median (q1..q3) | spread A | spread B | gap |")
	fmt.Println("|---|---|---|---|---|---|---|---|")
	spread, gap := make(map[string]float64), make(map[string]float64)
	for _, sp := range specs {
		for _, d := range twelve {
			a, b := values[0][sp.name][d.name], values[1][sp.name][d.name]
			if len(a) == 0 {
				continue // not one of this workload's
			}
			qa, qb := quartiles(a), quartiles(b)
			sa, sb := (qa[2]-qa[0])/qa[1], (qb[2]-qb[0])/qb[1]
			g := math.Abs(qa[1]-qb[1]) / math.Min(qa[1], qb[1])
			fmt.Printf("| %s | %s | %s | %.4g (%.4g..%.4g) | %.4g (%.4g..%.4g) | %.3f | %.3f | %.3f |\n",
				sp.name, d.name, d.unit, qa[1], qa[0], qa[2], qb[1], qb[0], qb[2], sa, sb, g)
			spread[d.name] = math.Max(spread[d.name], math.Max(sa, sb))
			gap[d.name] = math.Max(gap[d.name], g)
		}
	}
	fmt.Println("\n| metric | largest spread | largest gap | bound |")
	fmt.Println("|---|---|---|---|")
	bounds := make(map[string]float64)
	var tooNoisy []string
	for _, d := range twelve {
		bound := "ungated"
		switch {
		case d.name == "setup_s":
			bound = fmt.Sprintf("%.2f (the largest; its spread is exempt)", setupBound)
		case gated[d.name]:
			if math.Max(2*gap[d.name], spread[d.name]) > maxBound {
				tooNoisy = append(tooNoisy, d.name)
			}
			b := math.Ceil(math.Max(2*gap[d.name], 3*spread[d.name])*100) / 100
			bounds[d.name] = math.Min(math.Max(b, 0.03), maxBound)
			bound = fmt.Sprintf("%.2f", bounds[d.name])
		}
		fmt.Printf("| `%s` | %.3f | %.3f | %s |\n", d.name, spread[d.name], gap[d.name], bound)
	}
	if len(tooNoisy) > 0 {
		return fmt.Errorf("gated metrics %v need a bound above %.2f: make them steadier or demote them; BENCHMARK.json is unchanged", tooNoisy, maxBound)
	}
	return writeBounds("BENCHMARK.json", bounds)
}

// writeBounds sets the given end-to-end bounds in the benchmark's
// declaration, which is read and written as JSON text so that nothing else in
// it moves.
func writeBounds(path string, bounds map[string]float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	text := string(data)
	for name, b := range bounds {
		re := regexp.MustCompile(`("name": "` + regexp.QuoteMeta(name) + `",\s*"unit": "[^"]*",\s*"better": "[^"]*",\s*"bound": )[0-9.]+`)
		if !re.MatchString(text) {
			return fmt.Errorf("%s declares no end-to-end metric %s with a bound", path, name)
		}
		text = re.ReplaceAllString(text, "${1}"+strconv.FormatFloat(b, 'f', -1, 64))
	}
	return os.WriteFile(path, []byte(text), 0o644)
}

// quartiles returns the first quartile, median and third quartile as
// Python's statistics.quantiles(xs, n=4) does (the exclusive method), which
// is what the driver computes spreads with.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	quantile(s, 0) // sorts
	var out [3]float64
	for i := 1; i <= 3; i++ {
		pos := float64(i) * float64(len(s)+1) / 4
		lo := int(pos)
		if lo < 1 {
			lo = 1
		}
		if lo > len(s)-1 {
			lo = len(s) - 1
		}
		out[i-1] = s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return out
}

// runChild runs one untraced run of this program in a fresh process and
// returns every metric the workload emitted, gated or not.
func runChild(self, workload string, seed int64, seconds float64) (map[string]metricJSON, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	// An interrupted calibration takes the run in progress, and through it
	// the daemon, down with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	var result, metrics string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, allPrefix); ok {
			metrics = rest
		} else if line != "" {
			result = line
		}
	}
	var out output
	if err := json.Unmarshal([]byte(result), &out); err != nil {
		return nil, fmt.Errorf("parsing result line %q: %w", result, err)
	}
	if !out.Correct || out.Failed != 0 {
		return nil, fmt.Errorf("run was not correct: %d of %d operations failed", out.Failed, out.Attempted)
	}
	var all map[string]metricJSON
	if err := json.Unmarshal([]byte(metrics), &all); err != nil {
		return nil, fmt.Errorf("parsing metrics line %q: %w", metrics, err)
	}
	return all, nil
}
