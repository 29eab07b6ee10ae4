package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"sync/atomic"
	"testing"

	"chronicledb"
)

// The smoke test keeps the harness honest inside tier-1: every workload, at
// a hundredth of its size, must run to a verified end and emit exactly the
// metrics BENCHMARK.json declares, and the verifier must notice a reference
// row that is wrong.

var smokeEnv env

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "chronicledb-benchmark-smoke-")
	if err != nil {
		panic(err)
	}
	bin := filepath.Join(dir, "chronicled")
	build := exec.Command("go", "build", "-o", bin, "chronicledb/cmd/chronicled")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		os.RemoveAll(dir)
		panic("building chronicled: " + err.Error())
	}
	data, _, err := dataRoot(dir)
	if err != nil {
		os.RemoveAll(dir)
		panic(err)
	}
	smokeEnv = env{chronicled: bin, dataRoot: data, logDir: dir, active: new(atomic.Pointer[run])}
	code := m.Run()
	os.RemoveAll(data)
	os.RemoveAll(dir)
	os.Exit(code)
}

type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDeclarationsMatchTheProgram(t *testing.T) {
	d := readDeclared(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if d.RunSeconds != refSeconds {
		t.Errorf("run_seconds is %d, the counts are calibrated for %d", d.RunSeconds, refSeconds)
	}
	if len(d.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(d.Workloads), len(specs))
	}
	for i, w := range d.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d is declared as %q (%q), the program has %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
		if !name.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or a why over 200 characters", w.Name)
		}
	}
	endToEnd, perLayer := endToEnd(), perLayer()
	if len(d.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end metrics, the program has %d", len(d.EndToEnd), len(endToEnd))
	}
	for i, m := range d.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end metric %d is declared as %s (%s), the program has %s (%s)", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		most := maxBound
		if m.Name == "setup_s" {
			most = setupBound
		}
		if !name.MatchString(m.Name) || m.Bound <= 0 || m.Bound > most {
			t.Errorf("end-to-end metric %s: bad name or bound %v (at most %v)", m.Name, m.Bound, most)
		}
	}
	if len(d.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the program has %d", len(d.PerLayer), len(perLayer))
	}
	for i, m := range d.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit || !name.MatchString(m.Name) {
			t.Errorf("per-layer metric %d is declared as %s (%s), the program has %s (%s)", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	// Every workload emits the gated metrics, and only ones of the twelve.
	for _, sp := range specs {
		for _, m := range endToEnd {
			if !slices.Contains(sp.emits, m.name) {
				t.Errorf("workload %s does not emit the gated metric %s", sp.name, m.name)
			}
		}
		if extra := missingFrom(wantNames(twelve), sp.emits); len(extra) > 0 {
			t.Errorf("workload %s emits %v, which are not among the twelve", sp.name, extra)
		}
	}
}

// missingFrom returns the names of have that all lacks.
func missingFrom(all, have []string) (out []string) {
	for _, n := range have {
		if !slices.Contains(all, n) {
			out = append(out, n)
		}
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	var names []string
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

func wantNames(defs []metricDef) []string {
	var names []string
	for _, d := range defs {
		names = append(names, d.name)
	}
	sort.Strings(names)
	return names
}

func TestEveryWorkloadAtAHundredth(t *testing.T) {
	for i := range specs {
		sp := &specs[i]
		t.Run(sp.name, func(t *testing.T) {
			out, r, err := runWorkload(sp, smokeEnv, defaultSeed, 0.01, true)
			if err != nil {
				t.Fatal(err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Fatalf("correct %v, %d of %d operations failed", out.Correct, out.Failed, out.Attempted)
			}
			if got, want := sortedKeys(out.Metrics), wantNames(endToEnd()); !slices.Equal(got, want) {
				t.Fatalf("the result line carries %v, BENCHMARK.json gates %v", got, want)
			}
			want := slices.Clone(sp.emits)
			sort.Strings(want)
			if got := sortedKeys(r.m); !slices.Equal(got, want) {
				t.Fatalf("measured %v, the workload's subset is %v", got, want)
			}
		})
	}
}

func TestTracedRunAtAHundredth(t *testing.T) {
	for i := range specs {
		sp := &specs[i]
		t.Run(sp.name, func(t *testing.T) {
			spans := filepath.Join(t.TempDir(), "spans.json")
			out, err := runTraced(sp, smokeEnv, defaultSeed, 0.01, true, spans)
			if err != nil {
				t.Fatal(err)
			}
			if !out.Correct || out.Failed != 0 {
				t.Fatalf("correct %v, %d of %d operations failed", out.Correct, out.Failed, out.Attempted)
			}
			if got, want := sortedKeys(out.Metrics), wantNames(perLayer()); !slices.Equal(got, want) {
				t.Fatalf("emitted %v, declared %v", got, want)
			}
			if st, err := os.Stat(spans); err != nil || st.Size() == 0 {
				t.Fatalf("no spans file: %v", err)
			}
		})
	}
}

func TestVerifierCatchesACorruptedReferenceRow(t *testing.T) {
	h, err := openInproc(chronicledb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	r := newRun(&specs[1], smokeEnv, defaultSeed, 0.01, true)
	g := newGenerator(defaultSeed, r.accounts)
	if err := r.load(h, g); err != nil {
		t.Fatal(err)
	}
	r.sendAppend(h, g, g.batch(nil, 256))
	if r.firstErr != nil {
		t.Fatal(r.firstErr)
	}
	if err := verifyViews(h, r.views, g); err != nil {
		t.Fatalf("an honest reference fails verification: %v", err)
	}
	g.byAcct[0][g.pickAccount()].minutes++
	if err := verifyViews(h, r.views, g); err == nil {
		t.Fatal("the verifier accepted a reference row that is off by one minute")
	}
}
