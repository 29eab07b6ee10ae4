// Command benchmark is chronicledb's one fixed performance suite: four
// workloads, twelve end-to-end metrics, and a traced run that attributes
// time to layers from outside. See README.md in this directory.
//
//	bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"syscall"
)

// metricDef declares one metric by name and unit.
type metricDef struct{ name, unit string }

// twelve are the suite's end-to-end metrics. A workload emits the ones its
// phases give (spec.emits) and prints them by name and unit. The gated ones
// are BENCHMARK.json's end_to_end list: every workload emits them and they
// carry a regression bound. The others repeat no better than a seventh to a
// third on this host (NOISE.md), so by the rule that a metric needing a bound
// above 0.10 is fixed or demoted they head the ungated per_layer list, and
// the result line of the traced run carries them. The smoke test holds these
// lists and BENCHMARK.json together.
var twelve = []metricDef{
	{"setup_s", "s"},
	{"append_rows_per_s", "rows/s"},
	{"append_p50_ms", "ms"},
	{"lookup_per_s", "1/s"},
	{"lookup_p50_ms", "ms"},
	{"latest_p50_ms", "ms"},
	{"watch_p50_ms", "ms"},
	{"reopen_s", "s"},
	{"disk_bytes_per_row", "B/row"},
	{"cpu_us_per_row", "us/row"},
	{"cpu_us_per_read", "us"},
	{"rss_mb", "MB"},
}

var gated = map[string]bool{"setup_s": true, "rss_mb": true}

// endToEnd and demoted split the twelve by whether they are gated.
func endToEnd() (out []metricDef) {
	for _, d := range twelve {
		if gated[d.name] {
			out = append(out, d)
		}
	}
	return out
}

func demoted() (out []metricDef) {
	for _, d := range twelve {
		if !gated[d.name] {
			out = append(out, d)
		}
	}
	return out
}

const defaultSeed = 1995

// output is the line the driver reads.
type output struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(realMain()) }

// realMain returns the exit code, so that its deferred clean-up runs.
func realMain() int {
	var (
		workload  = flag.String("workload", "", "one of maintain-fanout, ingest-http, read-http, mixed-open")
		seed      = flag.Int64("seed", defaultSeed, "workload seed: the same seed gives the same inputs")
		seconds   = flag.Float64("seconds", refSeconds, "run length the operation counts are scaled to")
		trace     = flag.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
		selfcheck = flag.Int("selfcheck", 0, "noise calibration: run two interleaved sets of N full runs of every workload, print the table and set the bounds in BENCHMARK.json")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	e, fallback, err := prepareEnv(filepath.Join(".bench_build", "bin", "chronicled"))
	if err != nil {
		return fatal(err)
	}
	defer os.RemoveAll(e.dataRoot)
	stopOnSignal(e)
	if *selfcheck > 0 {
		if err := selfCheck(*selfcheck, *seconds); err != nil {
			return fatal(err)
		}
		return 0
	}
	sp, err := findSpec(*workload)
	if err != nil {
		return fatal(err)
	}
	printHeader(sp, e, fallback, *seed, *seconds)

	var out output
	if *trace == 0 {
		out, _, err = runWorkload(sp, e, *seed, *seconds/refSeconds, false)
	} else {
		out, err = runTraced(sp, e, *seed, *seconds/refSeconds, false, filepath.Join(".bench_build", "spans-"+sp.name+".json"))
	}
	line, jerr := json.Marshal(out)
	if jerr != nil {
		return fatal(jerr)
	}
	fmt.Println(string(line))
	if err != nil {
		return fatal(err)
	}
	return 0
}

func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 1
}

// runWorkload executes one untraced run, prints every metric the workload
// emits by name and unit, and renders the gated ones as the result. smoke is
// the tier-1 test's mode: nothing printed.
func runWorkload(sp *spec, e env, seed int64, scale float64, smoke bool) (output, *run, error) {
	r := newRun(sp, e, seed, scale, smoke)
	e.active.Store(r)
	err := r.execute()
	r.tearDown()
	if !smoke {
		for _, l := range r.info {
			fmt.Println("#", l)
		}
	}
	out := output{
		Correct:   err == nil && r.failed.Load() == 0,
		Attempted: r.attempted.Load(),
		Failed:    r.failed.Load(),
		Metrics:   make(map[string]metricJSON),
	}
	if err != nil {
		// A mismatch found at the end taints everything measured before it.
		out.Failed = out.Attempted
		return out, r, err
	}
	all := make(map[string]metricJSON)
	for _, d := range twelve {
		v, ok := r.m[d.name]
		if emits := slices.Contains(sp.emits, d.name); emits != ok || (ok && v <= 0) {
			return out, r, fmt.Errorf("workload %s: %s is declared %v, measured %v (%v)", sp.name, d.name, emits, ok, v)
		}
		if !ok {
			continue
		}
		all[d.name] = metricJSON{Value: v, Unit: d.unit}
		if gated[d.name] {
			out.Metrics[d.name] = all[d.name]
		}
	}
	if !smoke {
		for _, d := range twelve {
			if m, ok := all[d.name]; ok {
				fmt.Printf("%-22s %14.4f %s\n", d.name, m.Value, m.Unit)
			}
		}
		// The same, for a program to read (--selfcheck does).
		line, err := json.Marshal(all)
		if err != nil {
			return out, r, err
		}
		fmt.Println(allPrefix + string(line))
	}
	return out, r, nil
}

// allPrefix starts the line that holds every metric the workload emitted.
const allPrefix = "# metrics: "

// stopOnSignal makes an interrupted run, or one whose output nobody reads
// any more, take its daemon and its data down with it.
func stopOnSignal(e env) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP, syscall.SIGPIPE)
	go func() {
		<-ch
		if r := e.active.Load(); r != nil {
			r.tearDown()
		}
		os.RemoveAll(e.dataRoot)
		os.Exit(1)
	}()
}

// prepareEnv finds the daemon and picks where database directories go: tmpfs
// when /dev/shm has room, since fsync on a shared virtual disk drifts by a
// third between back-to-back runs, and otherwise a directory of the checkout.
func prepareEnv(bin string) (e env, fallback string, err error) {
	abs, err := filepath.Abs(bin)
	if err != nil {
		return env{}, "", err
	}
	if _, err := os.Stat(abs); err != nil {
		return env{}, "", fmt.Errorf("no chronicled binary at %s (bash benchmark/run.sh builds it): %w", bin, err)
	}
	build, err := filepath.Abs(".bench_build")
	if err != nil {
		return env{}, "", err
	}
	e = env{chronicled: abs, logDir: filepath.Join(build, "logs"), active: new(atomic.Pointer[run])}
	if err := os.MkdirAll(e.logDir, 0o755); err != nil {
		return env{}, "", err
	}
	e.dataRoot, fallback, err = dataRoot(build)
	return e, fallback, err
}

// dataRoot makes the directory database directories go under: on tmpfs when
// /dev/shm has room, and otherwise under fallbackParent, with a line saying
// so.
func dataRoot(fallbackParent string) (dir, fallback string, err error) {
	const need = 1 << 30
	var st syscall.Statfs_t
	if err := syscall.Statfs("/dev/shm", &st); err == nil && st.Type == tmpfsMagic && uint64(st.Bavail)*uint64(st.Bsize) >= need {
		if dir, err := os.MkdirTemp("/dev/shm", "chronicledb-bench-"); err == nil {
			return dir, "", nil
		}
	}
	dir, err = os.MkdirTemp(fallbackParent, "data-")
	return dir, "/dev/shm is not a tmpfs with 1 GiB free; database directories fall back to " + dir, err
}

const tmpfsMagic = 0x01021994

func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case tmpfsMagic:
		return "tmpfs"
	case 0xEF53:
		return "ext2/3/4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("fs type %#x", st.Type)
}

// printHeader prints the host fingerprint and the run's fixed parameters:
// two outputs are comparable only when these lines agree.
func printHeader(sp *spec, e env, fallback string, seed int64, seconds float64) {
	fmt.Printf("# chronicledb benchmark: workload %s, seed %d, seconds %g (counts scaled by %g)\n", sp.name, seed, seconds, seconds/refSeconds)
	fmt.Printf("# host: %s; nproc %d; GOMAXPROCS %d; %s; commit %s\n", cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), buildCommit)
	if sp.served {
		fmt.Printf("# data: %s (%s); flush policy: %s\n", e.dataRoot, fsName(e.dataRoot), flushPolicy)
		if fallback != "" {
			fmt.Println("#", fallback)
		}
	}
	host := "chronicledb.Open(Options{}) in this process, memory only"
	if sp.served {
		host = "chronicled " + strings.Join(sp.flags, " ")
	}
	fmt.Printf("# database: %s; %d views; %d rows per append\n", host, len(sp.views()), sp.batch)
	fmt.Printf("# keys: Zipf(%g) over %d accounts; set-ups per run: %d\n", zipfS, sp.accounts, sp.setups)
	if o := sp.open; o != nil {
		fmt.Printf("# frozen schedule at %ds: open loop %gs at %d appends/s, %d lookups/s\n", refSeconds, o.seconds, o.appendsPerS, o.lookupsPerS)
	} else {
		fmt.Printf("# frozen counts at %ds: %d appends, %d lookups, %d latest, each after a tenth as many as warm-up\n", refSeconds, sp.appends, sp.lookups, sp.latests)
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown CPU"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown CPU"
}

// buildCommit is the revision the binary was built from; run.sh sets it.
var buildCommit = "unknown"
