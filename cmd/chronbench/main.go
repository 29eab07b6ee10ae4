// Command chronbench runs the experiment suite that reproduces the
// chronicle paper's quantitative claims (DESIGN.md experiments E1–E13) and
// prints one measured table per experiment.
//
// Usage:
//
//	chronbench            # full sweeps (minutes)
//	chronbench -quick     # reduced sweeps (seconds)
//	chronbench -run E1,E4 # selected experiments
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"chronicledb/internal/bench"
)

func main() {
	var (
		quick      = flag.Bool("quick", false, "reduced sweep sizes")
		run        = flag.String("run", "", "comma-separated experiment IDs (default: all)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
		memProfile = flag.String("memprofile", "", "write an allocation profile (after the run) to this file")
	)
	flag.Parse()

	stopProfiles := startProfiles(*cpuProfile, *memProfile)

	selected := map[string]bool{}
	for _, id := range strings.Split(*run, ",") {
		if id = strings.TrimSpace(strings.ToUpper(id)); id != "" {
			selected[id] = true
		}
	}

	cfg := bench.Config{Quick: *quick}
	fmt.Printf("chronbench — chronicle data model experiment suite (quick=%v)\n", *quick)
	fmt.Printf("paper: Jagadish, Mumick, Silberschatz — View Maintenance Issues for the Chronicle Data Model, PODS 1995\n\n")

	failed := 0
	for _, exp := range bench.All() {
		if len(selected) > 0 && !selected[exp.ID] {
			continue
		}
		start := time.Now()
		tbl, err := exp.Run(cfg)
		if err != nil {
			log.Printf("%s failed: %v", exp.ID, err)
			failed++
			continue
		}
		fmt.Print(tbl.Format())
		fmt.Printf("  (%s in %.1fs)\n\n", exp.ID, time.Since(start).Seconds())
	}
	stopProfiles()
	if failed > 0 {
		os.Exit(1)
	}
}

// startProfiles starts the requested pprof captures and returns the
// finalizer that flushes them. It is called before the experiments and the
// finalizer is invoked explicitly (not deferred) because a failed run exits
// through os.Exit.
func startProfiles(cpuPath, memPath string) func() {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			log.Fatalf("-cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("-cpuprofile: %v", err)
		}
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				log.Printf("-memprofile: %v", err)
				return
			}
			defer f.Close()
			runtime.GC() // flush final allocation stats into the profile
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				log.Printf("-memprofile: %v", err)
			}
		}
	}
}
