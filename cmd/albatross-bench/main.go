// Command albatross-bench regenerates the tables and figures of the
// Albatross paper's evaluation (§6) on the simulation substrate and checks
// each result's shape against the paper.
//
// Usage:
//
//	albatross-bench                  # run every experiment at full scale
//	albatross-bench -quick           # reduced scale (seconds, not minutes)
//	albatross-bench -exp fig8,tab3
//	albatross-bench -parallel 4      # worker-pool over independent experiments
//	albatross-bench -cpuprofile cpu.prof -exp fig4   # where the host time went
//	albatross-bench -list
//
// Experiments run concurrently across -parallel workers (default: all
// CPUs); each owns its own engine and seeded generator, and results print
// in the same order regardless of parallelism, so stdout is byte-identical
// to a serial run. Per-experiment timings go to stderr (they are the only
// run-dependent output). The process exits nonzero if any shape check
// fails.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"albatross/internal/eval"
)

func main() {
	var (
		expFlag  = flag.String("exp", "all", "comma-separated experiment IDs, or 'all'")
		quick    = flag.Bool("quick", false, "reduced scale for fast runs")
		seed     = flag.Uint64("seed", 1, "simulation seed")
		list     = flag.Bool("list", false, "list experiments and exit")
		parallel = flag.Int("parallel", runtime.NumCPU(), "experiment worker-pool size")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the experiment runs to this file (go tool pprof)")
	)
	flag.Parse()

	if *list {
		for _, e := range eval.Experiments() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return
	}

	var selected []eval.Experiment
	if *expFlag == "all" {
		selected = eval.Experiments()
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			id = strings.TrimSpace(id)
			e, ok := eval.Find(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	cfg := eval.Config{Seed: *seed, Quick: *quick}
	var profile *os.File
	if *cpuProf != "" {
		var err error
		if profile, err = os.Create(*cpuProf); err == nil {
			err = pprof.StartCPUProfile(profile)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "-cpuprofile: %v\n", err)
			os.Exit(2)
		}
	}
	start := time.Now()
	recs := eval.RunAll(selected, cfg, *parallel)
	total := time.Since(start)
	if profile != nil {
		pprof.StopCPUProfile()
		if err := profile.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *cpuProf, err)
			os.Exit(2)
		}
	}

	failed := 0
	for _, rec := range recs {
		fmt.Println(rec.Result)
		fmt.Fprintf(os.Stderr, "(%s in %v)\n\n", rec.Exp.ID, rec.Wall.Round(time.Millisecond))
		if !rec.Result.Passed() {
			failed++
		}
	}
	fmt.Fprintf(os.Stderr, "total wall time %v with %d worker(s)\n", total.Round(time.Millisecond), *parallel)

	if failed > 0 {
		fmt.Fprintf(os.Stderr, "%d experiment(s) failed shape checks\n", failed)
		os.Exit(1)
	}
	fmt.Printf("all %d experiments passed their shape checks\n", len(selected))
}
