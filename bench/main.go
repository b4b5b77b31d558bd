// Command bench is the repository benchmark declared by BENCHMARK.json.
//
// One run — one workload, one seed, traced or not:
//
//	go run ./bench --workload node-perpkt --seed 1 --seconds 15 --trace 0
//
// prints every metric by name and unit, and as its last line one JSON
// object with the keys correct, attempted, failed and metrics. Without
// --workload it runs a set (every workload, several rounds, one child
// process per run) and writes a result file; -compare A.json B.json applies
// the declared bounds to two result files. See bench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

func main() { os.Exit(mainCode(os.Args[1:], os.Stdout, os.Stderr)) }

func mainCode(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload in this process (empty: run a set)")
	seed := fs.Uint64("seed", 1, "workload seed: flows, index and Zipf draws, source and node seeds")
	seconds := fs.Float64("seconds", 15, "host seconds the measured phase lasts")
	trace := fs.Int("trace", 0, "1: traced round, print the per-layer metrics instead of the end-to-end ones")
	smoke := fs.Bool("smoke", false, "tiny scale for the tier-1 smoke test")
	rounds := fs.Int("rounds", 3, "set: rounds, each running every workload once in list order")
	out := fs.String("o", "", "set: result file (default bench/out/set-seed<n>.json)")
	compare := fs.Bool("compare", false, "compare two result files: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: --trace takes 0 or 1")
		return 2
	}

	o := runOpts{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, smoke: *smoke}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case *workload != "":
		return runAndPrint(o, stdout, stderr)
	default:
		return runSet(setOpts{runOpts: o, rounds: *rounds, out: *out}, stdout, stderr)
	}
}

// runAndPrint executes one run in this process and prints it: a line per
// metric, a "detail" line for set mode, and the contract's JSON line last.
func runAndPrint(o runOpts, stdout, stderr io.Writer) int {
	res, spans, err := runOnce(o)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if o.trace {
		dir, err := benchDir()
		if err == nil {
			var path string
			if path, err = spans.write(dir, o.workload); err == nil {
				fmt.Fprintf(stdout, "spans %d written to %s\n", len(spans.Spans), path)
			}
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench: writing spans:", err)
			return 1
		}
	}
	printResult(res, stdout)
	for _, e := range res.Detail.Errors {
		fmt.Fprintln(stderr, "bench: INCORRECT:", e)
	}
	return 0
}

func printResult(res *result, w io.Writer) {
	d := res.Detail
	fmt.Fprintf(w, "workload %s seed %d traced %v: %d blocks, %d packets, %.3f s measured\n",
		d.Workload, d.Seed, d.Traced, d.Blocks, d.Packets, d.WallS)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "%-36s %16.6f %s\n", name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "%-36s p10 %.1f p50 %.1f p90 %.1f ns\n", "ns_per_pkt of the blocks", d.P10, d.P50, d.P90)
	fmt.Fprintf(w, "%-36s %16.6f count\n", "allocs_per_pkt", d.AllocsPerPkt)
	fmt.Fprintf(w, "%-36s %16.6f ratio (%d of %d operations)\n", "fail_share", d.FailShare, res.Failed, res.Attempted)
	fmt.Fprintf(w, "%-36s %16s\n", "sim_digest", d.SimDigest)
	dj, _ := json.Marshal(d)
	fmt.Fprintf(w, "detail %s\n", dj)
	rj, _ := json.Marshal(res)
	fmt.Fprintf(w, "%s\n", rj)
}
