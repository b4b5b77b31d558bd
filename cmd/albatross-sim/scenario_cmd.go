package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"time"

	"albatross"
)

// newFlagSet returns a subcommand FlagSet that reports parse errors and the
// given usage text (followed by the flag defaults, if any) on stderr.
func newFlagSet(name string, stderr io.Writer, usage string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintln(stderr, usage)
		fs.PrintDefaults()
	}
	return fs
}

// parseExit maps a FlagSet.Parse error to the exit code: asking for -h is
// not a mistake, anything else is a bad command line.
func parseExit(err error) int {
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	return 2
}

// fail reports err on stderr and returns the failure exit code.
func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, err)
	return 1
}

// startCPUProfile starts a CPU profile into path and returns the function
// that stops it and closes the file. An empty path profiles nothing.
func startCPUProfile(path string) (stop func() error, err error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// runCmd implements `albatross-sim run [overrides] scenario.yaml`: load,
// apply flag overrides, execute, print the deterministic report, and return
// 1 when the file does not load or an assertion fails. An unset flag keeps
// the scenario file's value; an override that makes the scenario invalid is
// a bad command line and returns 2.
// -cpuprofile is not an override: it profiles the host while the scenario
// runs, prints nothing, and returns 2 when the file cannot be written.
func runCmd(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("run", stderr, "usage: albatross-sim run [overrides] scenario.yaml\n\n"+
		"Overrides (unset flags keep the scenario file's values):")
	var (
		seed     = fs.Uint64("seed", 0, "override scenario seed")
		nodes    = fs.Int("nodes", 0, "override fleet.nodes")
		shards   = fs.Int("shards", 0, "override fleet.shards, the workers that advance the members' engines (0 = auto; report stays byte-identical at any value)")
		flows    = fs.Int("flows", 0, "override workload.flows")
		rate     = fs.Float64("rate", 0, "override workload.rate (packets/second)")
		duration = fs.Duration("duration", 0, "override scenario duration")
		cacheMB  = fs.Int("cache-mb", 0, "override fleet.cache_mb")
		backend  = fs.String("backend", "", "override fleet.backend (session)")
		burst    = fs.Int("burst", 0, "override fleet.burst (dispatch batch size; changes event counts only)")
		report   = fs.Bool("report", false, "override observability.report (print the full cluster report)")
		metrics  = fs.String("metrics-out", "", "override observability.metrics_out")
		outcome  = fs.String("outcome-out", "", "override observability.outcome_out")
		record   = fs.String("record", "", "override observability.record")
		dump     = fs.String("trace-dump", "", "override observability.trace_dump")
		replay   = fs.String("replay", "", "override workload.replay (trace file to replay)")
		snapshot = fs.Duration("snapshot-every", 0, "override observability.snapshot_every (timeline sampling period)")
		series   = fs.String("series-out", "", "override observability.series_out (write timeline to PREFIX.csv and PREFIX.json)")
		cpuProf  = fs.String("cpuprofile", "", "not an override: write a CPU profile of the run to this file (go tool pprof)")
	)
	if err := fs.Parse(args); err != nil {
		return parseExit(err)
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}

	s, err := albatross.LoadScenarioFile(fs.Arg(0))
	if err != nil {
		return fail(stderr, err)
	}
	var ov albatross.ScenarioOverrides
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "seed":
			ov.Seed = seed
		case "nodes":
			ov.Nodes = nodes
		case "shards":
			ov.Shards = shards
		case "flows":
			ov.Flows = flows
		case "rate":
			ov.Rate = rate
		case "duration":
			d := albatross.Duration(duration.Nanoseconds())
			ov.Duration = &d
		case "cache-mb":
			ov.CacheMB = cacheMB
		case "backend":
			ov.Backend = backend
		case "burst":
			ov.Burst = burst
		case "report":
			ov.Report = report
		case "metrics-out":
			ov.MetricsOut = metrics
		case "outcome-out":
			ov.OutcomeOut = outcome
		case "record":
			ov.Record = record
		case "trace-dump":
			ov.TraceDump = dump
		case "replay":
			ov.Replay = replay
		case "snapshot-every":
			d := albatross.Duration(snapshot.Nanoseconds())
			ov.SnapshotEvery = &d
		case "series-out":
			ov.SeriesOut = series
		}
	})

	s = s.Apply(ov)
	if err := s.Validate(); err != nil {
		fmt.Fprintln(stderr, err)
		fs.Usage()
		return 2
	}

	stopProfile, err := startCPUProfile(*cpuProf)
	if err != nil {
		fmt.Fprintf(stderr, "-cpuprofile: %v\n", err)
		fs.Usage()
		return 2
	}
	wall := time.Now()
	res, err := s.Run()
	if perr := stopProfile(); perr != nil {
		fmt.Fprintf(stderr, "-cpuprofile: %v\n", perr)
		return 2
	}
	if err != nil {
		return fail(stderr, err)
	}
	return printResult(res, wall, stdout, stderr)
}

// printResult writes a finished run's report and returns its exit code. The
// report is the entire stdout: byte-identical across repeat runs and shard
// counts. Wall time goes to stderr.
func printResult(res *albatross.ScenarioResult, wall time.Time, stdout, stderr io.Writer) int {
	fmt.Fprint(stdout, res.Report)
	fmt.Fprintf(stderr, "  wall time   %v\n", time.Since(wall).Round(time.Millisecond))
	if !res.OK() {
		return 1
	}
	return 0
}

// validateCmd implements `albatross-sim validate scenario.yaml...`:
// load-check every file, report per-file verdicts, return 1 on any failure.
func validateCmd(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("validate", stderr, "usage: albatross-sim validate scenario.yaml...")
	if err := fs.Parse(args); err != nil {
		return parseExit(err)
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}
	bad := 0
	for _, path := range fs.Args() {
		s, err := albatross.LoadScenarioFile(path)
		if err != nil {
			fmt.Fprintf(stdout, "%s: INVALID\n  %v\n", path, err)
			bad++
			continue
		}
		fmt.Fprintf(stdout, "%s: OK (%s: %d node(s), %d event(s), %d assertion(s))\n",
			path, s.Name, s.Fleet.Nodes, len(s.Events), len(s.Assertions))
	}
	if bad > 0 {
		return 1
	}
	return 0
}

// replayDiffCmd implements `albatross-sim replay-diff [-shards N] A B`: load
// two outcome reports (written by run -outcome-out), print their structural
// diff, and return 1 when they differ — the gameday-drill assertion as a
// shell one-liner.
func replayDiffCmd(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("replay-diff", stderr, "usage: albatross-sim replay-diff [-shards N] A B  (outcome reports from run -outcome-out)")
	shards := fs.Int("shards", 0, "label differing node lines with the worker that advanced them in an N-shard run")
	if err := fs.Parse(args); err != nil {
		return parseExit(err)
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	pathA, pathB := fs.Arg(0), fs.Arg(1)
	a, err := os.ReadFile(pathA)
	if err != nil {
		return fail(stderr, err)
	}
	b, err := os.ReadFile(pathB)
	if err != nil {
		return fail(stderr, err)
	}
	d := albatross.DiffOutcomes(pathA, string(a), pathB, string(b))
	d.AnnotateShards(*shards)
	fmt.Fprint(stdout, d.String())
	if !d.Empty() {
		return 1
	}
	return 0
}
