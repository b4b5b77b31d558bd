package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// A set is the repository's own measuring procedure: `rounds` rounds, each
// running every workload once in list order, so a slow spell on the host
// spreads over all workloads instead of landing on one. Every run is its
// own child process — peak_rss_mb and the GC state belong to one workload —
// and children never overlap. A set's value for a metric is the median of
// its rounds.

// setOpts is a run's options (its workload is filled in per child) plus
// the set's own.
type setOpts struct {
	runOpts
	rounds int
	out    string
}

// provenance says where and from what a result file was measured.
type provenance struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitCommit  string `json:"git_commit"`
	GitDirty   bool   `json:"git_dirty"`
	Started    string `json:"started"`
}

// setRun is one child's result.
type setRun struct {
	Round     int                    `json:"round"`
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Detail    detail                 `json:"detail"`
}

// summaryRow is one (workload, metric) over the set's rounds.
type summaryRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Median   float64   `json:"median"`
	Q1       float64   `json:"q1"`
	Q3       float64   `json:"q3"`
	Values   []float64 `json:"values"`
}

// setFile is a result file, as committed under bench/results/.
type setFile struct {
	Provenance provenance   `json:"provenance"`
	Seed       uint64       `json:"seed"`
	Rounds     int          `json:"rounds"`
	Seconds    float64      `json:"seconds"`
	Traced     bool         `json:"traced"`
	Smoke      bool         `json:"smoke"`
	Runs       []setRun     `json:"runs"`
	Summary    []summaryRow `json:"summary"`
}

func gatherProvenance(root string) provenance {
	p := provenance{
		CPUModel:   "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitCommit:  "unknown",
		Started:    time.Now().UTC().Format(time.RFC3339),
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
				p.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
		f.Close()
	}
	// Ask git only inside a work tree: a bare checkout has no history.
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			p.GitCommit = strings.TrimSpace(string(out))
		}
		if out, err := exec.Command("git", "-C", root, "status", "--porcelain").Output(); err == nil {
			p.GitDirty = len(bytes.TrimSpace(out)) > 0
		}
	}
	return p
}

// runChild runs one workload in a child process of this same binary and
// parses its detail line and its contract line.
func runChild(self string, o runOpts, stderr io.Writer) (setRun, error) {
	trace := "0"
	if o.trace {
		trace = "1"
	}
	args := []string{"--workload", o.workload, "--seed", fmt.Sprint(o.seed),
		"--seconds", fmt.Sprint(o.seconds), "--trace", trace}
	if o.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return setRun{}, fmt.Errorf("%s: child: %w", o.workload, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var run setRun
	if len(lines) < 2 {
		return run, fmt.Errorf("%s: child printed %d lines", o.workload, len(lines))
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &run); err != nil {
		return run, fmt.Errorf("%s: contract line: %w", o.workload, err)
	}
	dl, ok := strings.CutPrefix(lines[len(lines)-2], "detail ")
	if !ok {
		return run, fmt.Errorf("%s: child printed no detail line", o.workload)
	}
	if err := json.Unmarshal([]byte(dl), &run.Detail); err != nil {
		return run, fmt.Errorf("%s: detail line: %w", o.workload, err)
	}
	return run, nil
}

func runSet(o setOpts, stdout, stderr io.Writer) int {
	dir, err := benchDir()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	file := setFile{
		Provenance: gatherProvenance(filepath.Join(dir, "..")),
		Seed:       o.seed, Rounds: o.rounds, Seconds: o.seconds, Traced: o.trace, Smoke: o.smoke,
	}
	for round := 1; round <= o.rounds; round++ {
		for _, w := range workloads {
			ro := o.runOpts
			ro.workload = w.Name
			run, err := runChild(self, ro, stderr)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			run.Round = round
			file.Runs = append(file.Runs, run)
			fmt.Fprintf(stdout, "round %d %-16s correct=%v digest=%s", round, w.Name, run.Correct, run.Detail.SimDigest)
			for _, m := range endToEnd {
				if v, ok := run.Metrics[m.Name]; ok {
					fmt.Fprintf(stdout, " %s=%.4f%s", m.Name, v.Value, v.Unit)
				}
			}
			fmt.Fprintln(stdout)
		}
	}
	ok := file.checkRounds(stderr)
	file.summarise()

	path := o.out
	if path == "" {
		name := fmt.Sprintf("set-seed%d.json", o.seed)
		if o.trace {
			name = fmt.Sprintf("traced-seed%d.json", o.seed)
		}
		path = filepath.Join(dir, "out", name)
	}
	if err := file.write(path); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s\n", path)
	if !ok {
		return 1
	}
	return 0
}

// checkRounds enforces determinism across a set's rounds: a workload whose
// sim_digest differs between rounds fails all its operations. It reports
// whether every run of the set is correct.
func (f *setFile) checkRounds(stderr io.Writer) bool {
	first := map[string]string{}
	ok := true
	for i := range f.Runs {
		r := &f.Runs[i]
		w := r.Detail.Workload
		if d, seen := first[w]; !seen {
			first[w] = r.Detail.SimDigest
		} else if d != r.Detail.SimDigest {
			fmt.Fprintf(stderr, "bench: %s: sim_digest %s in round %d, %s in round 1\n", w, r.Detail.SimDigest, r.Round, d)
			r.Correct, r.Failed = false, r.Attempted
			r.Detail.FailShare = 1
		}
		if !r.Correct {
			ok = false
		}
	}
	return ok
}

// values returns the set's values of one metric on one workload, by round.
func (f *setFile) values(workload, metric string) (vals []float64, unit string) {
	for _, r := range f.Runs {
		if r.Detail.Workload != workload {
			continue
		}
		if v, ok := r.Metrics[metric]; ok {
			vals = append(vals, v.Value)
			unit = v.Unit
		}
	}
	return vals, unit
}

func (f *setFile) summarise() {
	decls := endToEnd
	if f.Traced {
		decls = perLayer
	}
	f.Summary = nil
	for _, w := range workloads {
		for _, m := range decls {
			vals, unit := f.values(w.Name, m.Name)
			if len(vals) == 0 {
				continue
			}
			q1, q3 := quartiles(vals)
			f.Summary = append(f.Summary, summaryRow{w.Name, m.Name, unit, median(vals), q1, q3, vals})
		}
	}
}

func (f *setFile) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readSetFile(path string) (*setFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f setFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}
