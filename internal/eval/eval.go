// Package eval contains one driver per table and figure of the paper's
// evaluation (§6) plus the ablations called out in DESIGN.md. Each driver
// runs a scaled scenario on the simulation substrate, prints the same rows
// or series the paper reports, and self-checks the *shape* of the result
// (who wins, by roughly what factor, where crossovers fall).
package eval

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"albatross/internal/stats"
)

// Config controls experiment scale.
type Config struct {
	Seed uint64
	// Quick shrinks scenarios for CI/test runs; the full scale is used by
	// cmd/albatross-bench.
	Quick bool
}

// Check is one shape assertion against the paper.
type Check struct {
	Name   string
	OK     bool
	Detail string
}

// Result is an experiment's output.
type Result struct {
	ID    string
	Title string
	// Table is the regenerated table/series.
	Table *stats.Table
	// Extras are additional tables (e.g. a per-stage latency breakdown
	// accompanying the headline figure), rendered after Table.
	Extras []*stats.Table
	// Notes carry free-form observations (paper-vs-measured commentary).
	Notes []string
	// Checks are the shape assertions.
	Checks []Check
}

// Passed reports whether every check held.
func (r *Result) Passed() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

func (r *Result) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, Check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

func (r *Result) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// String renders the full report.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	if r.Table != nil {
		b.WriteString(r.Table.String())
	}
	for _, t := range r.Extras {
		b.WriteByte('\n')
		b.WriteString(t.String())
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	for _, c := range r.Checks {
		status := "PASS"
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(&b, "check [%s] %s: %s\n", status, c.Name, c.Detail)
	}
	return b.String()
}

// Experiment is a registered driver.
type Experiment struct {
	ID    string
	Title string
	Run   func(Config) *Result
}

var registry []Experiment

func register(id, title string, run func(Config) *Result) {
	registry = append(registry, Experiment{ID: id, Title: title, Run: run})
}

// Experiments returns all registered experiments sorted by ID.
func Experiments() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunRecord pairs an experiment with its result and wall-clock cost.
type RunRecord struct {
	Exp    Experiment
	Result *Result
	Wall   time.Duration
}

// RunAll executes exps across up to `parallelism` worker goroutines and
// returns records in the order the experiments were given, so a caller
// printing Result strings in slice order emits byte-identical output for
// any parallelism.
//
// Determinism contract: each driver builds its own Engine and seeded Rand
// from cfg and shares nothing mutable, so experiments are independent and
// safe to run concurrently. Parallelism lives only here in the harness;
// a single engine is never driven from more than one goroutine.
func RunAll(exps []Experiment, cfg Config, parallelism int) []RunRecord {
	recs := make([]RunRecord, len(exps))
	if parallelism < 1 {
		parallelism = 1
	}
	if parallelism > len(exps) {
		parallelism = len(exps)
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= len(exps) {
					return
				}
				start := time.Now()
				r := exps[i].Run(cfg)
				recs[i] = RunRecord{Exp: exps[i], Result: r, Wall: time.Since(start)}
			}
		}()
	}
	wg.Wait()
	return recs
}
