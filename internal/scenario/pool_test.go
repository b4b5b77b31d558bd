package scenario

import (
	"errors"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// TestByteIdentityVerdictKeepsDeclarationOrder feeds the compare step
// fabricated re-executions: the first failure in declaration order
// (repeat runs, then shard counts) decides the detail, with the text the
// serial loop wrote.
func TestByteIdentityVerdictKeepsDeclarationOrder(t *testing.T) {
	a := Assertion{Type: "byte_identity", Runs: 3, Shards: []int{2, 4}}
	const doc = "abcd"
	ok := identityRun{doc: doc}
	boom := identityRun{err: errors.New("boom")}
	diverged := identityRun{doc: "abc"}
	cases := []struct {
		name   string
		runs   []identityRun
		ok     bool
		detail string
	}{
		{"all-equal", []identityRun{ok, ok, ok, ok}, true,
			"3 run(s) and shard counts [2 4] byte-identical (outcome 4 bytes)"},
		{"repeat-errored", []identityRun{ok, boom, diverged, ok}, false,
			"repeat run 2 failed: boom"},
		{"repeat-diverged", []identityRun{diverged, boom, ok, boom}, false,
			"repeat run 1 outcome diverged (3 vs 4 bytes)"},
		{"shards-errored", []identityRun{ok, ok, ok, boom}, false,
			"shards=4 run failed: boom"},
		{"shards-diverged", []identityRun{ok, ok, diverged, boom}, false,
			"shards=2 outcome diverged (3 vs 4 bytes)"},
	}
	for _, c := range cases {
		gotOK, detail := byteIdentityVerdict(a, doc, c.runs)
		if gotOK != c.ok || detail != c.detail {
			t.Errorf("%s: got (%v, %q), want (%v, %q)", c.name, gotOK, detail, c.ok, c.detail)
		}
	}
}

func TestReplayIdentityVerdict(t *testing.T) {
	const doc = "abcd"
	cases := []struct {
		recorded int
		run      identityRun
		ok       bool
		detail   string
	}{
		{-1, identityRun{}, false, "no recorded trace (internal error)"},
		{5, identityRun{err: errors.New("boom")}, false, "replay run failed: boom"},
		{5, identityRun{doc: doc, replayed: 4}, false,
			"replay injected 4 of 5 recorded events (raise duration)"},
		{5, identityRun{doc: "abc", replayed: 5}, false,
			"replayed outcome diverged from live run (3 vs 4 bytes)"},
		{5, identityRun{doc: doc, replayed: 5}, true,
			"replayed 5 recorded events, outcome byte-identical (4 bytes)"},
	}
	for _, c := range cases {
		ok, detail := replayIdentityVerdict(doc, c.recorded, c.run)
		if ok != c.ok || detail != c.detail {
			t.Errorf("recorded %d, run %+v: got (%v, %q), want (%v, %q)",
				c.recorded, c.run, ok, detail, c.ok, c.detail)
		}
	}
}

// TestPoolResultsIgnoreFinishOrder runs three jobs that finish in reverse
// order (each waits for the next to finish) and checks the verdict still
// reads them in declaration order.
func TestPoolResultsIgnoreFinishOrder(t *testing.T) {
	p := newPool(4)
	runs := make([]identityRun, 3)
	fabricated := []identityRun{{doc: "abc"}, {err: errors.New("boom")}, {doc: "abcd"}}
	done := []chan struct{}{make(chan struct{}), make(chan struct{}), make(chan struct{})}
	var mu sync.Mutex
	var finished []int
	for j := range runs {
		p.add(true, func() {
			if j+1 < len(done) {
				<-done[j+1]
			}
			runs[j] = fabricated[j]
			mu.Lock()
			finished = append(finished, j)
			mu.Unlock()
			close(done[j])
		})
	}
	p.release()
	p.wait()
	if want := []int{2, 1, 0}; !slices.Equal(finished, want) {
		t.Fatalf("finish order %v, want %v", finished, want)
	}
	a := Assertion{Type: "byte_identity", Runs: 2, Shards: []int{1, 4}}
	ok, detail := byteIdentityVerdict(a, "abcd", runs)
	if want := "repeat run 1 outcome diverged (3 vs 4 bytes)"; ok || detail != want {
		t.Fatalf("got (%v, %q), want (false, %q)", ok, detail, want)
	}
}

// TestPoolStartsReadyJobsInAddOrder: with one slot nothing runs while the
// caller holds it; afterwards the jobs run one at a time, a job added
// unready taking its add-order place once marked ready.
func TestPoolStartsReadyJobsInAddOrder(t *testing.T) {
	p := newPool(1)
	var order []int // one slot: jobs never overlap
	j0 := p.add(false, func() { order = append(order, 0) })
	p.add(true, func() { order = append(order, 1) })
	p.add(true, func() { order = append(order, 2) })
	p.markReady(j0)
	p.release()
	p.wait()
	if want := []int{0, 1, 2}; !slices.Equal(order, want) {
		t.Fatalf("run order %v, want %v", order, want)
	}
}

// TestFailedRunLeavesNoExecution: an unwritable outcome_out fails the
// primary's artifacts while byte_identity re-executions are in flight;
// Run must return the error only after every execution it started has
// returned. With two slots the first re-execution, which skips the
// primary's report, finishes first and frees its slot to the next, so
// one is still early in its run when the primary fails.
func TestFailedRunLeavesNoExecution(t *testing.T) {
	s, err := Load([]byte(`
name: unwritable
duration: 20ms
fleet:
  nodes: 2
workload:
  flows: 1000
  tenants: 20
  rate: 4e5
observability:
  report: true
assertions:
  - type: byte_identity
    runs: 4
    shards: [1, 2]
`))
	if err != nil {
		t.Fatal(err)
	}
	s.Observability.OutcomeOut = filepath.Join(t.TempDir(), "missing", "outcome.txt")
	// Which execution is in flight at the failure depends on scheduling,
	// so each slot count is tried a few times.
	for _, procs := range []int{1, 2, 2, 2, 4, 4, 4} {
		prev := runtime.GOMAXPROCS(procs)
		base := runtime.NumGoroutine()
		res, err := s.Run()
		runtime.GOMAXPROCS(prev)
		if err == nil || res != nil {
			t.Fatalf("GOMAXPROCS=%d: Run = (%v, %v), want an error", procs, res, err)
		}
		// A job's goroutine returns just after its wg.Done; give it that
		// instant, far less than one re-execution takes.
		deadline := time.Now().Add(5 * time.Millisecond)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("GOMAXPROCS=%d: %d goroutines after Run, %d before", procs, n, base)
		}
	}
}

// TestRunIndependentOfParallelism: the report and outcome of the drills
// that hold both identity kinds and a reconciler are byte-identical with
// one slot (every execution in turn) and with four (fleets concurrent).
func TestRunIndependentOfParallelism(t *testing.T) {
	for _, name := range []string{"record-replay", "reconcile-canary"} {
		s, err := LoadFile(filepath.Join("..", "..", "scenarios", name+".yaml"))
		if err != nil {
			t.Fatal(err)
		}
		var got [2]*Result
		for i, procs := range []int{1, 4} {
			prev := runtime.GOMAXPROCS(procs)
			got[i], err = s.Run()
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatalf("%s at GOMAXPROCS=%d: %v", name, procs, err)
			}
		}
		if !got[0].OK() {
			t.Errorf("%s failed:\n%s", name, got[0].Report)
		}
		if got[0].Report != got[1].Report {
			t.Errorf("%s: report differs between GOMAXPROCS 1 and 4:\n%s\n---\n%s", name, got[0].Report, got[1].Report)
		}
		if got[0].Outcome != got[1].Outcome {
			t.Errorf("%s: outcome differs between GOMAXPROCS 1 and 4", name)
		}
	}
}
