package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"albatross/internal/errs"
	"albatross/internal/sim"
)

// crashDrillDoc is a NodeCrash drill with timeline sampling; the converge
// window is generous: BFD withdraws the route within its 200ms detection
// window, after which the survivors restore availability.
const crashDrillDoc = `
name: converge-drill
seed: 1
duration: 300ms
drain: 5ms
fleet:
  nodes: 3
  shards: 1
workload:
  flows: 2000
  tenants: 40
  rate: 3e5
events:
  - at: 20ms
    action: inject_failure
    fault: node-crash
    node: 1
    duration: 400ms
observability:
  snapshot_every: 10ms
assertions:
  - type: converge
    series: availability
    within: 250ms
    tolerance: 0.05
  - type: window_max
    series: albatross_cluster_switch_drops_total
    max_value: 0
`

func TestConvergeAssertionPasses(t *testing.T) {
	s, err := Load([]byte(crashDrillDoc))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if s.Observability.SnapshotEvery != 10*sim.Millisecond {
		t.Fatalf("snapshot_every = %v", s.Observability.SnapshotEvery)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.OK() {
		t.Fatalf("converge drill failed:\n%s", res.Report)
	}
	if !strings.Contains(res.Report, "series      every=10ms ticks=") {
		t.Fatalf("report missing series fingerprint line:\n%s", res.Report)
	}
	if !strings.Contains(res.Outcome, "series/fnv64a | ") {
		t.Fatalf("outcome missing series checksum line:\n%s", res.Outcome)
	}
}

// TestConvergeAssertionFailsOnTightWindow is the acceptance-criterion
// proof: the same drill must FAIL when the declared window is shorter than
// the BFD detection time, so a gameday drill really does gate on recovery
// trajectory, not just end state.
func TestConvergeAssertionFailsOnTightWindow(t *testing.T) {
	s, err := Load([]byte(crashDrillDoc))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	s.Assertions = []Assertion{{
		Type: "converge", Series: "availability",
		Within:    10 * sim.Millisecond, // far inside the 200ms BFD window
		Tolerance: 0.05,
	}}
	res, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.OK() {
		t.Fatalf("impossibly tight converge window passed:\n%s", res.Report)
	}
	if res.Failed != 1 {
		t.Fatalf("failed = %d, want 1:\n%s", res.Failed, res.Report)
	}
}

func TestWindowMaxFailsOnExceededCeiling(t *testing.T) {
	s, err := Load([]byte(crashDrillDoc))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	// Blackholed packets definitely appear during the detection window:
	// a zero ceiling over that window must fail.
	s.Assertions = []Assertion{{
		Type: "window_max", Series: "albatross_cluster_blackholed_packets_total",
		From: 20 * sim.Millisecond, To: 250 * sim.Millisecond, MaxValue: 0,
	}}
	res, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.OK() {
		t.Fatalf("window_max with zero ceiling over the blackhole window passed:\n%s", res.Report)
	}
}

func TestSeriesOutWritesExports(t *testing.T) {
	s, err := Load([]byte(crashDrillDoc))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	dir := t.TempDir()
	prefix := filepath.Join(dir, "series")
	s.Observability.SeriesOut = prefix
	if _, err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	csv, err := os.ReadFile(prefix + ".csv")
	if err != nil {
		t.Fatalf("series CSV not written: %v", err)
	}
	if !strings.HasPrefix(string(csv), "t_ms,") || !strings.Contains(string(csv), "availability") {
		t.Fatalf("series CSV malformed:\n%s", string(csv)[:120])
	}
	if _, err := os.ReadFile(prefix + ".json"); err != nil {
		t.Fatalf("series JSON not written: %v", err)
	}

	// Repeat run: the exported files are byte-identical.
	prefix2 := filepath.Join(dir, "series2")
	s.Observability.SeriesOut = prefix2
	if _, err := s.Run(); err != nil {
		t.Fatalf("Run 2: %v", err)
	}
	csv2, err := os.ReadFile(prefix2 + ".csv")
	if err != nil {
		t.Fatal(err)
	}
	if string(csv) != string(csv2) {
		t.Fatal("series CSV differs across repeat runs")
	}
}

func TestTimelineDecodeAndValidateRejects(t *testing.T) {
	base := `
name: x
duration: 10ms
fleet:
  nodes: 2
workload:
  flows: 100
  tenants: 5
  rate: 1e5
`
	cases := []struct {
		name, doc, want string
	}{
		{"converge without snapshot_every", base + `
events:
  - at: 2ms
    action: drain
    node: 0
assertions:
  - type: converge
    series: availability
    within: 5ms
`, "requires observability.snapshot_every"},
		{"converge without events", base + `
observability:
  snapshot_every: 1ms
assertions:
  - type: converge
    series: availability
    within: 5ms
`, "at least one event"},
		{"converge missing series", base + `
observability:
  snapshot_every: 1ms
assertions:
  - type: converge
    within: 5ms
`, "needs a \"series\""},
		{"converge missing within", base + `
observability:
  snapshot_every: 1ms
assertions:
  - type: converge
    series: availability
`, "needs a \"within\""},
		{"window_max missing max_value", base + `
observability:
  snapshot_every: 1ms
assertions:
  - type: window_max
    series: availability
`, "needs a \"max_value\""},
		{"window_max empty window", base + `
observability:
  snapshot_every: 1ms
assertions:
  - type: window_max
    series: availability
    from: 5ms
    to: 2ms
    max_value: 1
`, "window [from,to] is empty"},
		{"series_out without snapshot_every", base + `
observability:
  series_out: /tmp/x
`, "series_out requires snapshot_every"},
		{"negative snapshot_every", base + `
observability:
  snapshot_every: -1ms
`, "negative duration"},
	}
	for _, tc := range cases {
		_, err := Load([]byte(tc.doc))
		if err == nil {
			t.Errorf("%s: Load accepted the document", tc.name)
			continue
		}
		if !errors.Is(err, errs.BadConfig) {
			t.Errorf("%s: error does not wrap BadConfig: %v", tc.name, err)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestUnknownSeriesFailsDeterministically pins the miss path: a converge
// assertion naming a nonexistent column fails (not errors) with the
// available keys listed.
func TestUnknownSeriesFailsDeterministically(t *testing.T) {
	s, err := Load([]byte(crashDrillDoc))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	s.Assertions = []Assertion{{
		Type: "converge", Series: "nope", Within: 100 * sim.Millisecond, Tolerance: 0.05,
	}}
	res, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.OK() {
		t.Fatal("unknown series passed")
	}
	if !strings.Contains(res.Checks[0].Detail, `unknown series "nope"`) ||
		!strings.Contains(res.Checks[0].Detail, "availability") {
		t.Fatalf("detail not helpful: %s", res.Checks[0].Detail)
	}
}

// TestTraceDumpSamplesOneIn64: a run that dumps journeys flight-records
// every 64th packet a pod receives, one that does not every 1024th, and the
// dump holds the journeys the recorders committed (here ACL drops).
func TestTraceDumpSamplesOneIn64(t *testing.T) {
	doc := "name: dump\nduration: 20ms\nworkload:\n  flows: 500\n  rate: 1e6\n  acl_denied: 0.2\n"
	flight := func(dump string) (rx, sampled uint64) {
		s, err := Load([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		s.Observability.TraceDump = dump
		s.Observability.OutcomeOut = filepath.Join(t.TempDir(), "outcome.txt")
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		out, err := os.ReadFile(s.Observability.OutcomeOut)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(out), "\n") {
			if v, ok := strings.CutPrefix(line, "node0/traffic | "); ok {
				if _, err := fmt.Sscanf(v, "ecmp-rx=%d rx=%d", new(uint64), &rx); err != nil {
					t.Fatalf("%q: %v", line, err)
				}
			}
			if v, ok := strings.CutPrefix(line, "node0/flight | "); ok {
				if _, err := fmt.Sscanf(v, "sampled=%d", &sampled); err != nil {
					t.Fatalf("%q: %v", line, err)
				}
			}
		}
		return rx, sampled
	}
	if rx, sampled := flight(""); rx == 0 || sampled != rx/1024 {
		t.Fatalf("without a dump: %d of %d packets sampled, want 1 in 1024", sampled, rx)
	}
	prefix := filepath.Join(t.TempDir(), "gw")
	if rx, sampled := flight(prefix); rx == 0 || sampled != rx/64 {
		t.Fatalf("with a dump: %d of %d packets sampled, want 1 in 64", sampled, rx)
	}
	data, err := os.ReadFile(prefix + ".journeys.json")
	if err != nil {
		t.Fatal(err)
	}
	var js []struct{ Reason string }
	if err := json.Unmarshal(data, &js); err != nil {
		t.Fatal(err)
	}
	if len(js) == 0 || js[0].Reason != "dropped" {
		t.Fatalf("dump holds %d journeys (first %+v), want the committed drops", len(js), js)
	}
}
