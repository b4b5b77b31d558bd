package scenario

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"albatross/internal/errs"
	"albatross/internal/faults"
	"albatross/internal/pod"
	"albatross/internal/service"
	"albatross/internal/sim"
)

const fullDoc = `
# A full-vocabulary scenario document.
name: kitchen-sink
description: "every section exercised"
seed: 9
duration: 20ms
drain: 3ms

fleet:
  nodes: 3
  shards: 1
  pods: 2
  cores: 4
  ctrl_cores: 2
  service: vpc-internet
  mode: rss
  cache_mb: 8
  queue_depth: 512
  limiter: true
  auto_fallback: true

workload:
  flows: 2000
  tenants: 50
  rate: 4e5
  zipf: 1.1
  seed: 77
  packet_bytes: 512
  deterministic: false
  acl_denied: 0.1

events:
  - at: 5ms
    action: inject_failure
    fault: core-stall
    node: 1
    pod: 0
    core: 2
    factor: 25
    duration: 4ms
  - at: 6ms
    action: drain
    node: 2
    duration: 8ms
  - at: 7ms
    action: flap
    node: 0
    duration: 2ms
  - at: 10ms
    action: ramp
    rate: 1e5

observability:
  trace_sample: 64
  trace_latency_over: 1ms
  trace_vni: 3
  trace_fault_window: true
  report: false

assertions:
  - type: conservation
  - type: max_loss
    fraction: 0.5
  - type: remap_bound
    factor: 2
  - type: detection_window
    margin: 3
  - type: latency
    quantile: 0.99
    max: 10ms
  - type: min_tx
    count: 100
  - type: byte_identity
    runs: 2
    shards: [1, 2]
`

func TestLoadFullDocument(t *testing.T) {
	s, err := Load([]byte(fullDoc))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if s.Name != "kitchen-sink" || s.Seed != 9 {
		t.Errorf("header: name=%q seed=%d", s.Name, s.Seed)
	}
	if s.Duration != 20*sim.Millisecond || s.Drain != 3*sim.Millisecond {
		t.Errorf("times: duration=%v drain=%v", s.Duration, s.Drain)
	}
	f := s.Fleet
	if f.Nodes != 3 || f.Shards != 1 || f.Pods != 2 || f.Cores != 4 || f.CtrlCores != 2 {
		t.Errorf("fleet shape: %+v", f)
	}
	if f.Service != service.VPCInternet || f.Mode != pod.ModeRSS {
		t.Errorf("fleet service/mode: %+v", f)
	}
	if f.CacheMB != 8 || f.QueueDepth != 512 || !f.Limiter || !f.AutoFallback {
		t.Errorf("fleet extras: %+v", f)
	}
	w := s.Workload
	if w.Flows != 2000 || w.Tenants != 50 || w.Rate != 4e5 || w.Zipf != 1.1 ||
		w.Seed != 77 || w.PacketBytes != 512 || w.Deterministic || w.ACLDenied != 0.1 {
		t.Errorf("workload: %+v", w)
	}
	if len(s.Events) != 4 {
		t.Fatalf("events: got %d", len(s.Events))
	}
	if ev := s.Events[0]; ev.Action != ActionInject || ev.Fault.Kind != faults.KindCoreStall ||
		ev.Fault.Node != 1 || ev.Fault.Core != 2 || ev.Fault.Factor != 25 ||
		ev.Fault.Duration != 4*sim.Millisecond || ev.At != 5*sim.Millisecond {
		t.Errorf("event 0: %+v", ev)
	}
	if ev := s.Events[1]; ev.Action != ActionDrain || ev.Fault.Kind != faults.KindNodeDrain || ev.Fault.Node != 2 {
		t.Errorf("event 1: %+v", ev)
	}
	if ev := s.Events[2]; ev.Action != ActionFlap || ev.Fault.Kind != faults.KindBGPFlap || ev.Fault.Node != 0 {
		t.Errorf("event 2: %+v", ev)
	}
	if ev := s.Events[3]; ev.Action != ActionRamp || ev.Rate != 1e5 {
		t.Errorf("event 3: %+v", ev)
	}
	o := s.Observability
	if o.TraceSample != 64 || o.TraceLatencyOver != sim.Millisecond || o.TraceVNI != 3 || !o.TraceFaultWindow {
		t.Errorf("observability: %+v", o)
	}
	if len(s.Assertions) != 7 {
		t.Fatalf("assertions: got %d", len(s.Assertions))
	}
	if a := s.Assertions[6]; a.Type != "byte_identity" || a.Runs != 2 || len(a.Shards) != 2 || a.Shards[1] != 2 {
		t.Errorf("byte_identity: %+v", a)
	}
	if plan := s.FaultPlan(); plan == nil || len(plan.Faults) != 3 {
		t.Errorf("fault plan: %+v", s.FaultPlan())
	}
}

// loadErr asserts that a document fails to load with ErrBadConfig and a
// message containing want.
func loadErr(t *testing.T, doc, want string) {
	t.Helper()
	_, err := Load([]byte(doc))
	if err == nil {
		t.Fatalf("Load succeeded, want error containing %q", want)
	}
	if !errors.Is(err, errs.BadConfig) {
		t.Errorf("error does not wrap ErrBadConfig: %v", err)
	}
	if !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not contain %q", err, want)
	}
}

func TestLoadRejects(t *testing.T) {
	valid := "name: x\nduration: 10ms\nworkload:\n  flows: 10\n  rate: 1e5\n"
	cases := []struct {
		name, doc, want string
	}{
		{"unknown top key", valid + "bogus: 1\n", `unknown key "bogus"`},
		{"unknown fleet key", valid + "fleet:\n  cpus: 4\n", `unknown key "cpus" in fleet`},
		{"unknown workload key", valid + "workload2:\n  x: 1\n", `unknown key "workload2"`},
		{"duplicate key", "name: x\nname: y\nduration: 1ms\n", `duplicate key "name"`},
		{"tab indent", "name: x\n\tduration: 1ms\n", "tab in indentation"},
		{"bad duration", "name: x\nduration: fast\n", "not a duration"},
		{"missing duration", "name: x\nworkload:\n  flows: 5\n  rate: 1\n", "duration must be positive"},
		{"missing name", "duration: 1ms\nworkload:\n  flows: 5\n  rate: 1\n", "missing name"},
		{"no flows", "name: x\nduration: 1ms\nworkload:\n  rate: 1\n", "workload.flows"},
		{"bad service", valid + "fleet:\n  service: vpc-moon\n", `unknown service "vpc-moon"`},
		{"bad mode", valid + "fleet:\n  mode: fpga\n", `unknown mode "fpga"`},
		{"unknown action", valid + "events:\n  - at: 1ms\n    action: explode\n", `unknown action "explode"`},
		{"unknown fault", valid + "events:\n  - at: 1ms\n    action: inject_failure\n    fault: gamma-ray\n", `unknown fault kind "gamma-ray"`},
		{"missing at", valid + "events:\n  - action: ramp\n    rate: 1\n", `missing "at"`},
		{"ramp without rate", valid + "events:\n  - at: 1ms\n    action: ramp\n", `ramp needs a "rate"`},
		{"fault param on wrong kind", valid + "events:\n  - at: 1ms\n    action: inject_failure\n    fault: node-crash\n    core: 2\n", `unknown key "core"`},
		{"node out of range", valid + "events:\n  - at: 1ms\n    action: drain\n    node: 5\n", "node 5 out of range"},
		{"unknown assertion", valid + "assertions:\n  - type: vibes\n", `unknown type "vibes"`},
		{"assertion missing param", valid + "assertions:\n  - type: max_loss\n", `max_loss needs a "fraction"`},
		{"latency without max", valid + "assertions:\n  - type: latency\n", `latency needs a "max"`},
		{"bad fraction", valid + "assertions:\n  - type: max_loss\n    fraction: 1.5\n", "fraction must be in (0,1]"},
		{"assertion param typo", valid + "assertions:\n  - type: conservation\n    margin: 2\n", `unknown key "margin"`},
		{"empty doc", "", "empty document"},
		{"top-level sequence", "- a\n- b\n", "top level must be a mapping"},
		{"reorder stress no effect", valid + "events:\n  - at: 1ms\n    action: inject_failure\n    fault: reorder-stress\n    hold_heads: false\n", "selects no effect"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { loadErr(t, tc.doc, tc.want) })
	}
}

// TestUnknownBackendRejected: every way a backend name gets in — fleet.backend,
// the run command's -backend override, a spec member, a spec_update entry —
// goes through one check and fails validation with ErrBadConfig, before a
// run can retry a bad reconcile step every tick.
func TestUnknownBackendRejected(t *testing.T) {
	valid := "name: x\nduration: 10ms\nworkload:\n  flows: 10\n  rate: 1e5\n"
	load := func(doc string) func() error {
		return func() error {
			_, err := Load([]byte(doc))
			return err
		}
	}
	cases := []struct {
		name     string
		validate func() error
	}{
		{"fleet.backend", load(valid + "fleet:\n  backend: bogus\n")},
		{"-backend override", func() error {
			s, err := Load([]byte(valid))
			if err != nil {
				t.Fatal(err)
			}
			bogus := "bogus"
			return s.Apply(Overrides{Backend: &bogus}).Validate()
		}},
		{"spec member", load(valid + "spec:\n  members:\n    - backend: bogus\n")},
		{"spec_update", load(valid + "spec:\n  members:\n    - default\n" +
			"events:\n  - at: 1ms\n    action: spec_update\n    member: 0\n    backend: bogus\n")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.validate()
			if !errors.Is(err, errs.BadConfig) {
				t.Fatalf("error does not wrap ErrBadConfig: %v", err)
			}
			if want := `unknown flow-table backend "bogus" (want session|othello)`; !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not contain %q", err, want)
			}
		})
	}
}

func TestLoadErrorsNameLine(t *testing.T) {
	doc := "name: x\nduration: 1ms\nworkload:\n  flows: 5\n  rate: 1\n  glorp: 2\n"
	_, err := Load([]byte(doc))
	if err == nil || !strings.Contains(err.Error(), "line 6") {
		t.Fatalf("want line 6 in error, got %v", err)
	}
}

// TestRunHealthy runs a small healthy scenario end to end and expects
// every assertion to pass and the report to be repeat-identical.
func TestRunHealthy(t *testing.T) {
	doc := `
name: healthy
duration: 10ms
fleet:
  nodes: 2
  shards: 1
workload:
  flows: 1000
  tenants: 20
  rate: 2e5
assertions:
  - type: conservation
  - type: zero_loss
  - type: min_tx
    count: 100
  - type: latency
    max: 5ms
  - type: remap_bound
`
	s, err := Load([]byte(doc))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.OK() {
		t.Fatalf("healthy scenario failed:\n%s", res.Report)
	}
	res2, err := s.Run()
	if err != nil {
		t.Fatalf("Run 2: %v", err)
	}
	if res.Report != res2.Report {
		t.Errorf("report not repeat-identical")
	}
	if res.Outcome != res2.Outcome {
		t.Errorf("outcome not repeat-identical")
	}
}

// TestRunNodeCrash drives the full failover story declaratively and
// cross-checks the scenario-level assertions against the cluster facts.
func TestRunNodeCrash(t *testing.T) {
	doc := `
name: crash-drill
duration: 30ms
drain: 2ms
fleet:
  nodes: 3
  shards: 1
workload:
  flows: 2000
  tenants: 40
  rate: 5e5
events:
  - at: 10ms
    action: inject_failure
    fault: node-crash
    node: 1
    duration: 200ms
assertions:
  - type: conservation
  - type: remap_bound
  - type: detection_window
    margin: 2
  - type: max_loss
    fraction: 0.4
  - type: replay_identity
`
	s, err := Load([]byte(doc))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.OK() {
		t.Fatalf("crash drill failed:\n%s", res.Report)
	}
	if !strings.Contains(res.Report, "inject node-crash node=1") {
		t.Errorf("fault log missing from report:\n%s", res.Report)
	}
}

// TestByteIdentityAcrossShards asserts the scenario runner preserves the
// cluster layer's shard-count invariance.
func TestByteIdentityAcrossShards(t *testing.T) {
	s := &Scenario{
		Name:     "shard-invariance",
		Seed:     5,
		Duration: 8 * sim.Millisecond,
		Drain:    2 * sim.Millisecond,
		Fleet:    Fleet{Nodes: 4, Shards: 1, Pods: 1, Cores: 2, CtrlCores: 1},
		Workload: Workload{Flows: 500, Tenants: 10, Rate: 2e5},
		Events: []Event{{
			At: 3 * sim.Millisecond, Action: ActionInject,
			Fault: faults.Fault{Kind: faults.KindNodeCrash, At: 3 * sim.Millisecond, Node: 2, Duration: 100 * sim.Millisecond},
		}},
		Assertions: []Assertion{{Type: "byte_identity", Runs: 2, Shards: []int{2, 4}}},
	}
	res, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.OK() {
		t.Fatalf("shard identity failed:\n%s", res.Report)
	}
}

// TestRampChangesRate checks that a ramp event actually reduces the
// offered load after its fire time.
func TestRampChangesRate(t *testing.T) {
	base := &Scenario{
		Name:     "ramp",
		Seed:     3,
		Duration: 10 * sim.Millisecond,
		Drain:    sim.Millisecond,
		Fleet:    Fleet{Nodes: 1, Shards: 1, Pods: 1, Cores: 2, CtrlCores: 1},
		Workload: Workload{Flows: 200, Tenants: 5, Rate: 2e5},
	}
	flat, err := base.Run()
	if err != nil {
		t.Fatalf("Run flat: %v", err)
	}
	ramped := *base
	ramped.Events = []Event{{At: 5 * sim.Millisecond, Action: ActionRamp, Rate: 1e4}}
	down, err := ramped.Run()
	if err != nil {
		t.Fatalf("Run ramped: %v", err)
	}
	nFlat := extractSprayed(t, flat.Report)
	nDown := extractSprayed(t, down.Report)
	if nDown >= nFlat {
		t.Errorf("ramp-down did not reduce traffic: flat=%d ramped=%d", nFlat, nDown)
	}
	if nDown < nFlat/4 {
		t.Errorf("ramp-down too aggressive (applied from t=0?): flat=%d ramped=%d", nFlat, nDown)
	}
}

func extractSprayed(t *testing.T, report string) uint64 {
	t.Helper()
	for _, line := range strings.Split(report, "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "traffic") {
			var sprayed, delivered, remapped, swd, bh uint64
			if _, err := fmt.Sscanf(line, "traffic     sprayed=%d delivered=%d remapped=%d switch-drops=%d blackholed=%d",
				&sprayed, &delivered, &remapped, &swd, &bh); err == nil {
				return sprayed
			}
		}
	}
	t.Fatalf("no traffic line in report:\n%s", report)
	return 0
}
