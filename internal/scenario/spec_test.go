package scenario

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"albatross/internal/controlplane"
	"albatross/internal/errs"
	"albatross/internal/sim"
)

// specScenario wraps a spec: block's body in the smallest scenario that
// loads it: the block comes first, so a line n of the body is line n+1 of
// the document, and the fleet is one node, so any member list covers it.
func specScenario(body []byte) []byte {
	doc := []byte("spec:\n")
	for _, line := range bytes.SplitAfter(body, []byte("\n")) {
		if len(line) > 0 {
			doc = append(append(doc, "  "...), line...)
		}
	}
	if doc[len(doc)-1] != '\n' {
		doc = append(doc, '\n')
	}
	return append(doc, "name: spec\nduration: 10ms\nworkload:\n  flows: 10\n  rate: 1e5\n"...)
}

// loadSpec loads body as a minimal scenario's spec: block.
func loadSpec(body []byte) (*ReconcileSpec, error) {
	s, err := Load(specScenario(body))
	if err != nil {
		return nil, err
	}
	return s.Spec, nil
}

// TestLoadSpecRoundTrip checks the spec: block decoder: every member form
// (mapping, scalar default), tuning keys, and the converters to the control
// plane's types.
func TestLoadSpecRoundTrip(t *testing.T) {
	doc := `
interval: 2ms
steps_per_tick: 3
members:
  - weight: 0.25
    pods: 2
  - default
  - admin: drained
  - admin: removed
`
	r, err := loadSpec([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if r.Interval != 2*sim.Millisecond || r.StepsPerTick != 3 {
		t.Errorf("tuning = (%v, %d), want (2ms, 3)", r.Interval, r.StepsPerTick)
	}
	if len(r.Members) != 4 {
		t.Fatalf("got %d members, want 4", len(r.Members))
	}
	m0 := r.Members[0]
	if m0.Weight != 0.25 || m0.Pods != 2 {
		t.Errorf("member 0 = %+v", m0)
	}
	if m1 := r.Members[1]; m1 != (controlplane.MemberSpec{}) {
		t.Errorf("scalar default should decode to the zero MemberSpec, got %+v", m1)
	}
	if got := r.Members[2].NormAdmin(); got != controlplane.AdminDrained {
		t.Errorf("member 2 admin = %q", got)
	}
	cs := r.ClusterSpec()
	if err := cs.Validate(); err != nil {
		t.Errorf("converted ClusterSpec invalid: %v", err)
	}
	if got := cs.String(); got != "spec[4]{0: w=0.25 pods=2; 1: w=1; 2: w=1 drained; 3: removed}" {
		t.Errorf("ClusterSpec.String() = %q", got)
	}
	cfg := r.Config()
	if cfg.Interval != 2*sim.Millisecond || cfg.StepsPerTick != 3 {
		t.Errorf("Config() = %+v", cfg)
	}
}

// TestLoadSpecRejects pins the spec: block's strictness: every malformed
// block fails with an error wrapping errs.BadConfig that names the offending
// line of the scenario.
func TestLoadSpecRejects(t *testing.T) {
	cases := []struct {
		name, doc, wantSub string
	}{
		{"empty members", "interval: 1ms\n", `needs a non-empty "members"`},
		{"unknown key", "members:\n  - default\nstepz: 1\n", "line 4"},
		{"unknown member key", "members:\n  - wieght: 2\n", "line 3"},
		{"scalar member", "members:\n  - fast\n", `the scalar "default"`},
		{"negative weight", "members:\n  - weight: -1\n", "weight"},
		{"negative interval", "interval: -1ms\nmembers:\n  - default\n", "interval"},
		{"removed pins pods", "members:\n  - admin: removed\n    pods: 2\n", "removed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := loadSpec([]byte(tc.doc))
			if err == nil {
				t.Fatalf("spec block %q loaded", tc.doc)
			}
			if !errors.Is(err, errs.BadConfig) {
				t.Errorf("error does not wrap BadConfig: %v", err)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// TestScenarioSpecBlock checks the spec: block and timed spec_update
// events decode into the scenario, with full-entry replacement semantics
// (the event carries a complete MemberSpec, defaults for omitted keys).
func TestScenarioSpecBlock(t *testing.T) {
	doc := `
name: drill
duration: 20ms
fleet:
  nodes: 2
workload:
  flows: 100
  rate: 1e5
spec:
  interval: 5ms
  members:
    - default
    - default
events:
  - at: 10ms
    action: spec_update
    member: 2
    weight: 0.5
    pods: 1
assertions:
  - type: reconciled
`
	s, err := Load([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if s.Spec == nil || len(s.Spec.Members) != 2 || s.Spec.Interval != 5*sim.Millisecond {
		t.Fatalf("spec block = %+v", s.Spec)
	}
	if len(s.Events) != 1 {
		t.Fatalf("got %d events", len(s.Events))
	}
	ev := s.Events[0]
	if ev.Action != ActionSpecUpdate || ev.Member != 2 {
		t.Errorf("event = %+v", ev)
	}
	if ev.Entry.Weight != 0.5 || ev.Entry.Pods != 1 || ev.Entry.Admin != "" {
		t.Errorf("entry = %+v", ev.Entry)
	}
	// spec_update events are control-plane intents, not faults.
	if plan := s.FaultPlan(); plan != nil && len(plan.Faults) != 0 {
		t.Errorf("spec_update leaked into the fault plan: %+v", plan.Faults)
	}
}

// TestScenarioSpecUpdateRejects covers event-level validation: negative
// member index and an entry the control plane rejects.
func TestScenarioSpecUpdateRejects(t *testing.T) {
	base := `
name: drill
duration: 20ms
workload:
  flows: 100
  rate: 1e5
spec:
  members:
    - default
events:
  - at: 10ms
    action: spec_update
`
	for _, tc := range []struct{ name, extra, wantSub string }{
		{"negative member", "    member: -1\n", "member"},
		{"bad entry", "    member: 0\n    weight: -2\n", "weight"},
		{"missing member", "    weight: 1\n", `"member"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Load([]byte(base + tc.extra))
			if err == nil {
				t.Fatal("accepted invalid spec_update")
			}
			if !errors.Is(err, errs.BadConfig) || !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error = %v, want BadConfig mentioning %q", err, tc.wantSub)
			}
		})
	}
}

// TestReconciledScenarioRuns executes a tiny spec-driven drill end to end
// and checks the reconciled assertion plus the report's reconcile section.
func TestReconciledScenarioRuns(t *testing.T) {
	doc := `
name: mini-reconcile
duration: 40ms
fleet:
  nodes: 2
workload:
  flows: 200
  tenants: 10
  rate: 1e5
spec:
  interval: 2ms
  members:
    - default
    - default
events:
  - at: 10ms
    action: spec_update
    member: 1
    weight: 0.5
assertions:
  - type: conservation
  - type: zero_loss
  - type: reconciled
`
	s, err := Load([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("drill failed:\n%s", res.Report)
	}
	if !strings.Contains(res.Report, "reconcile") || !strings.Contains(res.Report, "weight 1 -> 0.5") {
		t.Errorf("report lacks the reconcile step log:\n%s", res.Report)
	}
}
