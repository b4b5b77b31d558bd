package faults

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"albatross/internal/errs"
	"albatross/internal/sim"
)

// recTarget records every fault it is handed.
type recTarget struct {
	got  []Fault
	fail bool
}

func (r *recTarget) InjectFault(f Fault) error {
	r.got = append(r.got, f)
	if r.fail {
		return errors.New("boom")
	}
	return nil
}

func TestInjectorFiresPlanInOrder(t *testing.T) {
	eng := sim.NewEngine()
	tgt := &recTarget{}
	plan := (&Plan{}).
		CoreStall(1*sim.Millisecond, 0, 0, 10, 1*sim.Millisecond).
		CoreFail(2*sim.Millisecond, 0, 1, 0).
		PodCrash(3*sim.Millisecond, 0, 0)
	plan.Faults = append(plan.Faults,
		Fault{Kind: KindPodDrain, At: 4 * sim.Millisecond},
		Fault{Kind: KindReorderStress, At: 5 * sim.Millisecond, Duration: sim.Millisecond, HoldHeads: true},
		Fault{Kind: KindRxLoss, At: 6 * sim.Millisecond, Duration: sim.Millisecond, Factor: 0.5})
	plan.BGPFlap(7*sim.Millisecond, 100*sim.Millisecond)
	inj, err := NewInjector(eng, tgt, plan)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunFor(10 * sim.Millisecond)

	// The target gets each fault as planned, in plan order.
	want := plan.Faults
	if fmt.Sprint(tgt.got) != fmt.Sprint(want) {
		t.Fatalf("target got %v, want %v", tgt.got, want)
	}
	log := inj.Log()
	if len(log) != len(want) {
		t.Fatalf("log has %d events, want %d", len(log), len(want))
	}
	for i, e := range log {
		if e.Err != nil {
			t.Fatalf("event %d has error %v", i, e.Err)
		}
		wantAt := sim.Time(sim.Duration(i+1) * sim.Millisecond)
		if e.At != wantAt {
			t.Fatalf("event %d fired at %v, want %v", i, e.At, wantAt)
		}
	}
	if log[0].String() == "" {
		t.Fatal("empty event rendering")
	}
}

func TestInjectorRecordsTargetErrors(t *testing.T) {
	eng := sim.NewEngine()
	tgt := &recTarget{fail: true}
	inj, err := NewInjector(eng, tgt, (&Plan{}).BGPFlap(0, 1*sim.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	eng.RunFor(1 * sim.Millisecond)
	log := inj.Log()
	if len(log) != 1 || log[0].Err == nil {
		t.Fatalf("expected one errored event, got %+v", log)
	}
}

func TestPlanValidate(t *testing.T) {
	bad := []*Plan{
		(&Plan{}).CoreStall(-1, 0, 0, 2, sim.Millisecond),                             // negative At
		(&Plan{}).CoreStall(0, 0, 0, 0, sim.Millisecond),                              // zero factor
		(&Plan{}).CoreStall(0, 0, 0, 2, 0),                                            // no duration
		{Faults: []Fault{{Kind: KindReorderStress, Duration: sim.Millisecond}}},       // no effect
		{Faults: []Fault{{Kind: KindRxLoss, Factor: 1.5, Duration: sim.Millisecond}}}, // prob > 1
		(&Plan{}).BGPFlap(0, 0),                                                       // no duration
		{Faults: []Fault{{Kind: Kind(200)}}},                                          // unknown kind
		{Faults: []Fault{{Kind: KindCoreFail, Pod: -1}}},                              // negative index
	}
	for i, p := range bad {
		err := p.Validate()
		if err == nil {
			t.Fatalf("plan %d: expected validation error", i)
		}
		if !errors.Is(err, errs.BadConfig) {
			t.Fatalf("plan %d: error %v does not wrap errs.BadConfig", i, err)
		}
		if _, err2 := NewInjector(sim.NewEngine(), &recTarget{}, p); err2 == nil {
			t.Fatalf("plan %d: NewInjector accepted invalid plan", i)
		}
	}
	ok := (&Plan{}).
		CoreFail(0, 0, 0, 0).
		PodCrash(sim.Millisecond, 1, 0)
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
}

// The injector hands node-level kinds to its target like any other: which
// kinds a target can apply is the target's check (core.Node rejects them,
// cluster.Cluster applies them), so only the plan's shape is checked here.
func TestNodeKindPlansValidate(t *testing.T) {
	eng := sim.NewEngine()
	tgt := &recTarget{}
	plan := (&Plan{}).
		NodeCrash(1*sim.Millisecond, 0, 10*sim.Millisecond).
		NodeDrain(2*sim.Millisecond, 1, 10*sim.Millisecond)
	plan.Faults = append(plan.Faults, Fault{Kind: KindUplinkWithdraw, At: 3 * sim.Millisecond, Duration: sim.Millisecond, Node: 2})
	inj, err := NewInjector(eng, tgt, plan)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunFor(10 * sim.Millisecond)
	if fmt.Sprint(tgt.got) != fmt.Sprint(plan.Faults) {
		t.Fatalf("target got %v, want %v", tgt.got, plan.Faults)
	}
	if s := inj.Log()[1].String(); !strings.Contains(s, "inject node-drain node=1") {
		t.Fatalf("node event rendering %q lacks kind and node index", s)
	}
	bad := []*Plan{
		(&Plan{}).NodeDrain(0, 0, 0),                       // no duration
		{Faults: []Fault{{Kind: KindUplinkWithdraw}}},      // no duration
		{Faults: []Fault{{Kind: KindNodeCrash, Node: -1}}}, // negative index
	}
	for i, p := range bad {
		if err := p.Validate(); !errors.Is(err, errs.BadConfig) {
			t.Fatalf("plan %d: expected BadConfig, got %v", i, err)
		}
	}
	if err := ((&Plan{}).NodeCrash(0, 2, 0)).Validate(); err != nil {
		t.Fatalf("permanent node crash rejected: %v", err)
	}
	if _, err := NewInjector(eng, nil, plan); !errors.Is(err, errs.BadConfig) {
		t.Fatalf("nil target = %v, want BadConfig", err)
	}
}

func TestKindStrings(t *testing.T) {
	kinds := []Kind{KindCoreStall, KindCoreFail, KindPodCrash, KindPodDrain,
		KindReorderStress, KindRxLoss, KindBGPFlap,
		KindNodeDrain, KindNodeCrash, KindUplinkWithdraw}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Fatalf("kind %d has empty or duplicate name %q", k, s)
		}
		seen[s] = true
	}
}
