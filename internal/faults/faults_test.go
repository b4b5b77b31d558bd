package faults

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"albatross/internal/errs"
	"albatross/internal/sim"
)

// recTarget records calls; each Inject* appends an op string.
type recTarget struct {
	ops  []string
	fail bool
}

func (r *recTarget) rec(op string) error {
	r.ops = append(r.ops, op)
	if r.fail {
		return errors.New("boom")
	}
	return nil
}

func (r *recTarget) InjectCoreStall(pod, core int, factor float64, d sim.Duration) error {
	return r.rec("stall")
}
func (r *recTarget) InjectCoreFail(pod, core int, d sim.Duration) error { return r.rec("fail") }
func (r *recTarget) InjectPodCrash(pod int, graceful bool, restartAfter sim.Duration) error {
	if graceful {
		return r.rec("drain")
	}
	return r.rec("crash")
}
func (r *recTarget) InjectReorderStress(pod, queue int, d sim.Duration, holdHeads bool, depthClamp int) error {
	return r.rec("stress")
}
func (r *recTarget) InjectRxLoss(pod, core int, prob float64, d sim.Duration) error {
	return r.rec("rxloss")
}
func (r *recTarget) InjectBGPFlap(d sim.Duration) error { return r.rec("flap") }

// recNodeTarget records node-level calls and resolves pod-level targets
// per member, modeling the cluster shape.
type recNodeTarget struct {
	ops   []string
	nodes []*recTarget
}

func (r *recNodeTarget) rec(op string, node int) error {
	r.ops = append(r.ops, fmt.Sprintf("%s@%d", op, node))
	return nil
}
func (r *recNodeTarget) InjectNodeFault(kind Kind, node int, d sim.Duration) error {
	switch kind {
	case KindNodeCrash:
		return r.rec("nodecrash", node)
	case KindNodeDrain:
		return r.rec("nodedrain", node)
	case KindUplinkWithdraw:
		return r.rec("withdraw", node)
	default:
		return errors.New("not a node kind")
	}
}
func (r *recNodeTarget) NodeAt(node int) (Target, error) {
	if node < 0 || node >= len(r.nodes) {
		return nil, errors.New("no such node")
	}
	return r.nodes[node], nil
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

	want := []string{"stall", "fail", "crash", "drain", "stress", "rxloss", "flap"}
	if len(tgt.ops) != len(want) {
		t.Fatalf("ops = %v, want %v", tgt.ops, want)
	}
	for i := range want {
		if tgt.ops[i] != want[i] {
			t.Fatalf("ops[%d] = %q, want %q", i, tgt.ops[i], want[i])
		}
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

func TestNodeTargetRouting(t *testing.T) {
	eng := sim.NewEngine()
	tgt := &recNodeTarget{nodes: []*recTarget{{}, {}}}
	plan := (&Plan{}).
		NodeCrash(1*sim.Millisecond, 0, 10*sim.Millisecond).
		NodeDrain(2*sim.Millisecond, 1, 10*sim.Millisecond)
	// Pod-level faults against a NodeTarget resolve through NodeAt(Node).
	plan.Faults = append(plan.Faults,
		Fault{Kind: KindUplinkWithdraw, At: 3 * sim.Millisecond, Duration: 10 * sim.Millisecond},
		Fault{Kind: KindPodCrash, At: 4 * sim.Millisecond, Node: 1, Pod: 0},
		Fault{Kind: KindPodCrash, At: 5 * sim.Millisecond, Node: 7, Pod: 0}) // bad node
	inj, err := NewInjector(eng, tgt, plan)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunFor(10 * sim.Millisecond)

	want := []string{"nodecrash@0", "nodedrain@1", "withdraw@0"}
	if fmt.Sprint(tgt.ops) != fmt.Sprint(want) {
		t.Fatalf("node ops = %v, want %v", tgt.ops, want)
	}
	if fmt.Sprint(tgt.nodes[1].ops) != fmt.Sprint([]string{"crash"}) {
		t.Fatalf("node 1 pod ops = %v, want [crash]", tgt.nodes[1].ops)
	}
	if len(tgt.nodes[0].ops) != 0 {
		t.Fatalf("node 0 got pod ops %v", tgt.nodes[0].ops)
	}
	log := inj.Log()
	if len(log) != 5 {
		t.Fatalf("log has %d events, want 5", len(log))
	}
	if log[4].Err == nil {
		t.Fatal("out-of-range NodeAt resolution did not surface as event error")
	}
	if s := log[0].String(); !strings.Contains(s, "node=0") {
		t.Fatalf("node event rendering %q lacks node index", s)
	}
}

func TestNodeKindsNeedNodeTarget(t *testing.T) {
	_, err := NewInjector(sim.NewEngine(), &recTarget{}, (&Plan{}).NodeCrash(0, 0, 0))
	if !errors.Is(err, errs.BadConfig) {
		t.Fatalf("expected BadConfig for node kind against pod-only target, got %v", err)
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
