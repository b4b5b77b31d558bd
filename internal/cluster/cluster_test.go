package cluster

import (
	"errors"
	"strings"
	"testing"

	"albatross/internal/core"
	"albatross/internal/errs"
	"albatross/internal/faults"
	"albatross/internal/pod"
	"albatross/internal/service"
	"albatross/internal/sim"
	"albatross/internal/workload"
)

const testSeed = 42

// testCluster builds a cluster of one PLB pod per member over a 2000-flow
// set; tune, when given, adjusts the pod config first.
func testCluster(t *testing.T, nodes int, plan *faults.Plan, tune ...func(*core.PodConfig)) (*Cluster, []workload.Flow) {
	t.Helper()
	c, err := New(Config{Nodes: nodes, Seed: testSeed, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	wf := workload.GenerateFlows(2000, 100, testSeed)
	pc := core.PodConfig{
		Spec:  pod.Spec{Name: "gw", Service: service.VPCVPC, DataCores: 4, CtrlCores: 1, Mode: pod.ModePLB},
		Flows: workload.ServiceFlows(wf, 0),
	}
	for _, f := range tune {
		f(&pc)
	}
	if err := c.AddPod(pc); err != nil {
		t.Fatal(err)
	}
	return c, wf
}

// stageIndex resolves a pipeline stage label to its residency slot.
func stageIndex(t *testing.T, name string) int {
	t.Helper()
	for i, s := range core.StageNames() {
		if s == name {
			return i
		}
	}
	t.Fatalf("unknown stage %q", name)
	return -1
}

// ownersOf snapshots the current ECMP owner per flow.
func ownersOf(c *Cluster, flows []workload.Flow) []int {
	owners := make([]int, len(flows))
	for i, f := range flows {
		_, owners[i] = c.Route(f)
	}
	return owners
}

func TestRouteAffinityAndSpread(t *testing.T) {
	c, wf := testCluster(t, 3, nil)
	perNode := make([]int, 3)
	for _, f := range wf {
		home, owner := c.Route(f)
		if home != owner {
			t.Fatalf("healthy cluster remapped flow: home %d owner %d", home, owner)
		}
		h2, o2 := c.Route(f)
		if h2 != home || o2 != owner {
			t.Fatal("routing is not flow-affine")
		}
		perNode[owner]++
	}
	for i, n := range perNode {
		frac := float64(n) / float64(len(wf))
		if frac < 0.20 || frac > 0.47 {
			t.Fatalf("node %d owns %.2f of flows; want roughly 1/3", i, frac)
		}
	}
}

func TestNodeCrashRemapBoundAndRecovery(t *testing.T) {
	c, wf := testCluster(t, 3, nil)
	before := ownersOf(c, wf)

	if err := c.InjectNodeFault(faults.KindNodeCrash, 1, 500*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Past the BFD detection window: the route is withdrawn.
	c.RunFor(300 * sim.Millisecond)
	if c.eligible(1) {
		t.Fatal("crashed node still ECMP-eligible after BFD detection")
	}

	after := ownersOf(c, wf)
	remapped := 0
	for i := range wf {
		if after[i] == before[i] {
			continue
		}
		remapped++
		if before[i] != 1 {
			t.Fatalf("flow %d moved from surviving node %d to %d", i, before[i], after[i])
		}
		if after[i] == 1 {
			t.Fatalf("flow %d mapped onto the dead node", i)
		}
	}
	frac := float64(remapped) / float64(len(wf))
	if frac == 0 {
		t.Fatal("no flows remapped off the dead node")
	}
	if frac > 2.0/3 {
		t.Fatalf("remapped fraction %.3f exceeds the 2/N=%.3f consistent-hash bound", frac, 2.0/3)
	}

	// Recovery: link back at 500ms, BFD recovers, route re-advertises 1s
	// later; the ring is untouched so the exact assignment is restored.
	c.RunFor(1500 * sim.Millisecond)
	if !c.eligible(1) {
		t.Fatal("recovered node not re-eligible")
	}
	restored := ownersOf(c, wf)
	for i := range wf {
		if restored[i] != before[i] {
			t.Fatalf("flow %d not restored to pre-crash owner: %d vs %d", i, restored[i], before[i])
		}
	}
}

func TestNodeCrashBoundedLoss(t *testing.T) {
	plan := (&faults.Plan{}).NodeCrash(30*sim.Millisecond, 1, 500*sim.Millisecond)
	c, wf := testCluster(t, 3, plan, func(pc *core.PodConfig) {
		pc.TraceSampleEvery = 128 // flight-record any casualty inside a survivor
	})
	src := &workload.Source{Flows: wf, Rate: workload.ConstantRate(3e5), Seed: testSeed + 1, Sink: c.Sink()}
	if err := src.Start(c.Engine); err != nil {
		t.Fatal(err)
	}
	c.RunFor(400 * sim.Millisecond)
	src.Stop()
	c.RunFor(5 * sim.Millisecond)

	if c.Blackholed() == 0 {
		t.Fatal("no detection-window loss recorded for an abrupt crash")
	}
	// Loss is bounded by the detection window (~200ms grid-quantized) times
	// the dead node's traffic share (~1/3 of 300kpps): generously, 2×.
	bound := uint64(2 * 0.2 * 3e5 / 3)
	if c.Blackholed() > bound {
		t.Fatalf("blackholed %d exceeds detection-window bound %d", c.Blackholed(), bound)
	}
	if c.Remapped == 0 {
		t.Fatal("no packets remapped to survivors after withdrawal")
	}
	if len(c.FaultLog()) != 1 {
		t.Fatalf("fault log has %d events, want 1", len(c.FaultLog()))
	}
	// Surviving nodes keep per-flow order: their PLB reorder engines see no
	// best-effort (out-of-order) emissions caused by the failover. Their NIC
	// stages stay at the healthy Tab. 4 RX/TX pipeline sums, and the loss
	// lives at the switch, never inside a surviving pipeline: the survivors'
	// sampling flight recorders commit no journey.
	nicIn, nicEg := stageIndex(t, "nic-ingress"), stageIndex(t, "nic-egress")
	for _, m := range c.Members() {
		if m.Index == 1 {
			continue
		}
		pr := m.Node.Pods()[0]
		if pr.DisorderRate() != 0 {
			t.Fatalf("survivor %d disorder rate %g, want 0", m.Index, pr.DisorderRate())
		}
		resid := pr.StageResidency()
		if in, eg := resid[nicIn].Max(), resid[nicEg].Max(); in != 3900 || eg != 4170 {
			t.Fatalf("survivor %d NIC residency max ingress %dns egress %dns, want 3900/4170", m.Index, in, eg)
		}
		if fr := pr.Flight(); fr.Sampled == 0 || fr.Drops+fr.Timeouts != 0 {
			t.Fatalf("survivor %d sampled %d, committed %d drop / %d timeout journeys, want none",
				m.Index, fr.Sampled, fr.Drops, fr.Timeouts)
		}
	}
}

func TestNodeDrainZeroLoss(t *testing.T) {
	plan := (&faults.Plan{}).NodeDrain(30*sim.Millisecond, 1, 100*sim.Millisecond)
	c, wf := testCluster(t, 3, plan)
	src := &workload.Source{Flows: wf, Rate: workload.ConstantRate(3e5), Seed: testSeed + 1, Sink: c.Sink()}
	if err := src.Start(c.Engine); err != nil {
		t.Fatal(err)
	}
	c.RunFor(200 * sim.Millisecond)
	src.Stop()
	c.RunFor(10 * sim.Millisecond)

	m := c.Members()[1]
	if m.Drains != 1 {
		t.Fatalf("drains = %d, want 1", m.Drains)
	}
	if c.Blackholed() != 0 || c.Drops != 0 {
		t.Fatalf("drain lost packets: blackholed=%d switch-drops=%d", c.Blackholed(), c.Drops)
	}
	var tx, crashDrops uint64
	for _, m := range c.Members() {
		for _, pr := range m.Node.Pods() {
			tx += pr.Tx
			crashDrops += pr.CrashDrops
		}
	}
	if crashDrops != 0 {
		t.Fatalf("drain dropped %d packets at crashed pods", crashDrops)
	}
	if tx != c.Sprayed {
		t.Fatalf("tx %d != sprayed %d: make-before-break lost packets", tx, c.Sprayed)
	}
	if !c.eligible(1) {
		t.Fatal("drained node did not rejoin after upgrade")
	}
	if m.Node.Pods()[0].Restarts != 1 {
		t.Fatalf("pod restarts = %d, want 1 (gray upgrade)", m.Node.Pods()[0].Restarts)
	}
}

func TestUplinkWithdraw(t *testing.T) {
	c, wf := testCluster(t, 3, nil)
	if err := c.InjectNodeFault(faults.KindUplinkWithdraw, 0, 50*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if c.eligible(0) {
		t.Fatal("withdrawn node still eligible")
	}
	for _, f := range wf {
		if _, owner := c.Route(f); owner == 0 {
			t.Fatal("flow routed to withdrawn node")
		}
	}
	c.RunFor(51 * sim.Millisecond)
	if !c.eligible(0) {
		t.Fatal("node not restored after withdraw expiry")
	}
}

func TestAddNodeBoundedRemap(t *testing.T) {
	c, wf := testCluster(t, 3, nil)
	before := ownersOf(c, wf)
	idx, err := c.AddNode()
	if err != nil {
		t.Fatal(err)
	}
	if idx != 3 {
		t.Fatalf("new member index = %d, want 3", idx)
	}
	if got := len(c.Members()[3].Node.Pods()); got != 1 {
		t.Fatalf("new member has %d pods, want 1 (replayed)", got)
	}
	after := ownersOf(c, wf)
	moved := 0
	for i := range wf {
		if after[i] != before[i] {
			moved++
			if after[i] != 3 {
				t.Fatalf("flow %d moved between old members (%d->%d) on add", i, before[i], after[i])
			}
		}
	}
	frac := float64(moved) / float64(len(wf))
	if frac == 0 || frac > 2.0/4 {
		t.Fatalf("add-node remap fraction %.3f outside (0, 2/(N+1)=%.3f]", frac, 2.0/4)
	}
}

func TestAllNodesDownDropsAtSwitch(t *testing.T) {
	c, wf := testCluster(t, 2, nil)
	for i := range c.Members() {
		if err := c.InjectNodeFault(faults.KindUplinkWithdraw, i, 10*sim.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	c.Inject(wf[0], 256)
	if c.Drops != 1 {
		t.Fatalf("switch drops = %d, want 1 with no eligible member", c.Drops)
	}
}

func TestClusterDeterminism(t *testing.T) {
	run := func() string {
		plan := (&faults.Plan{}).NodeCrash(30*sim.Millisecond, 1, 500*sim.Millisecond)
		c, wf := testCluster(t, 3, plan)
		src := &workload.Source{Flows: wf, Rate: workload.ConstantRate(2e5), Seed: testSeed + 1, Sink: c.Sink()}
		if err := src.Start(c.Engine); err != nil {
			t.Fatal(err)
		}
		c.RunFor(300 * sim.Millisecond)
		src.Stop()
		c.RunFor(5 * sim.Millisecond)
		return c.Report()
	}
	a, b := run(), run()
	if a != b {
		t.Fatal("cluster runs with identical seed and plan diverged")
	}
}

func TestClusterErrors(t *testing.T) {
	if _, err := New(Config{Nodes: 0}); !errors.Is(err, errs.BadConfig) {
		t.Fatalf("Nodes=0 accepted: %v", err)
	}
	c, _ := testCluster(t, 2, nil)
	if err := c.InjectFault(faults.Fault{Kind: faults.KindPodCrash, Node: 5}); !errors.Is(err, errs.BadConfig) {
		t.Fatalf("pod crash on member 5 = %v, want BadConfig", err)
	}
	if err := c.InjectNodeFault(faults.KindNodeDrain, 0, 0); !errors.Is(err, errs.BadConfig) {
		t.Fatalf("zero-duration drain = %v, want BadConfig", err)
	}
	if err := c.InjectNodeFault(faults.KindNodeCrash, 0, sim.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.InjectNodeFault(faults.KindNodeCrash, 0, sim.Second); !errors.Is(err, errs.BadState) {
		t.Fatalf("double crash = %v, want BadState", err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// A cluster plan mixes node- and pod-level kinds, and Fault.Node selects the
// member for both: node kinds reach the cluster's own handlers, pod kinds
// the member's node, and a pod fault naming a missing member is logged with
// its error.
func TestInjectFaultRoutesNodeAndPodKinds(t *testing.T) {
	plan := (&faults.Plan{}).
		NodeCrash(1*sim.Millisecond, 0, sim.Second).
		NodeDrain(2*sim.Millisecond, 1, sim.Second).
		PodCrash(3*sim.Millisecond, 0, sim.Second)
	plan.Faults[2].Node = 2
	plan.Faults = append(plan.Faults,
		faults.Fault{Kind: faults.KindCoreFail, At: 4 * sim.Millisecond, Node: 3, Core: 1},
		faults.Fault{Kind: faults.KindPodCrash, At: 5 * sim.Millisecond, Node: 7})
	c, _ := testCluster(t, 4, plan)
	c.RunFor(10 * sim.Millisecond)

	m := c.Members()
	for i, want := range []string{"crashed", "draining", "active", "active"} {
		if got := m[i].State(); got != want {
			t.Fatalf("member %d is %s, want %s", i, got, want)
		}
	}
	// Each member's pod shows the one fault aimed at it or at its node.
	for i, want := range []string{"crashed", "draining", "crashed", "active"} {
		if got := m[i].Node.Pods()[0].State(); got != want {
			t.Fatalf("member %d's pod is %s, want %s", i, got, want)
		}
	}
	if cores := m[3].Node.Pods()[0].Cores; !cores[1].Failed() || cores[0].Failed() {
		t.Fatal("core fail did not reach member 3's core 1 alone")
	}
	log := c.FaultLog()
	if len(log) != 5 {
		t.Fatalf("log has %d events, want 5", len(log))
	}
	for i, e := range log[:4] {
		if e.Err != nil {
			t.Fatalf("event %d (%v): %v", i, e.Fault.Kind, e.Err)
		}
	}
	if !errors.Is(log[4].Err, errs.BadConfig) {
		t.Fatalf("pod crash on missing member 7 logged %v, want BadConfig", log[4].Err)
	}
	if s := log[0].String(); !strings.Contains(s, "inject node-crash node=0") {
		t.Fatalf("node event rendering %q lacks kind and node index", s)
	}
}
