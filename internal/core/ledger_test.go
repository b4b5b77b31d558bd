package core

import (
	"fmt"
	"strings"
	"testing"

	"albatross/internal/cachesim"
	"albatross/internal/packet"
	"albatross/internal/pod"
	"albatross/internal/sim"
	"albatross/internal/stats"
	"albatross/internal/workload"
)

// checkLedger holds a drained pod to the packet ledger: every packet it
// received was emitted or dropped exactly once, and the pipeline said which.
// No context is live, every stage is balanced, Rx is Tx + PriorityTx + the
// in-pipeline drop reasons, the stages' drops sum to those reasons, and
// each stage's residency histogram holds one sample per packet that left
// it. CrashDrops and Redirected count packets refused before Rx, so they
// stay out of both sums.
func checkLedger(t *testing.T, pr *PodRuntime) {
	t.Helper()
	if pr.live != 0 {
		t.Errorf("pod %q: %d contexts live after drain", pr.Pod.Spec.Name, pr.live)
	}
	st := pr.Stages()
	if bad, ok := stats.StageBalance(st); !ok {
		t.Errorf("pod %q: unbalanced stage after drain: %s", pr.Pod.Spec.Name, bad)
	}
	reasons := pr.NICDrops + pr.QueueDrops + pr.PLBDrops + pr.ServiceDrop +
		pr.HeaderDrops + pr.FaultLost + pr.RxLost
	if pr.Rx != pr.Tx+pr.PriorityTx+reasons {
		t.Errorf("pod %q: rx %d != tx %d + priority tx %d + drop reasons %d",
			pr.Pod.Spec.Name, pr.Rx, pr.Tx, pr.PriorityTx, reasons)
	}
	var drops uint64
	for _, s := range st {
		drops += s.Drops
	}
	if drops != reasons {
		t.Errorf("pod %q: stage drops %d != drop reasons %d (nic %d queue %d plb %d service %d header %d fault %d rx %d)",
			pr.Pod.Spec.Name, drops, reasons, pr.NICDrops, pr.QueueDrops, pr.PLBDrops,
			pr.ServiceDrop, pr.HeaderDrops, pr.FaultLost, pr.RxLost)
	}
	assertResidencyCounts(t, pr)
}

// ledgerSpan is how long a ledger program offers traffic.
const ledgerSpan = 10 * sim.Millisecond

// runLedgerProgram runs one seeded fault program over a node with a PLB pod
// and an RSS pod, each fed its own traffic for ledgerSpan, then drains it.
// A seeded share of the flows is ICMP, so RSS-class packets ride the PLB
// pod's path beside its sprayed traffic. The program draws three to six
// faults at random instants: core stalls and failures, graceful and abrupt
// pod crashes, RX loss, reorder stress and FallbackToRSS on the PLB pod,
// and graceful crashes that take a pod out of service for the rest of the
// run. A fault aimed at a pod in the wrong state (crashing a crashed pod)
// is refused, as it would be in any run.
func runLedgerProgram(t *testing.T, seed uint64, split bool) []*PodRuntime {
	r := sim.NewRand(seed)
	n, err := NewNode(NodeConfig{
		Seed:  seed,
		Cache: cachesim.Config{SizeBytes: 4 << 20, Ways: 16, LineBytes: 64},
		Burst: 1 + r.Intn(8),
	})
	if err != nil {
		t.Fatal(err)
	}
	wf := workload.GenerateFlows(1000, 100, seed)
	icmp := sim.NewRand(seed ^ 0x1C3F)
	share := 0.05 + 0.25*icmp.Float64()
	for i := range wf {
		if icmp.Float64() < share {
			wf[i].Tuple.Proto = packet.IPProtocolICMP
		}
	}
	sf := workload.ServiceFlows(wf, 0.02)
	bytes := []int{256, 1500, 8500}[r.Intn(3)]
	var pods []*PodRuntime
	for i, mode := range []pod.Mode{pod.ModePLB, pod.ModeRSS} {
		pods = append(pods, addPod(t, n, mode, 4, sf, func(c *PodConfig) {
			c.Spec.Name = fmt.Sprintf("gw%d", i)
			c.HeaderSplit = split
			c.PayloadBufferBytes = 64 << 10
			c.JitterSigma = 0.5
		}))
	}
	var srcs []*workload.Source
	for i, pr := range pods {
		src := &workload.Source{Flows: wf, Rate: workload.ConstantRate(0.8e6),
			PacketBytes: bytes, Seed: seed<<1 | uint64(i), Sink: pr.Sink()}
		if err := src.Start(n.Engine); err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, src)
	}
	for k := 3 + r.Intn(4); k > 0; k-- {
		at := sim.Time(r.Intn(int(ledgerSpan)))
		p, core := r.Intn(len(pods)), r.Intn(4)
		d := sim.Duration(50_000 + r.Intn(3_000_000))
		var fault func() error
		switch r.Intn(8) {
		case 0:
			factor := float64(2 + r.Intn(200))
			fault = func() error { return n.InjectCoreStall(p, core, factor, d) }
		case 1:
			fault = func() error { return n.InjectCoreFail(p, core, d) }
		case 2, 3:
			graceful := r.Intn(2) == 0
			fault = func() error { return n.InjectPodCrash(p, graceful, d) }
		case 4:
			prob := 0.1 + 0.8*r.Float64()
			fault = func() error { return n.InjectRxLoss(p, core, prob, d) }
		case 5:
			hold, clamp := r.Intn(2) == 0, r.Intn(64)
			fault = func() error { return n.InjectReorderStress(0, 0, d, hold, clamp) }
		case 6:
			fault = func() error { pods[0].FallbackToRSS(); return nil }
		default:
			// Out of service: the replacement comes long after the drain.
			fault = func() error { return n.InjectPodCrash(p, true, 10*sim.Second) }
		}
		n.Engine.At(at, func() { _ = fault() })
	}
	n.Engine.RunUntil(sim.Time(ledgerSpan))
	for _, src := range srcs {
		src.Stop()
	}
	for i := 0; i < 200 && (pods[0].live > 0 || pods[1].live > 0); i++ {
		n.RunFor(sim.Millisecond)
	}
	return pods
}

// TestPodLedgerUnderFaults runs 60 seeded fault programs, half with header
// split over a 64 KB payload buffer, and holds every pod to the ledger once
// the run drained: a packet flushed out of the reorder engine by an abrupt
// crash is fault-lost like one discarded by its core, and a late header
// whose payload was evicted ends at the pod's egress reassembly like an
// in-window one.
func TestPodLedgerUnderFaults(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		split := seed%2 == 0
		t.Run(fmt.Sprintf("seed=%d/split=%v", seed, split), func(t *testing.T) {
			for _, pr := range runLedgerProgram(t, seed, split) {
				checkLedger(t, pr)
			}
		})
	}
}

// TestHeaderOnlyPayloadGone follows one header-only packet whose payload
// the NIC buffer evicts while its stalled core holds it past the reorder
// timeout: the PLB emits it best-effort after the legal check fails, and
// the pod's egress reassembly drops it, so its journey ends dropped at
// reorder and the ledger balances.
func TestHeaderOnlyPayloadGone(t *testing.T) {
	n := smallNode(t, nil)
	wf, sf := wflows(8, 31)
	pr := addPod(t, n, pod.ModePLB, 1, sf, func(c *PodConfig) {
		c.HeaderSplit = true
		c.PayloadBufferBytes = 4000 // two 1500 B packets' payloads, not three
		c.TraceSampleEvery = 1
	})
	// The stall holds every packet past the 100 µs reorder timeout.
	if err := n.InjectCoreStall(0, 0, 1000, sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	for _, f := range wf[:3] { // one burst: the third payload evicts the first
		pr.Inject(f, 1500)
	}
	n.RunFor(20 * sim.Millisecond)
	if pr.HeaderDrops != 1 {
		t.Fatalf("header drops = %d, want 1", pr.HeaderDrops)
	}
	if be := pr.PLB.Stats().EmittedBestEffort; be != 3 {
		t.Fatalf("best-effort emissions = %d, want all 3 late packets", be)
	}
	var dropped []Journey
	for _, j := range pr.Flight().Journeys() {
		if j.Reason == JourneyDropped {
			dropped = append(dropped, j)
		}
	}
	if len(dropped) != 1 || dropped[0].Flow != wf[0] {
		t.Fatalf("dropped journeys = %v, want the first packet's alone", dropped)
	}
	j := dropped[0]
	if last := j.Steps[j.NSteps-1]; last.Verdict != StepDrop || last.Stage != stageReorder {
		t.Fatalf("journey ends %v at %s, want drop at reorder:\n%s", last.Verdict, stageNames[last.Stage], j.String())
	}
	if s := j.String(); !strings.Contains(s, "dropped") || !strings.Contains(s, "reorder") {
		t.Fatalf("journey rendering missing detail:\n%s", s)
	}
	checkLedger(t, pr)
}
