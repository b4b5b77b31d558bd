package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"albatross/internal/cachesim"
	"albatross/internal/errs"
	"albatross/internal/faults"
	"albatross/internal/plb"
	"albatross/internal/pod"
	"albatross/internal/service"
	"albatross/internal/sim"
	"albatross/internal/workload"
)

// windowDisorder computes the disorder rate between two stats snapshots.
func windowDisorder(a, b plb.Stats) float64 {
	in := b.EmittedInOrder - a.EmittedInOrder
	be := b.EmittedBestEffort - a.EmittedBestEffort
	if in+be == 0 {
		return 0
	}
	return float64(be) / float64(in+be)
}

// upCores counts the pod's cores in the PLB spray mask.
func upCores(pr *PodRuntime) int {
	up := 0
	for c := range pr.Cores {
		if pr.PLB.CoreUp(c) {
			up++
		}
	}
	return up
}

// armPlan fires plan at a lone node through its faults.Target side, the
// way a cluster hands a member its pod-level faults.
func armPlan(t testing.TB, n *Node, plan *faults.Plan) *faults.Injector {
	t.Helper()
	inj, err := faults.NewInjector(n.Engine, n, plan)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

// faultBursts are the dispatch batch sizes the stall-then-fail tests run
// under with identical expectations.
var faultBursts = []int{1, 8}

// TestCoreFailBoundedLoss is the core-eviction acceptance test: failing a
// core mid-run loses at most QueueDepth+1 packets, produces no timeout
// storm (evicted entries release immediately), and the disorder rate
// returns to the healthy baseline after recovery.
func TestCoreFailBoundedLoss(t *testing.T) {
	for _, burst := range faultBursts {
		t.Run(fmt.Sprintf("burst=%d", burst), func(t *testing.T) { coreFailBoundedLoss(t, burst) })
	}
}

func coreFailBoundedLoss(t *testing.T, burst int) {
	n, err := NewNode(NodeConfig{
		Seed:  1,
		Cache: cachesim.Config{SizeBytes: 4 << 20, Ways: 16, LineBytes: 64},
		Burst: burst,
	})
	if err != nil {
		t.Fatal(err)
	}
	wf, sf := wflows(2000, 1)
	pr := addPod(t, n, pod.ModePLB, 4, sf, nil)

	src := &workload.Source{Flows: wf, Rate: workload.ConstantRate(1e6), Seed: 2, Sink: pr.Sink()}
	if err := src.Start(n.Engine); err != nil {
		t.Fatal(err)
	}

	// Healthy baseline window.
	n.RunFor(20 * sim.Millisecond)

	// A sick core first (100× service blowup builds an RX backlog), then
	// dead: the realistic stall-then-fail sequence, and it guarantees the
	// core holds packets at failure time.
	if err := n.InjectCoreStall(0, 2, 100, 5*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	n.RunFor(1 * sim.Millisecond)
	if err := n.InjectCoreFail(0, 2, 10*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if pr.PLB.CoreUp(2) || upCores(pr) != 3 {
		t.Fatalf("core 2 not evicted from spray mask (up=%d)", upCores(pr))
	}
	s0 := pr.PLB.Stats()           // right after eviction
	n.RunFor(19 * sim.Millisecond) // fault + recovery
	if upCores(pr) != 4 {
		t.Fatalf("spray mask not restored after recovery (up=%d)", upCores(pr))
	}
	s1 := pr.PLB.Stats()

	// Post-recovery window.
	n.RunFor(20 * sim.Millisecond)
	src.Stop()
	n.RunFor(5 * sim.Millisecond) // drain
	s2 := pr.PLB.Stats()

	// Bounded loss: at most the core's RX queue depth + the in-service
	// packet (plus nothing else).
	bound := uint64(pr.cfg.QueueDepth + 1)
	if pr.FaultLost == 0 || pr.FaultLost > bound {
		t.Fatalf("FaultLost = %d, want in [1, %d]", pr.FaultLost, bound)
	}
	// Eviction released the dead core's un-returned reorder entries (those
	// not already timeout-released during the stall), and the post-fail
	// window saw no timeout storm. With the FIFOs drained, every dispatched
	// entry left by an in-order emission, a drop flag or a timeout, except
	// those the eviction released.
	evicted := s2.Dispatched - s2.EmittedInOrder - s2.DropFlagReleases - s2.TimeoutReleases
	if evicted == 0 || evicted > pr.FaultLost {
		t.Fatalf("%d FIFO entries left without emission or timeout, want in [1, FaultLost=%d]", evicted, pr.FaultLost)
	}
	if dTO := s1.TimeoutReleases - s0.TimeoutReleases; dTO > 0 {
		t.Fatalf("post-fail window caused %d timeout releases; eviction should prevent them", dTO)
	}
	// Conservation: every received packet is accounted for.
	checkLedger(t, pr)

	// Disorder rate back at baseline after recovery. The healthy run's
	// disorder at this load is ~0; allow the same slack as TestEndToEndPLB.
	if dr := windowDisorder(s1, s2); dr > 1e-3 {
		t.Fatalf("post-recovery disorder = %v, did not return to baseline", dr)
	}
}

func TestCoreStallSlowsService(t *testing.T) {
	n := smallNode(t, nil)
	_, sf := wflows(100, 1)
	pr := addPod(t, n, pod.ModePLB, 2, sf, nil)
	if err := n.InjectCoreStall(0, 1, 50, 5*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := pr.Cores[1].SlowFactor(); got != 50 {
		t.Fatalf("slow factor = %v, want 50", got)
	}
	n.RunFor(6 * sim.Millisecond)
	if got := pr.Cores[1].SlowFactor(); got != 1 {
		t.Fatalf("slow factor = %v after window, want 1", got)
	}
}

func TestPodCrashRedirectsAndRestarts(t *testing.T) {
	n := smallNode(t, nil)
	wf, sf := wflows(1000, 1)
	p0 := addPod(t, n, pod.ModePLB, 4, sf, func(c *PodConfig) { c.Spec.Name = "gw0" })
	p1 := addPod(t, n, pod.ModePLB, 4, sf, func(c *PodConfig) { c.Spec.Name = "gw1" })

	src := &workload.Source{Flows: wf, Rate: workload.ConstantRate(1e6), Seed: 2, Sink: p0.Sink()}
	if err := src.Start(n.Engine); err != nil {
		t.Fatal(err)
	}
	n.RunFor(10 * sim.Millisecond)

	if err := n.InjectPodCrash(0, false, 20*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if p0.State() != "crashed" {
		t.Fatalf("state = %s, want crashed", p0.State())
	}
	// Crashing a non-active pod is rejected.
	if err := n.InjectPodCrash(0, false, 0); !errors.Is(err, errs.BadState) {
		t.Fatalf("second crash error = %v, want errs.BadState", err)
	}
	n.RunFor(10 * sim.Millisecond)
	if p0.Redirected == 0 || p1.Rx == 0 {
		t.Fatalf("no redirection: p0.Redirected=%d p1.Rx=%d", p0.Redirected, p1.Rx)
	}
	if p0.CrashDrops != 0 {
		t.Fatalf("CrashDrops = %d with a live sibling", p0.CrashDrops)
	}
	// An abrupt crash loses only what was in flight: at most every core's
	// RX queue plus its in-service packet.
	if bound := uint64(len(p0.Cores) * (p0.cfg.QueueDepth + 1)); p0.FaultLost == 0 || p0.FaultLost > bound {
		t.Fatalf("FaultLost = %d, want in [1, %d]", p0.FaultLost, bound)
	}

	n.RunFor(15 * sim.Millisecond) // past restart
	if p0.State() != "active" || p0.Restarts != 1 {
		t.Fatalf("state = %s restarts = %d after restart window", p0.State(), p0.Restarts)
	}
	rxAtRestart := p0.Rx
	n.RunFor(10 * sim.Millisecond)
	src.Stop()
	n.RunFor(5 * sim.Millisecond)
	if p0.Rx <= rxAtRestart {
		t.Fatal("pod not processing traffic after restart")
	}
	if p1.Tx == 0 {
		t.Fatal("sibling delivered none of the redirected traffic")
	}
	// The crash flushed the reorder engine too: every packet it held is
	// fault-lost, once.
	checkLedger(t, p0)
	checkLedger(t, p1)
}

func TestGracefulDrainLosesNothing(t *testing.T) {
	n := smallNode(t, nil)
	wf, sf := wflows(1000, 1)
	p0 := addPod(t, n, pod.ModePLB, 4, sf, func(c *PodConfig) { c.Spec.Name = "gw0" })
	p1 := addPod(t, n, pod.ModePLB, 4, sf, func(c *PodConfig) { c.Spec.Name = "gw1" })

	src := &workload.Source{Flows: wf, Rate: workload.ConstantRate(1e6), Seed: 2, Sink: p0.Sink()}
	if err := src.Start(n.Engine); err != nil {
		t.Fatal(err)
	}
	n.RunFor(10 * sim.Millisecond)
	if err := n.InjectPodCrash(0, true, 10*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if p0.State() != "draining" {
		t.Fatalf("state = %s, want draining", p0.State())
	}
	n.RunFor(30 * sim.Millisecond)
	src.Stop()
	n.RunFor(5 * sim.Millisecond)

	if p0.FaultLost != 0 {
		t.Fatalf("gray upgrade lost %d packets, want 0", p0.FaultLost)
	}
	if p0.Redirected == 0 || p1.Tx == 0 {
		t.Fatalf("drain did not redirect (redirected=%d, sibling tx=%d)", p0.Redirected, p1.Tx)
	}
	if p0.State() != "active" || p0.Restarts != 1 {
		t.Fatalf("state = %s restarts = %d after upgrade, want active after 1", p0.State(), p0.Restarts)
	}
	// All of p0's own in-flight packets completed.
	checkLedger(t, p0)
	checkLedger(t, p1)
}

// TestAutoFallbackOnReorderStress holds every order-queue head past the
// 100µs reorder timeout and requires the watchdog to switch the pod to RSS.
// A twin run without the stress is the baseline: it stays in PLB with
// reorder residency well under the bound, while the stressed pod's
// residency p99 reaches the bound, its timeout releases storm, and its
// sampling flight recorder commits timeout-release journeys.
func TestAutoFallbackOnReorderStress(t *testing.T) {
	type outcome struct {
		pr  *PodRuntime
		dTO uint64 // timeout releases over the 20ms stress window
		p99 int64  // reorder-stage residency p99 at the window's end
	}
	drive := func(stress bool) outcome {
		n := smallNode(t, nil)
		wf, sf := wflows(1000, 1)
		pr := addPod(t, n, pod.ModePLB, 4, sf, func(c *PodConfig) { c.TraceSampleEvery = 64 })
		pr.EnableAutoFallback()

		src := &workload.Source{Flows: wf, Rate: workload.ConstantRate(1e6), Seed: 2, Sink: pr.Sink()}
		if err := src.Start(n.Engine); err != nil {
			t.Fatal(err)
		}
		n.RunFor(5 * sim.Millisecond)
		if pr.Mode() != pod.ModePLB {
			t.Fatal("healthy pod fell back prematurely")
		}
		to0 := pr.PLB.Stats().TimeoutReleases
		if stress {
			// Force every head to wait out the timeout on all order queues.
			for q := 0; q < pr.Pod.ReorderQueues; q++ {
				if err := n.InjectReorderStress(0, q, 20*sim.Millisecond, true, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
		n.RunFor(20 * sim.Millisecond)
		toAtEnd := pr.PLB.Stats().TimeoutReleases
		o := outcome{pr: pr, dTO: toAtEnd - to0, p99: pr.StageResidency()[stageReorder].Quantile(0.99)}
		n.RunFor(20 * sim.Millisecond)
		src.Stop()
		n.RunFor(5 * sim.Millisecond)
		// After fallback, new packets bypass the reorder engine entirely.
		if to := pr.PLB.Stats().TimeoutReleases; to < toAtEnd {
			t.Fatalf("timeout releases went backwards: %d -> %d", toAtEnd, to)
		}
		if pr.Tx == 0 {
			t.Fatal("no traffic delivered")
		}
		return o
	}
	healthy, stressed := drive(false), drive(true)

	if pr := healthy.pr; pr.Mode() != pod.ModePLB || pr.Fallbacks != 0 {
		t.Fatalf("healthy pod left PLB (mode=%v fallbacks=%d)", pr.Mode(), pr.Fallbacks)
	}
	if pr := stressed.pr; pr.Mode() != pod.ModeRSS || pr.Fallbacks != 1 {
		t.Fatalf("watchdog did not fall back (mode=%v fallbacks=%d)", pr.Mode(), pr.Fallbacks)
	}
	if stressed.dTO <= healthy.dTO*10+100 {
		t.Fatalf("stress forced no timeout storm: %d timeout releases vs %d healthy", stressed.dTO, healthy.dTO)
	}
	if stressed.p99 < int64(90*sim.Microsecond) || healthy.p99 >= int64(50*sim.Microsecond) {
		t.Fatalf("reorder residency p99 stressed %dns (want >= 90µs), healthy %dns (want < 50µs)",
			stressed.p99, healthy.p99)
	}
	sf, hf := stressed.pr.Flight(), healthy.pr.Flight()
	if sf.Timeouts == 0 || len(sf.Journeys()) == 0 || hf.Timeouts != 0 {
		t.Fatalf("flight recorder timeout journeys: stressed %d (%d retained), healthy %d",
			sf.Timeouts, len(sf.Journeys()), hf.Timeouts)
	}
}

func TestRxLossLeavesHOLEntries(t *testing.T) {
	n := smallNode(t, nil)
	wf, sf := wflows(1000, 1)
	pr := addPod(t, n, pod.ModePLB, 4, sf, nil)

	src := &workload.Source{Flows: wf, Rate: workload.ConstantRate(1e6), Seed: 2, Sink: pr.Sink()}
	if err := src.Start(n.Engine); err != nil {
		t.Fatal(err)
	}
	n.RunFor(5 * sim.Millisecond)
	s0 := pr.PLB.Stats()
	if err := n.InjectRxLoss(0, 1, 0.5, 10*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	n.RunFor(15 * sim.Millisecond)
	src.Stop()
	n.RunFor(5 * sim.Millisecond)
	s1 := pr.PLB.Stats()

	if pr.RxLost == 0 {
		t.Fatal("no RX loss recorded")
	}
	// Lost packets' FIFO entries can only leave by timeout.
	if dTO := s1.TimeoutReleases - s0.TimeoutReleases; dTO < pr.RxLost {
		t.Fatalf("timeout releases %d < rx losses %d", dTO, pr.RxLost)
	}
	checkLedger(t, pr)
}

// TestBGPFlapLoneNodeCycle drives a lone node through a whole flap: BFD
// detection, route withdrawal, the link's return and the 1s
// re-establishment, then re-advertisement. A lone node has no survivor to
// carry its traffic (in a cluster, ECMP moves it), so every packet from the
// flap until re-advertisement is blackholed, and delivery resumes with the
// first packet after it.
func TestBGPFlapLoneNodeCycle(t *testing.T) {
	n := smallNode(t, nil)
	wf, sf := wflows(500, 1)
	pr := addPod(t, n, pod.ModePLB, 4, sf, nil)
	up := n.EnableUplink()

	// Each packet must land in exactly one of Rx and Blackholed. The sink
	// notes the first and last blackholed arrival and the first arrival
	// received after them.
	var holes uint64
	var firstHole, lastHole, resumed sim.Time
	sink := func(f workload.Flow, bytes int) {
		rx, bh := pr.Rx, n.Blackholed
		pr.Inject(f, bytes)
		now := n.Engine.Now()
		switch {
		case n.Blackholed == bh+1 && pr.Rx == rx:
			if holes == 0 {
				firstHole = now
			}
			if resumed != 0 {
				t.Fatalf("packet at %v blackholed after delivery resumed at %v", now, resumed)
			}
			holes++
			lastHole = now
		case pr.Rx == rx+1 && n.Blackholed == bh:
			if holes > 0 && resumed == 0 {
				resumed = now
			}
		default:
			t.Fatalf("packet at %v: rx +%d, blackholed +%d; want exactly one of them",
				now, pr.Rx-rx, n.Blackholed-bh)
		}
	}
	const gap = 10 * sim.Microsecond // 100 kpps
	src := &workload.Source{Flows: wf, Rate: workload.ConstantRate(1e5), Deterministic: true, Seed: 2, Sink: sink}
	if err := src.Start(n.Engine); err != nil {
		t.Fatal(err)
	}
	n.RunFor(100 * sim.Millisecond)
	if n.Blackholed != 0 {
		t.Fatal("healthy uplink dropped traffic")
	}

	flapAt := n.Engine.Now()
	const outage = 500 * sim.Millisecond
	if err := n.InjectBGPFlap(outage); err != nil {
		t.Fatal(err)
	}
	n.RunFor(2 * sim.Second)
	src.Stop()
	n.RunFor(5 * sim.Millisecond)

	st := up.Stats()
	if st.Detections != 1 || st.Recoveries != 1 {
		t.Fatalf("detections=%d recoveries=%d, want 1/1", st.Detections, st.Recoveries)
	}
	// BFD detection: 3 missed 50ms probes, quantized to the probe grid.
	if st.LastDetectNS < 150*sim.Millisecond || st.LastDetectNS > 200*sim.Millisecond {
		t.Fatalf("detection latency = %v, want [150ms, 200ms]", st.LastDetectNS)
	}
	// The link returns at flap+500ms, two probes on the 50ms grid bring BFD
	// up at flap+550ms, and the route is re-advertised 1s later.
	if st.DownTime != outage+50*sim.Millisecond+sim.Second {
		t.Fatalf("route down for %v, want 1.55s", st.DownTime)
	}
	readvertised := flapAt.Add(st.DownTime)
	if firstHole < flapAt || firstHole > flapAt.Add(gap) {
		t.Fatalf("first blackholed packet at %v, flap at %v", firstHole, flapAt)
	}
	if lastHole > readvertised || lastHole < readvertised.Add(-gap) {
		t.Fatalf("last blackholed packet at %v, route re-advertised at %v", lastHole, readvertised)
	}
	if resumed < readvertised || resumed > readvertised.Add(gap) {
		t.Fatalf("delivery resumed at %v, route re-advertised at %v", resumed, readvertised)
	}
	if holes != n.Blackholed || src.Generated != pr.Rx+n.Blackholed {
		t.Fatalf("sent %d, rx %d + blackholed %d (sink saw %d holes)", src.Generated, pr.Rx, n.Blackholed, holes)
	}
	if !up.RouteUp() {
		t.Fatal("route not re-advertised after flap")
	}

	// A flap shorter than the detection window is absorbed.
	before := n.Uplink().Stats().Detections
	if err := n.InjectBGPFlap(100 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	n.RunFor(1 * sim.Second)
	after := n.Uplink().Stats()
	if after.Detections != before || after.Absorbed != 1 {
		t.Fatalf("short flap not absorbed: detections=%d absorbed=%d", after.Detections, after.Absorbed)
	}
}

// A packet lost anywhere is counted where it died and returns its context:
// at the pod-lifecycle gate (a crashed pod with no sibling), at the uplink
// gate (the BFD blackhole window), and inside the path (a core failure
// discards its queue).
func TestLossCountedWhereDataDies(t *testing.T) {
	t.Run("crashed-pod", func(t *testing.T) {
		n := smallNode(t, nil)
		wf, sf := wflows(100, 1)
		pr := addPod(t, n, pod.ModePLB, 4, sf, nil)
		if err := n.InjectPodCrash(0, false, sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		pr.Inject(wf[0], 256)
		if pr.CrashDrops != 1 || pr.Rx != 0 || pr.live != 0 {
			t.Fatalf("packet to a crashed pod: crash drops %d, rx %d, live %d", pr.CrashDrops, pr.Rx, pr.live)
		}
	})

	t.Run("blackhole", func(t *testing.T) {
		n := smallNode(t, nil)
		wf, sf := wflows(100, 1)
		pr := addPod(t, n, pod.ModePLB, 4, sf, nil)
		n.EnableUplink()
		if err := n.InjectBGPFlap(500 * sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		n.RunFor(10 * sim.Millisecond) // link down, route still advertised
		pr.Inject(wf[0], 256)
		if n.Blackholed != 1 || pr.Rx != 0 || pr.live != 0 {
			t.Fatalf("packet in the BFD window: blackholed %d, rx %d, live %d", n.Blackholed, pr.Rx, pr.live)
		}
	})

	t.Run("core-fail", func(t *testing.T) {
		n := smallNode(t, nil)
		wf, sf := wflows(1000, 40)
		pr := addPod(t, n, pod.ModeRSS, 1, sf, nil)
		for i := 0; i < 200; i++ {
			pr.Inject(wf[i], 256)
		}
		n.Engine.At(sim.Time(10*sim.Microsecond), func() { pr.Inject(wf[0], 256) })
		n.Engine.At(sim.Time(20*sim.Microsecond), func() {
			if err := n.InjectCoreFail(0, 0, 0); err != nil {
				t.Error(err)
			}
		})
		n.RunFor(sim.Millisecond)
		if pr.FaultLost == 0 {
			t.Fatal("core failure lost no packets")
		}
		if pr.live != 0 {
			t.Fatalf("%d contexts live after the core failed", pr.live)
		}
		assertStageConservation(t, pr)
	})
}

// TestFaultPlanDeterminism runs the same fault-laden scenario twice and
// requires identical counters — the byte-identical contract extended to
// fault runs.
func TestFaultPlanDeterminism(t *testing.T) {
	run := func() (uint64, uint64, uint64, uint64, int) {
		plan := (&faults.Plan{}).
			CoreFail(5*sim.Millisecond, 0, 1, 10*sim.Millisecond)
		plan.Faults = append(plan.Faults,
			faults.Fault{Kind: faults.KindReorderStress, At: 20 * sim.Millisecond, Duration: 5 * sim.Millisecond, HoldHeads: true},
			faults.Fault{Kind: faults.KindRxLoss, At: 30 * sim.Millisecond, Core: 2, Factor: 0.3, Duration: 5 * sim.Millisecond})
		plan.BGPFlap(40*sim.Millisecond, 300*sim.Millisecond)
		n, err := NewNode(NodeConfig{
			Seed:  7,
			Cache: cachesim.Config{SizeBytes: 4 << 20, Ways: 16, LineBytes: 64},
		})
		if err != nil {
			t.Fatal(err)
		}
		inj := armPlan(t, n, plan)
		n.EnableUplink()
		wf, sf := wflows(1000, 3)
		pr, err := n.AddPod(PodConfig{
			Spec: pod.Spec{Name: "gw", Service: service.VPCVPC,
				DataCores: 4, CtrlCores: 2, Mode: pod.ModePLB},
			Flows: sf,
		})
		if err != nil {
			t.Fatal(err)
		}
		src := &workload.Source{Flows: wf, Rate: workload.ConstantRate(1e6), Seed: 2, Sink: pr.Sink()}
		if err := src.Start(n.Engine); err != nil {
			t.Fatal(err)
		}
		n.RunFor(500 * sim.Millisecond)
		src.Stop()
		n.RunFor(5 * sim.Millisecond)
		checkLedger(t, pr)
		return pr.Tx, pr.FaultLost, pr.RxLost, n.Blackholed, len(inj.Log())
	}
	tx1, fl1, rx1, bh1, ev1 := run()
	tx2, fl2, rx2, bh2, ev2 := run()
	if tx1 != tx2 || fl1 != fl2 || rx1 != rx2 || bh1 != bh2 || ev1 != ev2 {
		t.Fatalf("fault run not deterministic: (%d,%d,%d,%d,%d) vs (%d,%d,%d,%d,%d)",
			tx1, fl1, rx1, bh1, ev1, tx2, fl2, rx2, bh2, ev2)
	}
	if ev1 != 4 {
		t.Fatalf("fault log has %d events, want 4", ev1)
	}
}

// InjectFault is the node's one fault entry: every pod-level kind reaches
// the Inject* method of its kind with the fault's fields, pod-drain as the
// graceful crash, and a node-level kind is rejected.
func TestInjectFaultRoutesEveryKind(t *testing.T) {
	n := smallNode(t, nil)
	_, sf := wflows(100, 1)
	var prs []*PodRuntime
	for _, name := range []string{"gw0", "gw1", "gw2"} {
		prs = append(prs, addPod(t, n, pod.ModePLB, 4, sf, func(c *PodConfig) { c.Spec.Name = name }))
	}
	ms := sim.Millisecond
	for _, f := range []faults.Fault{
		{Kind: faults.KindCoreStall, Pod: 0, Core: 1, Factor: 3, Duration: ms},
		{Kind: faults.KindCoreFail, Pod: 0, Core: 2},
		{Kind: faults.KindReorderStress, Pod: 0, Queue: 0, Duration: ms, DepthClamp: 2},
		{Kind: faults.KindRxLoss, Pod: 0, Core: 3, Factor: 0.5, Duration: ms},
		{Kind: faults.KindPodCrash, Pod: 1, Duration: ms},
		{Kind: faults.KindPodDrain, Pod: 2, Duration: ms},
		{Kind: faults.KindBGPFlap, Duration: ms},
	} {
		if err := n.InjectFault(f); err != nil {
			t.Fatalf("%v: %v", f.Kind, err)
		}
	}
	p0 := prs[0]
	if got := p0.Cores[1].SlowFactor(); got != 3 {
		t.Fatalf("core-stall: core 1 slow factor %v, want 3", got)
	}
	if !p0.Cores[2].Failed() || p0.PLB.CoreUp(2) {
		t.Fatal("core-fail: core 2 still up")
	}
	if p0.rxLossProb == nil || p0.rxLossProb[3] != 0.5 || p0.rxLossUntil[3] != sim.Time(ms) {
		t.Fatal("rx-loss: core 3 has no loss window")
	}
	if got := prs[1].State(); got != "crashed" {
		t.Fatalf("pod-crash: pod 1 is %s", got)
	}
	if got := prs[2].State(); got != "draining" {
		t.Fatalf("pod-drain: pod 2 is %s, want the graceful crash", got)
	}
	if n.Uplink() == nil || n.Uplink().LinkUp() {
		t.Fatal("bgp-flap: uplink not down")
	}
	// The reorder-stress fields reach PLB.StressQueue: an unknown queue is its
	// error.
	err := n.InjectFault(faults.Fault{Kind: faults.KindReorderStress, Queue: 99, Duration: ms, HoldHeads: true})
	if !errors.Is(err, errs.BadConfig) || !strings.Contains(err.Error(), "stress queue 99") {
		t.Fatalf("reorder-stress on queue 99 = %v", err)
	}
	if err := n.InjectFault(faults.Fault{Kind: faults.KindCoreFail, Pod: 5}); !errors.Is(err, errs.BadConfig) {
		t.Fatalf("core-fail on pod 5 = %v, want BadConfig", err)
	}
	for _, k := range []faults.Kind{faults.KindNodeCrash, faults.KindNodeDrain, faults.KindUplinkWithdraw} {
		if err := n.InjectFault(faults.Fault{Kind: k, Duration: ms}); !errors.Is(err, errs.BadConfig) {
			t.Fatalf("%v on a node = %v, want BadConfig", k, err)
		}
	}
}
