package core

import (
	"testing"

	"albatross/internal/nicsim"
	"albatross/internal/packet"
	"albatross/internal/pod"
	"albatross/internal/sim"
	"albatross/internal/workload"
)

// pkt_dir's RSS class holds in a PLB pod: an ICMP health check keeps its
// flow's core, never reaches the spray or the reorder engine, and leaves
// through the RSS egress pipeline.
func TestRSSClassSkipsSprayInPLBPod(t *testing.T) {
	n := smallNode(t, nil)
	wf := workload.GenerateFlows(100, 10, 7)
	wf[0].Tuple.Proto = packet.IPProtocolICMP
	pr := addPod(t, n, pod.ModePLB, 4, workload.ServiceFlows(wf, 0), nil)
	icmp := wf[0]
	const sent = 20
	for i := 0; i < sent; i++ {
		n.Engine.At(sim.Time(i)*sim.Time(50*sim.Microsecond), func() { pr.Inject(icmp, 256) })
	}
	n.RunFor(2 * sim.Millisecond)

	if pr.Tx != sent {
		t.Fatalf("tx = %d, want %d", pr.Tx, sent)
	}
	if d := pr.PLB.Stats().Dispatched; d != 0 {
		t.Fatalf("PLB dispatched %d RSS-class packets", d)
	}
	home := pr.RSS.Queue(icmp.Tuple)
	for i, c := range pr.Cores {
		if busy := c.BusyTime() > 0; busy != (i == home) {
			t.Fatalf("core %d busy = %v; every packet belongs on core %d", i, busy, home)
		}
	}
	egress := pr.StageResidency()[stageEgress]
	if want := int64(nicLatency.EgressLatency(nicsim.ClassRSS)); egress.Min() != want || egress.Max() != want {
		t.Fatalf("egress residency [%d, %d] ns, want the RSS class's %d", egress.Min(), egress.Max(), want)
	}
	assertStageConservation(t, pr)
}

// Probes are packets of the one path: the pod's Rx equals the classify
// stage's In, and every stage balances, with probes among the traffic.
func TestProbesCountInEveryStage(t *testing.T) {
	n := smallNode(t, nil)
	wf, sf := wflows(1000, 40)
	pr := addPod(t, n, pod.ModePLB, 4, sf, nil)
	src := &workload.Source{Flows: wf, Rate: workload.ConstantRate(2e6), Seed: 41, Sink: pr.Sink()}
	if err := src.Start(n.Engine); err != nil {
		t.Fatal(err)
	}
	const probes = 25
	delivered := 0
	for i := 0; i < probes; i++ {
		f := wf[i]
		n.Engine.At(sim.Time(i+1)*sim.Time(200*sim.Microsecond), func() {
			pr.InjectProbe(f, func(r ProbeResult) {
				if !r.Dropped {
					delivered++
				}
			})
		})
	}
	n.RunFor(10 * sim.Millisecond)
	drainPod(t, n, pr, src)

	if delivered != probes {
		t.Fatalf("%d of %d probes delivered", delivered, probes)
	}
	if in := pr.Stages()[stageClassify].In; in != pr.Rx {
		t.Fatalf("classify in %d != pod Rx %d", in, pr.Rx)
	}
	assertStageConservation(t, pr)
}

// probeLog collects probe results in completion order.
type probeLog []ProbeResult

func (l *probeLog) send(pr *PodRuntime, f workload.Flow) {
	pr.InjectProbe(f, func(r ProbeResult) { *l = append(*l, r) })
}

// dropped reports whether exactly one probe completed, as dropped.
func (l probeLog) dropped() bool { return len(l) == 1 && l[0].Dropped }

// A probe lost anywhere completes as dropped: at the pod-lifecycle gate (a
// crashed pod with no sibling), at the uplink gate (the BFD blackhole
// window), and inside the path (a core failure discards its queue).
func TestProbeDroppedWhereDataDies(t *testing.T) {
	t.Run("crashed-pod", func(t *testing.T) {
		n := smallNode(t, nil)
		wf, sf := wflows(100, 1)
		pr := addPod(t, n, pod.ModePLB, 4, sf, nil)
		if err := n.InjectPodCrash(0, false, sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		var got probeLog
		got.send(pr, wf[0])
		if !got.dropped() || pr.CrashDrops != 1 {
			t.Fatalf("probe to a crashed pod: %+v, crash drops %d", got, pr.CrashDrops)
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
		var got probeLog
		got.send(pr, wf[0])
		if !got.dropped() || n.Blackholed != 1 {
			t.Fatalf("probe in the BFD window: %+v, blackholed %d", got, n.Blackholed)
		}
	})

	t.Run("core-fail", func(t *testing.T) {
		n := smallNode(t, nil)
		wf, sf := wflows(1000, 40)
		pr := addPod(t, n, pod.ModeRSS, 1, sf, nil)
		for i := 0; i < 200; i++ {
			pr.Inject(wf[i], 256)
		}
		var got probeLog
		n.Engine.At(sim.Time(10*sim.Microsecond), func() { got.send(pr, wf[0]) })
		n.Engine.At(sim.Time(20*sim.Microsecond), func() {
			if err := n.InjectCoreFail(0, 0, 0); err != nil {
				t.Error(err)
			}
		})
		n.RunFor(sim.Millisecond)
		if !got.dropped() || pr.FaultLost == 0 {
			t.Fatalf("probe queued on a failed core: %+v, fault lost %d", got, pr.FaultLost)
		}
		if pr.live != 0 {
			t.Fatalf("%d contexts live after the core failed", pr.live)
		}
		assertStageConservation(t, pr)
	})
}
