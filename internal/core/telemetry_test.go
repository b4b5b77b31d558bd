package core

import (
	"strings"
	"testing"

	"albatross/internal/metrics"
	"albatross/internal/nicsim"
	"albatross/internal/pod"
	"albatross/internal/sim"
	"albatross/internal/workload"
)

// assertResidencyCounts checks the histogram/counter contract: every stage
// records exactly one residency sample per packet that left it, by any
// verdict (Out or Drop).
func assertResidencyCounts(t *testing.T, pr *PodRuntime) {
	t.Helper()
	st := pr.Stages()
	for i, h := range pr.StageResidency() {
		if want := st[i].Out + st[i].Drops; h.Count() != want {
			t.Fatalf("stage %q residency count %d != out+drops %d", st[i].Name, h.Count(), want)
		}
	}
}

// TestCPULatencyIsTheCPUStage holds the Fig. 11 instrument to the pipeline:
// PodRuntime.CPULatency is the CPU stage's residency histogram itself, and
// it holds one sample per packet that left the stage — each admission the
// core refused (as zero) included — so nothing records into it a second
// time. The export carries
// it once, as the CPU stage's residency.
func TestCPULatencyIsTheCPUStage(t *testing.T) {
	n := smallNode(t, nil)
	wf, sf := wflows(16, 3)
	pr := addPod(t, n, pod.ModeRSS, 1, sf, func(c *PodConfig) { c.QueueDepth = 2 })
	cpuResid := pr.StageResidency()[stageCPU]
	if pr.CPULatency != cpuResid {
		t.Fatal("CPULatency is not the CPU stage's residency histogram")
	}
	for _, f := range wf[:8] { // eight at one instant onto one core of depth 2
		pr.Inject(f, 256)
	}
	n.RunFor(sim.Millisecond)
	checkLedger(t, pr)
	st := pr.Stages()[stageCPU]
	if pr.QueueDrops == 0 || st.Out == 0 {
		t.Fatalf("need refused and served packets: queue drops %d, cpu out %d", pr.QueueDrops, st.Out)
	}
	if c := pr.CPULatency.Count(); c != st.Out+st.Drops || c != st.In {
		t.Fatalf("CPULatency count %d, want the CPU stage's out+drops %d (in %d)", c, st.Out+st.Drops, st.In)
	}
	if pr.CPULatency.Min() != 0 {
		t.Fatalf("CPULatency min %d ns, want a refused admission's 0", pr.CPULatency.Min())
	}

	snap := n.Metrics()
	if strings.Contains(snap.Prometheus(), "albatross_pod_cpu_latency_ns") {
		t.Fatal("export still carries a second CPU latency family")
	}
	sv, ok := snap.Find("albatross_stage_residency_ns",
		metrics.L("pod", "gw"), metrics.L("slot", "0"), metrics.L("stage", stageNames[stageCPU]))
	if !ok || sv.Hist == nil || sv.Hist.Count != pr.CPULatency.Count() {
		t.Fatalf("CPU stage residency series = %+v ok=%v, want count %d", sv, ok, pr.CPULatency.Count())
	}
}

func TestStageResidencyPartitionsLatency(t *testing.T) {
	n := smallNode(t, nil)
	wf, sf := wflows(2000, 1)
	pr := addPod(t, n, pod.ModePLB, 4, sf, nil)
	runStageTraffic(t, n, pr, wf, 50*sim.Millisecond)
	if pr.Tx == 0 || pr.Tx != pr.Rx {
		t.Fatalf("need a drop-free run: tx=%d rx=%d", pr.Tx, pr.Rx)
	}
	assertResidencyCounts(t, pr)

	// Stage enter times are contiguous (each stage enters the instant the
	// previous one leaves) and Record keeps exact int64 sums, so with no
	// drops the per-stage residencies partition end-to-end latency EXACTLY.
	var sum int64
	for _, h := range pr.StageResidency() {
		sum += h.Sum()
	}
	if sum != pr.Latency.Sum() {
		t.Fatalf("stage residency sum %d != latency sum %d", sum, pr.Latency.Sum())
	}

	// The NIC DMA stages are deterministic: every PLB data packet spends
	// exactly the Tab. 4 model latency there, so min == max == the model.
	model := nicsim.DefaultLatencyModel()
	resid := pr.StageResidency()
	if in := resid[stageIngress]; in.Min() != in.Max() || in.Min() != int64(model.IngressLatency(nicsim.ClassPLB)) {
		t.Fatalf("nic-ingress residency [%d,%d], want exactly %d",
			in.Min(), in.Max(), int64(model.IngressLatency(nicsim.ClassPLB)))
	}
	if eg := resid[stageEgress]; eg.Min() != eg.Max() || eg.Min() != int64(model.EgressLatency(nicsim.ClassPLB)) {
		t.Fatalf("nic-egress residency [%d,%d], want exactly %d",
			eg.Min(), eg.Max(), int64(model.EgressLatency(nicsim.ClassPLB)))
	}
	// The CPU stage holds queue wait + service time: strictly positive.
	if cpu := resid[stageCPU]; cpu.Min() <= 0 || cpu.Count() != pr.Tx {
		t.Fatalf("cpu residency min=%d count=%d (tx=%d)", cpu.Min(), cpu.Count(), pr.Tx)
	}
	// Synchronous stages occupy zero virtual time.
	for _, i := range []int{stageClassify, stageGOP, stageDispatch} {
		if h := resid[i]; h.Max() != 0 {
			t.Fatalf("sync stage %d residency max = %d, want 0", i, h.Max())
		}
	}
}

func TestFlightRecorderCapturesDrops(t *testing.T) {
	n := smallNode(t, nil)
	wf := workload.GenerateFlows(1000, 10, 9)
	sf := workload.ServiceFlows(wf, 0.2) // 20% ACL-denied
	pr := addPod(t, n, pod.ModePLB, 4, sf, func(c *PodConfig) {
		c.TraceSampleEvery = 1 // trace every packet
	})
	runStageTraffic(t, n, pr, wf, 20*sim.Millisecond)

	fr := pr.Flight()
	if fr.Sampled != pr.Rx {
		t.Fatalf("sampled %d != rx %d at every=1", fr.Sampled, pr.Rx)
	}
	if fr.Drops == 0 {
		t.Fatal("ACL drops occurred but no dropped journeys were recorded")
	}
	if fr.Drops != pr.ServiceDrop {
		t.Fatalf("journey drops %d != service drops %d", fr.Drops, pr.ServiceDrop)
	}
	// After drain every sampled journey was finished exactly once.
	if fr.Drops+fr.Timeouts+fr.Discarded != fr.Sampled {
		t.Fatalf("journey accounting: %d+%d+%d != %d",
			fr.Drops, fr.Timeouts, fr.Discarded, fr.Sampled)
	}
	js := fr.Journeys()
	if len(js) != traceRing {
		t.Fatalf("ring retained %d journeys, want full ring of %d (committed %d)",
			len(js), traceRing, fr.Drops+fr.Timeouts)
	}
	for _, j := range js {
		if j.Reason != JourneyDropped {
			t.Fatalf("unexpected reason %v", j.Reason)
		}
		if j.NSteps == 0 {
			t.Fatal("journey with no steps")
		}
		last := j.Steps[j.NSteps-1]
		if last.Verdict != StepDrop || last.Stage != int8(stageCPU) {
			t.Fatalf("ACL drop journey ends %v at stage %d, want drop at cpu", last.Verdict, last.Stage)
		}
		if !j.ViaPLB || j.Core < 0 {
			t.Fatalf("PLB journey missing dispatch detail: viaPLB=%v core=%d", j.ViaPLB, j.Core)
		}
		if j.End < j.T0 {
			t.Fatalf("journey ends before it starts: %v < %v", j.End, j.T0)
		}
		s := j.String()
		if !strings.Contains(s, "dropped") || !strings.Contains(s, "cpu") {
			t.Fatalf("journey rendering missing detail:\n%s", s)
		}
	}
	assertResidencyCounts(t, pr)
}

func TestFlightRecorderCapturesTimeoutReleases(t *testing.T) {
	n := smallNode(t, nil)
	wf, sf := wflows(1000, 9)
	pr := addPod(t, n, pod.ModePLB, 4, sf, func(c *PodConfig) {
		c.TraceSampleEvery = 1
	})
	src := &workload.Source{Flows: wf, Rate: workload.ConstantRate(1e6), Seed: 10, Sink: pr.Sink()}
	if err := src.Start(n.Engine); err != nil {
		t.Fatal(err)
	}
	n.RunFor(10 * sim.Millisecond)
	// Forced HOL: hold every order-queue head past the reorder timeout, so
	// returned packets are released best-effort (timeout releases).
	for q := 0; q < pr.Pod.ReorderQueues; q++ {
		if err := n.InjectReorderStress(0, q, 5*sim.Millisecond, true, 0); err != nil {
			t.Fatal(err)
		}
	}
	n.RunFor(20 * sim.Millisecond)
	drainPod(t, n, pr, src)

	fr := pr.Flight()
	if fr.Timeouts == 0 {
		t.Fatal("HOL run produced no timeout-release journeys")
	}
	var sawTimeout bool
	for _, j := range fr.Journeys() {
		if j.Reason != JourneyTimeoutRelease {
			continue
		}
		sawTimeout = true
		last := j.Steps[j.NSteps-1]
		// Timeout-released packets still complete through egress.
		if last.Verdict != StepExit || last.Stage != int8(stageEgress) {
			t.Fatalf("timeout journey ends %v at stage %d, want exit at nic-egress",
				last.Verdict, last.Stage)
		}
	}
	if !sawTimeout {
		t.Fatal("ring retained no timeout-release journeys")
	}
}

func TestFlightRecorderDisabled(t *testing.T) {
	n := smallNode(t, nil)
	wf, sf := wflows(500, 1)
	pr := addPod(t, n, pod.ModePLB, 4, sf, func(c *PodConfig) {
		c.TraceSampleEvery = -1
	})
	runStageTraffic(t, n, pr, wf, 10*sim.Millisecond)
	fr := pr.Flight()
	if fr.Sampled != 0 || len(fr.Journeys()) != 0 {
		t.Fatalf("disabled recorder sampled %d journeys", fr.Sampled)
	}
}

func TestFlightRecorderDeterministic(t *testing.T) {
	run := func() []string {
		n := smallNode(t, nil)
		wf := workload.GenerateFlows(1000, 10, 9)
		sf := workload.ServiceFlows(wf, 0.2)
		pr := addPod(t, n, pod.ModePLB, 4, sf, func(c *PodConfig) {
			c.TraceSampleEvery = 8
		})
		runStageTraffic(t, n, pr, wf, 20*sim.Millisecond)
		var out []string
		for _, j := range pr.Flight().Journeys() {
			out = append(out, j.String())
		}
		return out
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no journeys recorded")
	}
	if len(a) != len(b) {
		t.Fatalf("journey counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("journey %d differs between identical runs:\n%s\nvs\n%s", i, a[i], b[i])
		}
	}
}
