package core

import (
	"testing"

	"albatross/internal/pod"
	"albatross/internal/sim"
	"albatross/internal/workload"
)

// triggerPod builds a drop-free PLB pod tracing every packet into a ring
// large enough to retain everything the triggers commit.
func triggerPod(t *testing.T, n *Node) (*PodRuntime, []workload.Flow) {
	t.Helper()
	wf, sf := wflows(1000, 5)
	pr := addPod(t, n, pod.ModePLB, 4, sf, func(c *PodConfig) {
		c.TraceSampleEvery = 1
		c.TraceRing = 1 << 14
	})
	return pr, wf
}

func TestTriggerLatencyOverCommitsAllCompleted(t *testing.T) {
	n := smallNode(t, nil)
	pr, wf := triggerPod(t, n)
	fr := pr.Flight()
	// 1ns is under any end-to-end latency: every completed in-order journey
	// must commit. The VNI watch is armed too — latency takes precedence,
	// so vni-watch must never appear as a reason.
	fr.TriggerLatencyOver(1)
	fr.TriggerVNI(wf[0].VNI)
	runStageTraffic(t, n, pr, wf, 20*sim.Millisecond)

	completed := fr.Sampled - fr.Drops - fr.Timeouts
	if fr.Triggered == 0 || fr.Triggered != completed {
		t.Fatalf("triggered %d, want every completed journey (%d)", fr.Triggered, completed)
	}
	if fr.Discarded != 0 {
		t.Fatalf("discarded %d journeys with an always-on trigger", fr.Discarded)
	}
	for _, j := range fr.Journeys() {
		if j.Reason == JourneyVNIWatch {
			t.Fatal("vni-watch committed a journey despite latency-trigger precedence")
		}
		if j.Reason == JourneyLatencyTrigger && j.End.Sub(j.T0) < 1 {
			t.Fatalf("latency-triggered journey flew in %v", j.End.Sub(j.T0))
		}
	}
}

func TestTriggerLatencyOverBoundRespected(t *testing.T) {
	n := smallNode(t, nil)
	pr, wf := triggerPod(t, n)
	fr := pr.Flight()
	fr.TriggerLatencyOver(sim.Second) // far above any simulated latency
	runStageTraffic(t, n, pr, wf, 20*sim.Millisecond)

	if fr.Triggered != 0 {
		t.Fatalf("triggered %d journeys under an unreachable bound", fr.Triggered)
	}
	if completed := fr.Sampled - fr.Drops - fr.Timeouts; fr.Discarded != completed {
		t.Fatalf("discarded %d, want all %d completed journeys", fr.Discarded, completed)
	}
}

func TestTriggerVNICommitsOnlyWatchedTenant(t *testing.T) {
	n := smallNode(t, nil)
	pr, wf := triggerPod(t, n)
	fr := pr.Flight()
	watched := wf[0].VNI
	fr.TriggerVNI(watched)
	runStageTraffic(t, n, pr, wf, 20*sim.Millisecond)

	if fr.Triggered == 0 {
		t.Fatal("the watched tenant sent traffic but no journey committed")
	}
	seen := false
	for _, j := range fr.Journeys() {
		if j.Reason != JourneyVNIWatch {
			continue
		}
		seen = true
		if j.Flow.VNI != watched {
			t.Fatalf("vni-watch committed tenant %d, watching %d", j.Flow.VNI, watched)
		}
	}
	if !seen {
		t.Fatal("no vni-watch journey retained in the ring")
	}
}

func TestTriggerFaultWindowCommitsOverlappingFlights(t *testing.T) {
	n := smallNode(t, nil)
	pr, wf := triggerPod(t, n)
	fr := pr.Flight()
	fr.TriggerFaultWindow()

	src := &workload.Source{Flows: wf, Rate: workload.ConstantRate(2e6), Seed: 2, Sink: pr.Sink()}
	if err := src.Start(n.Engine); err != nil {
		t.Fatal(err)
	}
	n.RunFor(10 * sim.Millisecond)
	windowFrom := n.Engine.Now()
	const windowLen = 5 * sim.Millisecond
	if err := n.InjectCoreStall(0, 1, 4, windowLen); err != nil {
		t.Fatal(err)
	}
	windowTo := windowFrom.Add(windowLen)
	n.RunFor(10 * sim.Millisecond)
	drainPod(t, n, pr, src)

	if fr.Triggered == 0 {
		t.Fatal("traffic flew through the stall window but nothing committed")
	}
	if fr.Discarded == 0 {
		t.Fatal("journeys outside the window should discard, not commit")
	}
	for _, j := range fr.Journeys() {
		if j.Reason != JourneyFaultWindow {
			continue
		}
		if !(j.T0 < windowTo && j.End >= windowFrom) {
			t.Fatalf("fault-window journey [%v,%v] does not overlap [%v,%v)",
				j.T0, j.End, windowFrom, windowTo)
		}
	}
}

func TestNoteFaultWindowMergesOverlaps(t *testing.T) {
	fr := &FlightRecorder{}
	fr.noteFaultWindow(10, 20)
	fr.noteFaultWindow(15, 30) // overlaps: extends the first
	fr.noteFaultWindow(30, 35) // abuts: still merges
	fr.noteFaultWindow(50, 60) // disjoint: new window
	fr.noteFaultWindow(58, 55) // reversed bounds normalize, merge with last
	want := []faultWindow{{From: 10, To: 35}, {From: 50, To: 60}}
	if len(fr.faultWindows) != len(want) {
		t.Fatalf("windows = %v, want %v", fr.faultWindows, want)
	}
	for i, w := range want {
		if fr.faultWindows[i] != w {
			t.Fatalf("window %d = %v, want %v", i, fr.faultWindows[i], w)
		}
	}
}

// The journey ring holds only what has been committed: nothing before the
// first commit, one slot per journey until it holds TraceRing of them, and
// after that the newest TraceRing, oldest first.
func TestJourneyRingGrowsThenOverwritesOldest(t *testing.T) {
	const size = 5
	fr := newFlightRecorder(1, size)
	if len(fr.ring) != 0 || len(fr.Journeys()) != 0 {
		t.Fatalf("a fresh recorder holds %d journey slots, want 0", len(fr.ring))
	}
	for n := 1; n <= 3*size; n++ {
		fr.commit(&Journey{T0: sim.Time(n)})
		if len(fr.ring) > size {
			t.Fatalf("after %d commits the ring holds %d slots, bound %d", n, len(fr.ring), size)
		}
		js := fr.Journeys()
		if want := min(n, size); len(js) != want {
			t.Fatalf("after %d commits Journeys() = %d, want %d", n, len(js), want)
		}
		for i, j := range js {
			if want := sim.Time(n - len(js) + 1 + i); j.T0 != want {
				t.Fatalf("after %d commits journey %d has T0 %v, want %v", n, i, j.T0, want)
			}
		}
	}
}
