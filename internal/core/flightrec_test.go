package core

import (
	"testing"

	"albatross/internal/pod"
	"albatross/internal/sim"
	"albatross/internal/workload"
)

// triggerPod builds a drop-free PLB pod tracing every packet.
func triggerPod(t *testing.T, n *Node) (*PodRuntime, []workload.Flow) {
	t.Helper()
	wf, sf := wflows(1000, 5)
	pr := addPod(t, n, pod.ModePLB, 4, sf, func(c *PodConfig) {
		c.TraceSampleEvery = 1
	})
	return pr, wf
}

// commitWatch hands check every journey a pod's recorder commits. It runs
// the node in steps short enough that at most traceRing journeys commit in
// one, so the ring still holds each of them when it is read.
type commitWatch struct {
	t     *testing.T
	n     *Node
	pr    *PodRuntime
	check func(Journey)
	seen  uint64 // journeys committed so far
}

func (w *commitWatch) runFor(d sim.Duration) {
	w.t.Helper()
	fr := w.pr.Flight()
	for end := w.n.Engine.Now().Add(d); w.n.Engine.Now() < end; {
		w.n.RunFor(10 * sim.Microsecond)
		total := fr.Drops + fr.Timeouts + fr.Triggered
		fresh := int(total - w.seen)
		if fresh > traceRing {
			w.t.Fatalf("%d journeys committed in one step, the ring holds %d", fresh, traceRing)
		}
		js := fr.Journeys()
		for _, j := range js[len(js)-fresh:] {
			w.check(j)
		}
		w.seen = total
	}
}

// drain stops src and runs until the pod holds no live context.
func (w *commitWatch) drain(src *workload.Source) {
	w.t.Helper()
	src.Stop()
	for i := 0; i < 100 && w.pr.live > 0; i++ {
		w.runFor(sim.Millisecond)
	}
	if w.pr.live != 0 {
		w.t.Fatalf("pipeline did not drain: %d contexts live", w.pr.live)
	}
}

// offer runs wf at 2 Mpps for d and drains the pod, watching every commit.
func (w *commitWatch) offer(wf []workload.Flow, d sim.Duration) {
	w.t.Helper()
	src := &workload.Source{Flows: wf, Rate: workload.ConstantRate(2e6), Seed: 2, Sink: w.pr.Sink()}
	if err := src.Start(w.n.Engine); err != nil {
		w.t.Fatal(err)
	}
	w.runFor(d)
	w.drain(src)
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
	w := &commitWatch{t: t, n: n, pr: pr, check: func(j Journey) {
		if j.Reason == JourneyVNIWatch {
			t.Fatal("vni-watch committed a journey despite latency-trigger precedence")
		}
		if j.Reason == JourneyLatencyTrigger && j.End.Sub(j.T0) < 1 {
			t.Fatalf("latency-triggered journey flew in %v", j.End.Sub(j.T0))
		}
	}}
	w.offer(wf, 20*sim.Millisecond)

	completed := fr.Sampled - fr.Drops - fr.Timeouts
	if fr.Triggered == 0 || fr.Triggered != completed {
		t.Fatalf("triggered %d, want every completed journey (%d)", fr.Triggered, completed)
	}
	if fr.Discarded != 0 {
		t.Fatalf("discarded %d journeys with an always-on trigger", fr.Discarded)
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
	var seen uint64
	w := &commitWatch{t: t, n: n, pr: pr, check: func(j Journey) {
		if j.Reason != JourneyVNIWatch {
			return
		}
		seen++
		if j.Flow.VNI != watched {
			t.Fatalf("vni-watch committed tenant %d, watching %d", j.Flow.VNI, watched)
		}
	}}
	w.offer(wf, 20*sim.Millisecond)

	if fr.Triggered == 0 {
		t.Fatal("the watched tenant sent traffic but no journey committed")
	}
	if seen != fr.Triggered {
		t.Fatalf("saw %d vni-watch journeys, %d triggered", seen, fr.Triggered)
	}
}

func TestTriggerFaultWindowCommitsOverlappingFlights(t *testing.T) {
	n := smallNode(t, nil)
	pr, wf := triggerPod(t, n)
	fr := pr.Flight()
	fr.TriggerFaultWindow()

	var windowFrom, windowTo sim.Time
	var seen uint64
	w := &commitWatch{t: t, n: n, pr: pr, check: func(j Journey) {
		if j.Reason != JourneyFaultWindow {
			return
		}
		seen++
		if !(j.T0 < windowTo && j.End >= windowFrom) {
			t.Fatalf("fault-window journey [%v,%v] does not overlap [%v,%v)",
				j.T0, j.End, windowFrom, windowTo)
		}
	}}
	src := &workload.Source{Flows: wf, Rate: workload.ConstantRate(2e6), Seed: 2, Sink: pr.Sink()}
	if err := src.Start(n.Engine); err != nil {
		t.Fatal(err)
	}
	w.runFor(10 * sim.Millisecond)
	windowFrom = n.Engine.Now()
	const windowLen = 5 * sim.Millisecond
	if err := n.InjectCoreStall(0, 1, 4, windowLen); err != nil {
		t.Fatal(err)
	}
	windowTo = windowFrom.Add(windowLen)
	w.runFor(10 * sim.Millisecond)
	w.drain(src)

	if fr.Triggered == 0 || seen != fr.Triggered {
		t.Fatalf("saw %d fault-window journeys, %d triggered", seen, fr.Triggered)
	}
	if fr.Discarded == 0 {
		t.Fatal("journeys outside the window should discard, not commit")
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
// first commit, one slot per journey until it holds traceRing of them, and
// after that the newest traceRing, oldest first.
func TestJourneyRingGrowsThenOverwritesOldest(t *testing.T) {
	const size = traceRing
	fr := newFlightRecorder(1)
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
