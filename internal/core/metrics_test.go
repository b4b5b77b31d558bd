package core

import (
	"testing"

	"albatross/internal/metrics"
	"albatross/internal/pod"
	"albatross/internal/sim"
)

func TestNodeMetricsSnapshot(t *testing.T) {
	n := smallNode(t, nil)
	wf, sf := wflows(1000, 1)
	pr := addPod(t, n, pod.ModePLB, 4, sf, nil)
	runStageTraffic(t, n, pr, wf, 20*sim.Millisecond)

	snap := n.Metrics()
	podL := []metrics.Label{metrics.L("pod", "gw"), metrics.L("slot", "0")}
	rx, ok := snap.Find("albatross_pod_rx_packets_total", podL...)
	if !ok || rx.Value != float64(pr.Rx) {
		t.Fatalf("rx metric = %+v ok=%v, want %d", rx, ok, pr.Rx)
	}
	lat, ok := snap.Find("albatross_pod_latency_ns", podL...)
	if !ok || lat.Hist == nil || lat.Hist.Count != pr.Latency.Count() {
		t.Fatalf("latency metric = %+v ok=%v", lat, ok)
	}
	// Per-stage residency series exist for every stage and agree with the
	// pipeline's own histograms.
	resid := pr.StageResidency()
	for i, name := range StageNames() {
		sv, ok := snap.Find("albatross_stage_residency_ns",
			append(podL, metrics.L("stage", name))...)
		if !ok || sv.Hist == nil {
			t.Fatalf("missing residency series for stage %q", name)
		}
		if sv.Hist.Count != resid[i].Count() || sv.Hist.Sum != resid[i].Sum() {
			t.Fatalf("stage %q metric count=%d sum=%d, histogram count=%d sum=%d",
				name, sv.Hist.Count, sv.Hist.Sum, resid[i].Count(), resid[i].Sum())
		}
	}
	if sv, ok := snap.Find("albatross_stage_packets_total",
		append(podL, metrics.L("stage", "nic-egress"), metrics.L("event", "out"))...); !ok ||
		sv.Value != float64(pr.Tx) {
		t.Fatalf("egress out metric = %+v ok=%v, want %d", sv, ok, pr.Tx)
	}
}

func TestNodeMetricsDeterministic(t *testing.T) {
	run := func() string {
		n := smallNode(t, nil)
		wf, sf := wflows(1000, 1)
		pr := addPod(t, n, pod.ModePLB, 4, sf, nil)
		runStageTraffic(t, n, pr, wf, 20*sim.Millisecond)
		return n.Metrics().Prometheus()
	}
	p1 := run()
	if p2 := run(); p1 != p2 {
		t.Fatal("Prometheus export differs between identical runs")
	}
	if p1 == "" {
		t.Fatal("empty export")
	}
}
