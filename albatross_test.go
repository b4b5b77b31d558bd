package albatross

import "testing"

// TestPublicAPIQuickstart exercises the facade end to end: the doc-comment
// quick start must actually work.
func TestPublicAPIQuickstart(t *testing.T) {
	node, err := NewNode(NodeConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	flows := GenerateFlows(5000, 100, 1)
	pod, err := node.AddPod(PodConfig{
		Spec:  PodSpec{Name: "gw0", Service: VPCInternet, DataCores: 4, CtrlCores: 2},
		Flows: ServiceFlows(flows, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	src := &Source{Flows: flows, Rate: ConstantRate(1e6), Seed: 2, Sink: pod.Sink()}
	if err := src.Start(node.Engine); err != nil {
		t.Fatal(err)
	}
	node.RunFor(20 * Millisecond)
	src.Stop()
	node.RunFor(Millisecond)

	if pod.Tx == 0 || pod.Tx != pod.Rx {
		t.Fatalf("tx=%d rx=%d", pod.Tx, pod.Rx)
	}
	if pod.Latency.Quantile(0.99) <= 0 {
		t.Fatal("no latency recorded")
	}
}

func TestPublicAPIModes(t *testing.T) {
	node, err := NewNode(NodeConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	flows := GenerateFlows(100, 10, 1)
	for i, mode := range []struct {
		m    any
		name string
	}{{ModePLB, "plb"}, {ModeRSS, "rss"}} {
		spec := PodSpec{Name: names[i], Service: VPCVPC, DataCores: 2, CtrlCores: 1}
		if mode.name == "rss" {
			spec.Mode = ModeRSS
		}
		if _, err := node.AddPod(PodConfig{Spec: spec, Flows: ServiceFlows(flows, 0)}); err != nil {
			t.Fatalf("%s: %v", mode.name, err)
		}
	}
}

var names = []string{"a", "b"}

func TestPublicAPILimiter(t *testing.T) {
	lc := DefaultLimiterConfig()
	node, err := NewNode(NodeConfig{Seed: 1, Limiter: &lc})
	if err != nil {
		t.Fatal(err)
	}
	if node.Limiter == nil {
		t.Fatal("limiter not installed")
	}
}

func TestPublicAPIExperimentsRegistry(t *testing.T) {
	exps := Experiments()
	// 4 tables + 13 figures/ablations registered at minimum.
	if len(exps) < 20 {
		t.Fatalf("only %d experiments registered", len(exps))
	}
	ids := map[string]bool{}
	for _, e := range exps {
		ids[e.ID] = true
	}
	for _, want := range []string{"tab3", "tab4", "tab5", "tab6", "fig4", "fig5",
		"fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
		"fig15", "fig16", "fig17", "memfreq", "meta", "stateful", "gopmem"} {
		if !ids[want] {
			t.Errorf("experiment %q missing", want)
		}
	}
	if _, ok := FindExperiment("fig8"); !ok {
		t.Fatal("FindExperiment failed")
	}
}

// TestExperimentShapeChecks runs the cheap experiments through the public
// API (internal/eval's golden test holds every experiment's full report).
func TestExperimentShapeChecks(t *testing.T) {
	for _, id := range []string{"tab4", "tab5", "fig7", "fig15", "gopmem"} {
		exp, ok := FindExperiment(id)
		if !ok {
			t.Fatalf("%s missing", id)
		}
		if r := exp.Run(ExperimentConfig{Seed: 1, Quick: true}); !r.Passed() {
			t.Errorf("%s failed: %v", id, r.FailedChecks())
		}
	}
}
