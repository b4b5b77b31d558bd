package cluster

import (
	"testing"

	"albatross/internal/core"
	"albatross/internal/faults"
	"albatross/internal/pod"
	"albatross/internal/service"
	"albatross/internal/sim"
	"albatross/internal/workload"
	"albatross/internal/workload/trace"
)

// runBurstCluster builds a 4-node, two-pod cluster with the given dataplane
// config, drives it with a fixed-seed source under the given fault plan, and
// returns the outcome report plus the Prometheus export — the two documents
// burst-batched dispatch promises are byte-identical to the unbatched path.
// sample is PodConfig.TraceSampleEvery: 0 keeps the default flight-recorder
// sampling (valid only at burst <= 1, which leaves the recorder on); -1
// disables it, which is the fair baseline for burst > 1 since the
// arithmetic mode always forces the recorder off.
func runBurstCluster(t *testing.T, shards, burst int, backend string, sample int, plan *faults.Plan) (string, string) {
	t.Helper()
	c, err := New(Config{
		Nodes:  4,
		Seed:   testSeed,
		Faults: plan,
		Shards: shards,
		Node:   core.NodeConfig{Burst: burst, FlowBackend: backend},
	})
	if err != nil {
		t.Fatal(err)
	}
	wf := workload.GenerateFlows(2000, 100, testSeed)
	for _, name := range []string{"gw0", "gw1"} {
		if err := c.AddPod(core.PodConfig{
			Spec:             pod.Spec{Name: name, Service: service.VPCVPC, DataCores: 4, CtrlCores: 1, Mode: pod.ModePLB},
			Flows:            workload.ServiceFlows(wf, 0),
			TraceSampleEvery: sample,
		}); err != nil {
			t.Fatal(err)
		}
	}
	src := &workload.Source{Flows: wf, Rate: workload.ConstantRate(1e5), Seed: testSeed + 1, Sink: c.Sink()}
	if err := src.Start(c.Engine); err != nil {
		t.Fatal(err)
	}
	c.RunFor(80 * sim.Millisecond)
	src.Stop()
	c.RunFor(5 * sim.Millisecond)
	return c.Outcome(), c.Metrics().Prometheus()
}

// burstFaultScenarios cover every fault kind: burst identity must survive
// mid-burst core failures, pod crashes sweeping queued contexts, rx loss,
// reorder stress, and the node-granularity kinds.
var burstFaultScenarios = []struct {
	name string
	plan func() *faults.Plan
}{
	{"healthy", func() *faults.Plan { return nil }},
	{"core-stall", func() *faults.Plan {
		return &faults.Plan{Faults: []faults.Fault{{
			Kind: faults.KindCoreStall, At: 20 * sim.Millisecond, Node: 2, Pod: 0,
			Core: 1, Factor: 8, Duration: 30 * sim.Millisecond,
		}}}
	}},
	{"core-fail", func() *faults.Plan {
		return &faults.Plan{Faults: []faults.Fault{{
			Kind: faults.KindCoreFail, At: 20 * sim.Millisecond, Node: 1, Pod: 0,
			Core: 2, Duration: 25 * sim.Millisecond,
		}}}
	}},
	{"rx-loss", func() *faults.Plan {
		return &faults.Plan{Faults: []faults.Fault{{
			Kind: faults.KindRxLoss, At: 25 * sim.Millisecond, Node: 0, Pod: 1,
			Core: 0, Factor: 0.5, Duration: 20 * sim.Millisecond,
		}}}
	}},
	{"reorder-stress", func() *faults.Plan {
		return &faults.Plan{Faults: []faults.Fault{{
			Kind: faults.KindReorderStress, At: 20 * sim.Millisecond, Node: 3, Pod: 0,
			Queue: 1, HoldHeads: true, DepthClamp: 8, Duration: 30 * sim.Millisecond,
		}}}
	}},
	{"pod-crash", func() *faults.Plan {
		return &faults.Plan{Faults: []faults.Fault{{
			Kind: faults.KindPodCrash, At: 25 * sim.Millisecond, Node: 0, Pod: 1,
			Duration: 20 * sim.Millisecond,
		}}}
	}},
	{"pod-drain", func() *faults.Plan {
		return &faults.Plan{Faults: []faults.Fault{{
			Kind: faults.KindPodDrain, At: 25 * sim.Millisecond, Node: 2, Pod: 1,
			Duration: 20 * sim.Millisecond,
		}}}
	}},
	{"bgp-flap", func() *faults.Plan {
		return &faults.Plan{Faults: []faults.Fault{{
			Kind: faults.KindBGPFlap, At: 30 * sim.Millisecond, Node: 1,
			Duration: 25 * sim.Millisecond,
		}}}
	}},
	{"node-crash", func() *faults.Plan {
		return (&faults.Plan{}).NodeCrash(30*sim.Millisecond, 3, 40*sim.Millisecond)
	}},
	{"node-drain", func() *faults.Plan {
		return (&faults.Plan{}).NodeDrain(30*sim.Millisecond, 2, 30*sim.Millisecond)
	}},
	{"uplink-withdraw", func() *faults.Plan {
		return &faults.Plan{Faults: []faults.Fault{{Kind: faults.KindUplinkWithdraw, At: 30 * sim.Millisecond, Duration: 25 * sim.Millisecond}}}
	}},
}

// TestBurstByteIdenticalToUnbatched is the burst-dispatch acceptance test,
// run under every fault kind at shards 1 and 4 alike:
//
//   - burst=1 must match the legacy unbatched path byte for byte with the
//     default flight-recorder sampling on (burst <= 1 IS the legacy path);
//   - the arithmetic mode (burst 8 and 32) must match an unbatched run with
//     sampling disabled, since burst > 1 always forces the recorder off.
func TestBurstByteIdenticalToUnbatched(t *testing.T) {
	for _, sc := range burstFaultScenarios {
		t.Run(sc.name, func(t *testing.T) {
			baseOut, baseProm := runBurstCluster(t, 1, 0, "", 0, sc.plan())
			for _, v := range []struct {
				shards, burst int
			}{
				{1, 1}, {4, 1},
			} {
				out, prom := runBurstCluster(t, v.shards, v.burst, "", 0, sc.plan())
				if out != baseOut {
					t.Fatalf("shards=%d burst=%d outcome differs from unbatched:\n%s",
						v.shards, v.burst,
						trace.Diff("unbatched", baseOut, "burst", out).String())
				}
				if prom != baseProm {
					t.Fatalf("shards=%d burst=%d metrics export differs from unbatched",
						v.shards, v.burst)
				}
			}

			quietOut, quietProm := runBurstCluster(t, 1, 0, "", -1, sc.plan())
			for _, v := range []struct {
				shards, burst int
			}{
				{1, 8}, {4, 32},
			} {
				out, prom := runBurstCluster(t, v.shards, v.burst, "", -1, sc.plan())
				if out != quietOut {
					t.Fatalf("shards=%d burst=%d outcome differs from unbatched (sampling off):\n%s",
						v.shards, v.burst,
						trace.Diff("unbatched", quietOut, "burst", out).String())
				}
				if prom != quietProm {
					t.Fatalf("shards=%d burst=%d metrics export differs from unbatched (sampling off)",
						v.shards, v.burst)
				}
			}
		})
	}
}

// TestBurstBackendCombined layers the othello flow-table backend under
// burst dispatch through a pod crash: the backend changes which pod each
// flow enters, so identity is checked against an unbatched run with the
// same backend, again across shard counts and burst sizes.
func TestBurstBackendCombined(t *testing.T) {
	plan := func() *faults.Plan {
		return &faults.Plan{Faults: []faults.Fault{{
			Kind: faults.KindPodCrash, At: 25 * sim.Millisecond, Node: 0, Pod: 1,
			Duration: 20 * sim.Millisecond,
		}}}
	}
	baseOut, baseProm := runBurstCluster(t, 1, 0, "othello", -1, plan())
	for _, v := range []struct {
		shards, burst int
	}{
		{1, 1}, {1, 32}, {4, 8},
	} {
		out, prom := runBurstCluster(t, v.shards, v.burst, "othello", -1, plan())
		if out != baseOut {
			t.Fatalf("shards=%d burst=%d outcome differs from unbatched othello run:\n%s",
				v.shards, v.burst, trace.Diff("unbatched", baseOut, "burst", out).String())
		}
		if prom != baseProm {
			t.Fatalf("shards=%d burst=%d metrics export differs", v.shards, v.burst)
		}
	}

	// The backend must actually have steered: flows land on both pods of
	// node 0, and the crash moved the dead pod's flows.
	c, err := New(Config{Nodes: 4, Seed: testSeed, Faults: plan(),
		Node: core.NodeConfig{FlowBackend: "othello"}})
	if err != nil {
		t.Fatal(err)
	}
	wf := workload.GenerateFlows(2000, 100, testSeed)
	for _, name := range []string{"gw0", "gw1"} {
		if err := c.AddPod(core.PodConfig{
			Spec:  pod.Spec{Name: name, Service: service.VPCVPC, DataCores: 4, CtrlCores: 1, Mode: pod.ModePLB},
			Flows: workload.ServiceFlows(wf, 0),
		}); err != nil {
			t.Fatal(err)
		}
	}
	src := &workload.Source{Flows: wf, Rate: workload.ConstantRate(1e5), Seed: testSeed + 1, Sink: c.Sink()}
	if err := src.Start(c.Engine); err != nil {
		t.Fatal(err)
	}
	c.RunFor(80 * sim.Millisecond)
	src.Stop()
	c.RunFor(5 * sim.Millisecond)
	n0 := c.Members()[0].Node
	pods := n0.Pods()
	if pods[0].Rx == 0 || pods[1].Rx == 0 {
		t.Fatalf("backend did not spread flows across pods: rx=[%d %d]", pods[0].Rx, pods[1].Rx)
	}
	if n0.BackendMoved == 0 {
		t.Fatal("pod crash moved no backend flows (pool update not wired)")
	}
	if n0.Backend() == nil || len(n0.Backend().Pool()) != 2 {
		t.Fatalf("backend pool did not recover to both pods after restart")
	}
}
