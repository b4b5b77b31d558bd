package cluster

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"albatross/internal/core"
	"albatross/internal/faults"
	"albatross/internal/pod"
	"albatross/internal/service"
	"albatross/internal/sim"
	"albatross/internal/workload"
	"albatross/internal/workload/trace"
)

// identityLoad is the traffic an identity row offers the cluster's ECMP
// sink: rate packets per second for run, then a 5 ms drain. batch 0 is a
// workload.Source (one injection per event, so every burst is a singleton);
// batch n injects n packets at one instant every n/rate seconds, the shape
// under which Burst > 1 forms real batches.
type identityLoad struct {
	rate  float64
	batch int
	run   sim.Duration
}

// lightLoad is the default row load: 100 kpps for 80 ms.
var lightLoad = identityLoad{rate: 1e5, run: 80 * sim.Millisecond}

// runBurstCluster builds a 4-node, two-pod cluster with the given dataplane
// config, drives it with a fixed-seed load under the given fault plan, and
// returns the outcome report (which carries a checksum of the full
// Prometheus export and the flight-recorder tallies) with a checksum of the
// committed journeys, plus the export itself.
func runBurstCluster(t *testing.T, shards, burst int, backend string, load identityLoad, plan *faults.Plan) (string, string) {
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
			TraceSampleEvery: 8,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if load.batch == 0 {
		src := &workload.Source{Flows: wf, Rate: workload.ConstantRate(load.rate), Seed: testSeed + 1, Sink: c.Sink()}
		if err := src.Start(c.Engine); err != nil {
			t.Fatal(err)
		}
		c.RunFor(load.run)
		src.Stop()
	} else {
		period := sim.Duration(float64(load.batch) / load.rate * float64(sim.Second))
		end := c.Engine.Now().Add(load.run)
		next := 0
		var tick func()
		tick = func() {
			for k := 0; k < load.batch; k++ {
				c.Inject(wf[next], 256)
				next = (next + 7) % len(wf)
			}
			if c.Engine.Now().Add(period) < end {
				c.Engine.After(period, tick)
			}
		}
		c.Engine.After(period, tick)
		c.RunFor(load.run)
	}
	c.RunFor(5 * sim.Millisecond)
	// The committed journeys' stage stamps join the outcome, so identity
	// also covers when each recorded casualty entered and left every stage.
	h := fnv.New64a()
	for _, m := range c.Members() {
		for _, pr := range m.Node.Pods() {
			for _, j := range pr.Flight().Journeys() {
				fmt.Fprintln(h, j.String())
			}
		}
	}
	return c.Outcome() + fmt.Sprintf("journeys/fnv64a | %016x\n", h.Sum64()), c.Metrics().Prometheus()
}

// Loads of the rows that need queues to build: a source that keeps every
// core busy a quarter of the time, 256-packet batches every 80 µs (16
// packets per core, about 10 µs of service, land 3.9 µs after each batch),
// and an overload that fills every RX queue, where an arrival landing on
// the nanosecond a packet finishes is dropped or admitted by which of the
// two the event order puts first.
var (
	busyLoad     = identityLoad{rate: 6e6, run: 10 * sim.Millisecond}
	batchLoad    = identityLoad{rate: 3.2e6, batch: 256, run: 10 * sim.Millisecond}
	overloadLoad = identityLoad{rate: 4e7, run: 2 * sim.Millisecond}
)

// burstFaultScenarios cover every fault kind, plus the cases where a fault
// lands on admitted work: a stall on a loaded core, a stall then a failure
// of the same backlogged core, a stall that starts and ends while a batch is
// queued, a core failure while its pod drains, and reorder stress that
// starts while returns are pending; and full RX queues.
var burstFaultScenarios = []struct {
	name string
	load identityLoad
	plan func() *faults.Plan
}{
	{"healthy", lightLoad, func() *faults.Plan { return nil }},
	{"core-stall", lightLoad, func() *faults.Plan {
		return &faults.Plan{Faults: []faults.Fault{{
			Kind: faults.KindCoreStall, At: 20 * sim.Millisecond, Node: 2, Pod: 0,
			Core: 1, Factor: 8, Duration: 30 * sim.Millisecond,
		}}}
	}},
	{"core-fail", busyLoad, func() *faults.Plan {
		return &faults.Plan{Faults: []faults.Fault{{
			Kind: faults.KindCoreFail, At: 3 * sim.Millisecond, Node: 1, Pod: 0,
			Core: 2, Duration: 4 * sim.Millisecond,
		}}}
	}},
	{"rx-loss", lightLoad, func() *faults.Plan {
		return &faults.Plan{Faults: []faults.Fault{{
			Kind: faults.KindRxLoss, At: 25 * sim.Millisecond, Node: 0, Pod: 0,
			Core: 0, Factor: 0.5, Duration: 20 * sim.Millisecond,
		}}}
	}},
	{"reorder-stress", lightLoad, func() *faults.Plan {
		return &faults.Plan{Faults: []faults.Fault{{
			Kind: faults.KindReorderStress, At: 20 * sim.Millisecond, Node: 3, Pod: 0,
			Queue: 0, HoldHeads: true, DepthClamp: 8, Duration: 30 * sim.Millisecond,
		}}}
	}},
	{"pod-crash", lightLoad, func() *faults.Plan {
		return &faults.Plan{Faults: []faults.Fault{{
			Kind: faults.KindPodCrash, At: 25 * sim.Millisecond, Node: 0, Pod: 0,
			Duration: 20 * sim.Millisecond,
		}}}
	}},
	{"pod-drain", lightLoad, func() *faults.Plan {
		return &faults.Plan{Faults: []faults.Fault{{
			Kind: faults.KindPodDrain, At: 25 * sim.Millisecond, Node: 2, Pod: 0,
			Duration: 20 * sim.Millisecond,
		}}}
	}},
	{"bgp-flap", lightLoad, func() *faults.Plan {
		return &faults.Plan{Faults: []faults.Fault{{
			Kind: faults.KindBGPFlap, At: 30 * sim.Millisecond, Node: 1,
			Duration: 25 * sim.Millisecond,
		}}}
	}},
	{"node-crash", lightLoad, func() *faults.Plan {
		return (&faults.Plan{}).NodeCrash(30*sim.Millisecond, 3, 40*sim.Millisecond)
	}},
	{"node-drain", lightLoad, func() *faults.Plan {
		return (&faults.Plan{}).NodeDrain(30*sim.Millisecond, 2, 30*sim.Millisecond)
	}},
	{"uplink-withdraw", lightLoad, func() *faults.Plan {
		return &faults.Plan{Faults: []faults.Fault{{Kind: faults.KindUplinkWithdraw, At: 30 * sim.Millisecond, Duration: 25 * sim.Millisecond}}}
	}},
	{"loaded-core-stall", busyLoad, func() *faults.Plan {
		return &faults.Plan{Faults: []faults.Fault{{
			Kind: faults.KindCoreStall, At: 3 * sim.Millisecond, Node: 2, Pod: 0,
			Core: 1, Factor: 8, Duration: 4 * sim.Millisecond,
		}}}
	}},
	{"stall-before-fail", busyLoad, func() *faults.Plan {
		return &faults.Plan{Faults: []faults.Fault{
			{Kind: faults.KindCoreStall, At: 3 * sim.Millisecond, Node: 1, Pod: 0,
				Core: 2, Factor: 20, Duration: 5 * sim.Millisecond},
			{Kind: faults.KindCoreFail, At: 4 * sim.Millisecond, Node: 1, Pod: 0,
				Core: 2, Duration: 2 * sim.Millisecond},
		}}
	}},
	{"stall-inside-burst", batchLoad, func() *faults.Plan {
		return &faults.Plan{Faults: []faults.Fault{{
			Kind: faults.KindCoreStall, At: 3047 * sim.Microsecond, Node: 0, Pod: 0,
			Core: 3, Factor: 6, Duration: 2*sim.Millisecond + 4700,
		}}}
	}},
	{"fail-during-drain", batchLoad, func() *faults.Plan {
		return &faults.Plan{Faults: []faults.Fault{
			{Kind: faults.KindPodDrain, At: 3045 * sim.Microsecond, Node: 3, Pod: 0,
				Duration: 3 * sim.Millisecond},
			{Kind: faults.KindCoreFail, At: 3047 * sim.Microsecond, Node: 3, Pod: 0,
				Core: 0, Duration: sim.Millisecond},
		}}
	}},
	{"overload", overloadLoad, func() *faults.Plan { return nil }},
	{"reorder-stress-pending", batchLoad, func() *faults.Plan {
		return &faults.Plan{Faults: []faults.Fault{{
			Kind: faults.KindReorderStress, At: 3047 * sim.Microsecond, Node: 2, Pod: 0,
			Queue: 0, HoldHeads: true, DepthClamp: 16, Duration: sim.Millisecond,
		}}}
	}},
}

// TestBurstByteIdenticalToUnbatched holds every row, at every burst size
// and at shards 1 and 4, to a golden outcome recorded from the per-packet
// event walk that burst-batched dispatch replaced (flight recorder on, the
// default sampling). The outcome carries the metrics-export checksum, so
// the goldens pin the full Prometheus export too. Burst is a batch size: it
// may change how many events run, never what the run reports.
func TestBurstByteIdenticalToUnbatched(t *testing.T) {
	for _, sc := range burstFaultScenarios {
		t.Run(sc.name, func(t *testing.T) {
			golden := filepath.Join("testdata", "one-path", sc.name+".outcome")
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{1, 4} {
				for _, burst := range []int{1, 2, 8, 32} {
					out, _ := runBurstCluster(t, shards, burst, "", sc.load, sc.plan())
					if out != string(want) {
						t.Fatalf("shards=%d burst=%d outcome differs from %s:\n%s", shards, burst, golden,
							trace.Diff("per-packet walk", string(want), fmt.Sprintf("burst=%d", burst), out).String())
					}
				}
			}
		})
	}
}

// TestFaultRowsTouchPackets holds every faulted row to its purpose: its
// golden outcome differs from the same load without faults in a line that
// describes packets — traffic counts, flight tallies, stage residency or
// latency — not only in a member's avail line or the export checksum. So the
// fault lands where packets flow: backend "" sends every packet of a node to
// its pod 0, and a fault on pod 1 would test nothing.
func TestFaultRowsTouchPackets(t *testing.T) {
	packetLines := func(outcome string) string {
		var b strings.Builder
		for _, line := range strings.SplitAfter(outcome, "\n") {
			key, _, _ := strings.Cut(line, " | ")
			if !strings.HasSuffix(key, "/avail") && key != "metrics/fnv64a" {
				b.WriteString(line)
			}
		}
		return b.String()
	}
	unfaulted := map[identityLoad]string{}
	for _, sc := range burstFaultScenarios {
		if sc.plan() == nil {
			continue
		}
		t.Run(sc.name, func(t *testing.T) {
			base, ok := unfaulted[sc.load]
			if !ok {
				base, _ = runBurstCluster(t, 1, 1, "", sc.load, nil)
				unfaulted[sc.load] = base
			}
			golden := filepath.Join("testdata", "one-path", sc.name+".outcome")
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if packetLines(string(want)) == packetLines(base) {
				t.Errorf("%s: only avail lines and the checksum differ from the same load without faults", golden)
			}
		})
	}
}

// TestBurstBackendCombined layers the session flow-table backend under
// burst dispatch through a pod crash: the backend changes which pod each
// flow enters, so identity is checked across burst sizes and shard counts
// with the same backend.
func TestBurstBackendCombined(t *testing.T) {
	plan := func() *faults.Plan {
		return &faults.Plan{Faults: []faults.Fault{{
			Kind: faults.KindPodCrash, At: 25 * sim.Millisecond, Node: 0, Pod: 1,
			Duration: 20 * sim.Millisecond,
		}}}
	}
	baseOut, baseProm := runBurstCluster(t, 1, 1, "session", lightLoad, plan())
	for _, v := range []struct {
		shards, burst int
	}{
		{1, 32}, {4, 8},
	} {
		out, prom := runBurstCluster(t, v.shards, v.burst, "session", lightLoad, plan())
		if out != baseOut {
			t.Fatalf("shards=%d burst=%d outcome differs from burst 1:\n%s",
				v.shards, v.burst, trace.Diff("burst=1", baseOut, "burst", out).String())
		}
		if prom != baseProm {
			t.Fatalf("shards=%d burst=%d metrics export differs", v.shards, v.burst)
		}
	}

	// The backend must actually have steered: flows land on both pods of
	// node 0, and the crash moved the dead pod's flows.
	c, err := New(Config{Nodes: 4, Seed: testSeed, Faults: plan(),
		Node: core.NodeConfig{FlowBackend: "session"}})
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
