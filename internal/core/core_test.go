package core

import (
	"fmt"
	"testing"

	"albatross/internal/cachesim"
	"albatross/internal/gop"
	"albatross/internal/packet"
	"albatross/internal/pod"
	"albatross/internal/service"
	"albatross/internal/sim"
	"albatross/internal/workload"
)

func smallNode(t testing.TB, limiter *gop.Config) *Node {
	t.Helper()
	n, err := NewNode(NodeConfig{
		Seed:    1,
		Cache:   cachesim.Config{SizeBytes: 4 << 20, Ways: 16, LineBytes: 64},
		Limiter: limiter,
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func addPod(t testing.TB, n *Node, mode pod.Mode, cores int, flows []service.Flow, mutate func(*PodConfig)) *PodRuntime {
	t.Helper()
	cfg := PodConfig{
		Spec: pod.Spec{
			Name: "gw", Service: service.VPCVPC,
			DataCores: cores, CtrlCores: 2, Mode: mode,
		},
		Flows: flows,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	pr, err := n.AddPod(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

func wflows(n int, seed uint64) ([]workload.Flow, []service.Flow) {
	wf := workload.GenerateFlows(n, 100, seed)
	return wf, workload.ServiceFlows(wf, 0)
}

func TestEndToEndPLB(t *testing.T) {
	n := smallNode(t, nil)
	wf, sf := wflows(2000, 1)
	pr := addPod(t, n, pod.ModePLB, 4, sf, nil)

	src := &workload.Source{Flows: wf, Rate: workload.ConstantRate(1e6), Seed: 2, Sink: pr.Sink()}
	if err := src.Start(n.Engine); err != nil {
		t.Fatal(err)
	}
	n.RunFor(50 * sim.Millisecond)
	src.Stop()
	n.RunFor(5 * sim.Millisecond) // drain

	if pr.Rx == 0 {
		t.Fatal("no packets received")
	}
	if pr.Tx != pr.Rx {
		t.Fatalf("tx=%d rx=%d (drops: nic=%d q=%d plb=%d svc=%d)",
			pr.Tx, pr.Rx, pr.NICDrops, pr.QueueDrops, pr.PLBDrops, pr.ServiceDrop)
	}
	// Latency must include the ~8µs NIC round trip plus service time.
	if mean := pr.Latency.Mean(); mean < 8000 || mean > 100000 {
		t.Fatalf("mean latency = %.0fns, implausible", mean)
	}
	// At 1Mpps over 4 cores (~25% load) disordering must be negligible.
	if dr := pr.DisorderRate(); dr > 1e-3 {
		t.Fatalf("disorder rate = %v at low load", dr)
	}
	s := pr.PLB.Stats()
	if s.EmittedInOrder == 0 {
		t.Fatal("no in-order emissions")
	}
}

func TestEndToEndRSS(t *testing.T) {
	n := smallNode(t, nil)
	wf, sf := wflows(2000, 3)
	pr := addPod(t, n, pod.ModeRSS, 4, sf, nil)
	src := &workload.Source{Flows: wf, Rate: workload.ConstantRate(1e6), Seed: 4, Sink: pr.Sink()}
	if err := src.Start(n.Engine); err != nil {
		t.Fatal(err)
	}
	n.RunFor(50 * sim.Millisecond)
	src.Stop()
	n.RunFor(5 * sim.Millisecond)
	if pr.Tx != pr.Rx {
		t.Fatalf("tx=%d rx=%d", pr.Tx, pr.Rx)
	}
	if pr.PLB != nil {
		t.Fatal("RSS pod has a PLB engine")
	}
	if pr.DisorderRate() != 0 {
		t.Fatal("RSS pods cannot disorder")
	}
}

func TestPriorityPacketsBypassDataPath(t *testing.T) {
	n := smallNode(t, nil)
	wf, sf := wflows(100, 5)
	pr := addPod(t, n, pod.ModePLB, 2, sf, nil)

	// Saturate the cores with data traffic.
	src := &workload.Source{Flows: wf, Rate: workload.ConstantRate(10e6), Seed: 6, Sink: pr.Sink()}
	src.Start(n.Engine)

	// Inject BGP packets mid-saturation.
	bgpFlow := workload.Flow{Tuple: packet.FiveTuple{
		Src: packet.IPv4Addr{10, 0, 0, 1}, Dst: packet.IPv4Addr{10, 0, 0, 2},
		Proto: packet.IPProtocolTCP, SPort: 30000, DPort: 179,
	}}
	for i := 0; i < 10; i++ {
		at := sim.Time(i+1) * sim.Time(sim.Millisecond)
		n.Engine.At(at, func() { pr.Inject(bgpFlow, 64) })
	}
	n.RunFor(20 * sim.Millisecond)
	src.Stop()
	if pr.PriorityRx != 10 || pr.PriorityTx != 10 {
		t.Fatalf("priority rx/tx = %d/%d", pr.PriorityRx, pr.PriorityTx)
	}
}

func TestTenantRateLimiting(t *testing.T) {
	lcfg := gop.DefaultConfig()
	lcfg.Stage1Rate = 0.5e6
	lcfg.Stage2Rate = 0.1e6
	lcfg.SampleOneIn = 0
	n := smallNode(t, &lcfg)
	wf, sf := wflows(500, 7)
	// All flows same tenant.
	for i := range wf {
		wf[i].VNI = 9
		sf[i].VNI = 9
	}
	pr := addPod(t, n, pod.ModePLB, 4, sf, nil)
	src := &workload.Source{Flows: wf, Rate: workload.ConstantRate(2e6), Seed: 8, Sink: pr.Sink()}
	src.Start(n.Engine)
	n.RunFor(100 * sim.Millisecond)
	src.Stop()
	n.RunFor(5 * sim.Millisecond)
	if pr.NICDrops == 0 {
		t.Fatal("over-rate tenant never limited")
	}
	// Passed rate ~0.6Mpps of 2Mpps offered.
	passFrac := float64(pr.Tx) / float64(pr.Rx)
	if passFrac < 0.2 || passFrac > 0.5 {
		t.Fatalf("pass fraction = %v, want ~0.3", passFrac)
	}
}

func TestACLDropWithDropFlag(t *testing.T) {
	n := smallNode(t, nil)
	wf := workload.GenerateFlows(1000, 10, 9)
	sf := workload.ServiceFlows(wf, 0.2) // 20% denied
	pr := addPod(t, n, pod.ModePLB, 4, sf, nil)
	pr.Pod.Spec.Service = service.VPCVPC

	src := &workload.Source{Flows: wf, Rate: workload.ConstantRate(1e6), Seed: 10, Sink: pr.Sink()}
	src.Start(n.Engine)
	n.RunFor(50 * sim.Millisecond)
	src.Stop()
	n.RunFor(5 * sim.Millisecond)

	if pr.ServiceDrop == 0 {
		t.Fatal("no ACL drops")
	}
	s := pr.PLB.Stats()
	if s.DropFlagReleases != pr.ServiceDrop {
		t.Fatalf("drop flag releases %d != service drops %d", s.DropFlagReleases, pr.ServiceDrop)
	}
	// With the drop flag, no timeout releases should occur.
	if s.TimeoutReleases != 0 {
		t.Fatalf("timeout releases = %d with drop flag enabled", s.TimeoutReleases)
	}
	if pr.Tx+pr.ServiceDrop != pr.Rx {
		t.Fatalf("conservation: tx=%d + svcdrop=%d != rx=%d", pr.Tx, pr.ServiceDrop, pr.Rx)
	}
}

func TestACLDropWithoutDropFlagCausesHOL(t *testing.T) {
	n := smallNode(t, nil)
	wf := workload.GenerateFlows(1000, 10, 9)
	sf := workload.ServiceFlows(wf, 0.2)
	pr := addPod(t, n, pod.ModePLB, 4, sf, func(c *PodConfig) { c.DropFlagDisabled = true })

	src := &workload.Source{Flows: wf, Rate: workload.ConstantRate(1e6), Seed: 10, Sink: pr.Sink()}
	src.Start(n.Engine)
	n.RunFor(50 * sim.Millisecond)
	src.Stop()
	n.RunFor(sim.Duration(sim.Millisecond))

	s := pr.PLB.Stats()
	if s.TimeoutReleases == 0 {
		t.Fatal("silent drops must HOL-block until timeout")
	}
	if s.HOLEvents == 0 {
		t.Fatal("no HOL events recorded")
	}
	// Mean latency suffers badly vs the drop-flag run.
	if pr.Latency.Quantile(0.99) < int64(50*sim.Microsecond) {
		t.Fatalf("p99 = %dns; HOL should push the tail towards the 100µs timeout",
			pr.Latency.Quantile(0.99))
	}
}

func TestHeavyHitterRSSOverloadsPLBSpreads(t *testing.T) {
	// Miniature Fig. 8: 3 cores, background flows + one heavy hitter above
	// a single core's capacity.
	run := func(mode pod.Mode) (drops uint64, tx uint64) {
		n := smallNode(t, nil)
		wf, sf := wflows(500, 11)
		pr := addPod(t, n, mode, 3, sf, func(c *PodConfig) {
			c.QueueDepth = 64
			c.JitterSigma = 0.05
		})
		// Background: 0.3 Mpps over many flows.
		bg := &workload.Source{Flows: wf, Rate: workload.ConstantRate(0.3e6), Seed: 12, Sink: pr.Sink()}
		bg.Start(n.Engine)
		// Heavy hitter: one flow at ~1.5x single-core capacity (a core
		// handles ~1.9Mpps of VPC-VPC at this reduced test scale, where the
		// small flow count keeps the cache warm).
		hh := &workload.Source{Flows: wf[:1], Rate: workload.ConstantRate(3e6), Seed: 13, Sink: pr.Sink()}
		hh.Start(n.Engine)
		n.RunFor(100 * sim.Millisecond)
		bg.Stop()
		hh.Stop()
		n.RunFor(5 * sim.Millisecond)
		return pr.QueueDrops + pr.PLBDrops, pr.Tx
	}
	rssDrops, _ := run(pod.ModeRSS)
	plbDrops, plbTx := run(pod.ModePLB)
	if rssDrops == 0 {
		t.Fatal("RSS should overload the heavy hitter's core")
	}
	if plbDrops > rssDrops/10 {
		t.Fatalf("PLB drops %d vs RSS %d: spray should absorb the heavy hitter", plbDrops, rssDrops)
	}
	if plbTx == 0 {
		t.Fatal("PLB forwarded nothing")
	}
}

func TestSaturationOrdering(t *testing.T) {
	n := smallNode(t, nil)
	wf, _ := wflows(20000, 14)
	mk := func(typ service.Type, name string) float64 {
		sf := workload.ServiceFlows(wf, 0)
		pr, err := n.AddPod(PodConfig{
			Spec:  pod.Spec{Name: name, Service: typ, DataCores: 4, CtrlCores: 2},
			Flows: sf,
		})
		if err != nil {
			t.Fatal(err)
		}
		return pr.SaturationMpps(sf, 20000)
	}
	vpc := mk(service.VPCVPC, "a")
	inet := mk(service.VPCInternet, "b")
	if inet >= vpc {
		t.Fatalf("VPC-Internet %.2f Mpps >= VPC-VPC %.2f Mpps", inet, vpc)
	}
	if vpc <= 0 || inet <= 0 {
		t.Fatal("non-positive throughput")
	}
}

func TestCrossNUMAPenalty(t *testing.T) {
	wf, sf := wflows(20000, 15)
	_ = wf
	cost := func(cross bool) float64 {
		n := smallNode(t, nil)
		pr := addPod(t, n, pod.ModePLB, 4, sf, func(c *PodConfig) { c.CrossNUMA = cross })
		return float64(pr.MeanServiceCost(sf, 10000))
	}
	intra := cost(false)
	cross := cost(true)
	degradation := (cross - intra) / cross
	// Fig. 16: VPC-VPC degrades ~14% cross-NUMA.
	if degradation < 0.05 || degradation > 0.30 {
		t.Fatalf("cross-NUMA degradation = %.1f%%, want ~14%%", degradation*100)
	}
}

func TestNodeDeterminism(t *testing.T) {
	run := func() (uint64, int64) {
		n := smallNode(t, nil)
		wf, sf := wflows(1000, 16)
		pr := addPod(t, n, pod.ModePLB, 4, sf, nil)
		src := &workload.Source{Flows: wf, Rate: workload.ConstantRate(2e6), Seed: 17, Sink: pr.Sink()}
		src.Start(n.Engine)
		n.RunFor(20 * sim.Millisecond)
		return pr.Tx, pr.Latency.Sum()
	}
	tx1, lat1 := run()
	tx2, lat2 := run()
	if tx1 != tx2 || lat1 != lat2 {
		t.Fatalf("node not deterministic: tx %d/%d latency %d/%d", tx1, tx2, lat1, lat2)
	}
}

func TestPodString(t *testing.T) {
	n := smallNode(t, nil)
	_, sf := wflows(10, 18)
	pr := addPod(t, n, pod.ModePLB, 4, sf, nil)
	if pr.String() == "" {
		t.Fatal("empty string")
	}
}

func TestHeaderSplitReducesPCIe(t *testing.T) {
	run := func(split bool) (*PodRuntime, uint64) {
		n := smallNode(t, nil)
		wf, sf := wflows(2000, 21)
		pr := addPod(t, n, pod.ModePLB, 4, sf, func(c *PodConfig) { c.HeaderSplit = split })
		src := &workload.Source{Flows: wf, Rate: workload.ConstantRate(0.5e6),
			PacketBytes: 1500, Seed: 22, Sink: pr.Sink()}
		if err := src.Start(n.Engine); err != nil {
			t.Fatal(err)
		}
		n.RunFor(40 * sim.Millisecond)
		src.Stop()
		n.RunFor(sim.Duration(sim.Millisecond))
		return pr, pr.PCIeRxBytes
	}
	full, fullBytes := run(false)
	splitPr, splitBytes := run(true)
	if full.Tx != full.Rx || splitPr.Tx != splitPr.Rx {
		t.Fatalf("delivery broken: full %d/%d split %d/%d",
			full.Tx, full.Rx, splitPr.Tx, splitPr.Rx)
	}
	// 1500B packets, ~126B over PCIe in split mode: ~90% savings.
	ratio := float64(splitBytes) / float64(fullBytes)
	if ratio > 0.15 {
		t.Fatalf("split PCIe bytes ratio = %.2f, want < 0.15 for 1500B packets", ratio)
	}
	if splitPr.HeaderDrops != 0 {
		t.Fatalf("header drops = %d with an ample payload buffer", splitPr.HeaderDrops)
	}
}

func TestHeaderSplitSmallBufferDropsHeaders(t *testing.T) {
	n := smallNode(t, nil)
	wf, sf := wflows(2000, 23)
	pr := addPod(t, n, pod.ModePLB, 2, sf, func(c *PodConfig) {
		c.HeaderSplit = true
		c.PayloadBufferBytes = 64 << 10 // 64KB: ~45 jumbo payloads
		c.JitterSigma = 0.8             // heavy jitter => some late returns
		c.SlowPathProb = 0.01
		c.SlowPathCost = 300 * sim.Microsecond
	})
	src := &workload.Source{Flows: wf, Rate: workload.ConstantRate(1.5e6),
		PacketBytes: 8500, Seed: 24, Sink: pr.Sink()}
	if err := src.Start(n.Engine); err != nil {
		t.Fatal(err)
	}
	n.RunFor(60 * sim.Millisecond)
	if pr.payload.Evictions == 0 {
		t.Fatal("tiny payload buffer never evicted")
	}
	// Evicted payloads surface as header drops (either at the PLB legal
	// check or at egress reassembly).
	if pr.HeaderDrops+pr.PLB.Stats().HeaderDrops == 0 {
		t.Fatal("no header drops despite payload evictions")
	}
}

func TestFallbackToRSS(t *testing.T) {
	n := smallNode(t, nil)
	wf, sf := wflows(2000, 25)
	pr := addPod(t, n, pod.ModePLB, 4, sf, nil)
	if pr.Mode() != pod.ModePLB {
		t.Fatal("initial mode")
	}
	src := &workload.Source{Flows: wf, Rate: workload.ConstantRate(1e6), Seed: 26, Sink: pr.Sink()}
	src.Start(n.Engine)
	n.RunFor(20 * sim.Millisecond)
	inOrderBefore := pr.PLB.Stats().EmittedInOrder
	if inOrderBefore == 0 {
		t.Fatal("no PLB traffic before fallback")
	}

	if err := pr.FallbackToRSS(); err != nil {
		t.Fatal(err)
	}
	if pr.Mode() != pod.ModeRSS || pr.Fallbacks != 1 {
		t.Fatalf("mode=%v fallbacks=%d", pr.Mode(), pr.Fallbacks)
	}
	n.RunFor(20 * sim.Millisecond)
	src.Stop()
	n.RunFor(sim.Duration(sim.Millisecond))

	// After the drain window, PLB emissions must have stopped growing by
	// more than the in-flight residue, while total TX kept going.
	inOrderAfter := pr.PLB.Stats().EmittedInOrder
	if inOrderAfter-inOrderBefore > 100 {
		t.Fatalf("PLB still active after fallback: %d -> %d", inOrderBefore, inOrderAfter)
	}
	if pr.Tx != pr.Rx {
		t.Fatalf("loss across fallback: tx=%d rx=%d", pr.Tx, pr.Rx)
	}
	// Idempotent.
	if err := pr.FallbackToRSS(); err != nil || pr.Fallbacks != 1 {
		t.Fatal("fallback not idempotent")
	}
}

func TestInjectProbe(t *testing.T) {
	n := smallNode(t, nil)
	wf, sf := wflows(1000, 40)
	pr := addPod(t, n, pod.ModePLB, 4, sf, nil)

	// Background load so queue wait is nonzero sometimes.
	src := &workload.Source{Flows: wf, Rate: workload.ConstantRate(2e6), Seed: 41, Sink: pr.Sink()}
	src.Start(n.Engine)

	var results []ProbeResult
	for i := 0; i < 10; i++ {
		f := wf[i]
		at := sim.Time(i+1) * sim.Time(sim.Millisecond)
		n.Engine.At(at, func() {
			pr.InjectProbe(f, func(r ProbeResult) { results = append(results, r) })
		})
	}
	n.RunFor(20 * sim.Millisecond)
	src.Stop()
	if len(results) != 10 {
		t.Fatalf("got %d probe results", len(results))
	}
	nic := n.Engine
	_ = nic
	for i, r := range results {
		if r.Dropped {
			t.Fatalf("probe %d dropped", i)
		}
		if r.NICIngress <= 0 || r.Service <= 0 || r.NICEgress <= 0 {
			t.Fatalf("probe %d stages: %+v", i, r)
		}
		if r.QueueWait < 0 {
			t.Fatalf("probe %d negative queue wait: %+v", i, r)
		}
		sum := r.NICIngress + r.QueueWait + r.Service + r.NICEgress
		if sum != r.Total {
			t.Fatalf("probe %d stages %v != total %v", i, sum, r.Total)
		}
	}

	// A probe queues behind the data its core already holds, however the
	// data arrived: 200 packets injected at one instant onto a one-core RSS
	// pod, then a probe 10 µs later.
	for _, burst := range []int{1, 8} {
		t.Run(fmt.Sprintf("queued-behind-burst/burst=%d", burst), func(t *testing.T) {
			n, err := NewNode(NodeConfig{
				Seed:  1,
				Cache: cachesim.Config{SizeBytes: 4 << 20, Ways: 16, LineBytes: 64},
				Burst: burst,
			})
			if err != nil {
				t.Fatal(err)
			}
			wf, sf := wflows(1000, 40)
			pr := addPod(t, n, pod.ModeRSS, 1, sf, nil)
			for i := 0; i < 200; i++ {
				pr.Inject(wf[i], 256)
			}
			var got ProbeResult
			n.Engine.At(sim.Time(10*sim.Microsecond), func() {
				pr.InjectProbe(wf[0], func(r ProbeResult) { got = r })
			})
			n.RunFor(sim.Millisecond)
			if got.QueueWait != 197883 || got.Total != 206174 {
				t.Fatalf("probe behind 200 packets: %+v, want queue wait 197.883µs, total 206.174µs", got)
			}
		})
	}
}

func TestProbeDroppedByLimiter(t *testing.T) {
	lcfg := gop.DefaultConfig()
	lcfg.Stage1Rate = 1 // ~everything dropped
	lcfg.Stage2Rate = 1
	lcfg.Burst = 1
	lcfg.SampleOneIn = 0
	n := smallNode(t, &lcfg)
	wf, sf := wflows(10, 42)
	pr := addPod(t, n, pod.ModePLB, 2, sf, nil)
	dropped := 0
	// Burst of probes: the first consumes the single token, the rest drop.
	for i := 0; i < 5; i++ {
		pr.InjectProbe(wf[0], func(r ProbeResult) {
			if r.Dropped {
				dropped++
			}
		})
	}
	n.RunFor(sim.Duration(sim.Millisecond))
	if dropped == 0 {
		t.Fatal("rate-limited probes not reported dropped")
	}
}

func TestNodeReport(t *testing.T) {
	n := smallNode(t, nil)
	wf, sf := wflows(500, 43)
	pr := addPod(t, n, pod.ModePLB, 2, sf, nil)
	src := &workload.Source{Flows: wf, Rate: workload.ConstantRate(0.5e6), Seed: 44, Sink: pr.Sink()}
	src.Start(n.Engine)
	n.RunFor(10 * sim.Millisecond)
	rep := n.Report()
	for _, want := range []string{"albatross node", "VPC-VPC", "plb[gw]", "L3[numa0]"} {
		if !containsStr(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// A NUMA node's cache model is built when the first pod lands on it; until
// then the report prints what a fresh cache of the configured geometry would,
// and Cache(i) still answers for any i.
func TestCacheModelBuiltOnFirstUse(t *testing.T) {
	n := smallNode(t, nil)
	fresh := cachesim.New(n.cfg.Cache).String()
	for i, c := range n.caches {
		if c != nil {
			t.Fatalf("NewNode built the cache model of NUMA node %d", i)
		}
		if want := fmt.Sprintf("L3[numa%d]: %s\n", i, fresh); !containsStr(n.Report(), want) {
			t.Fatalf("report of an empty node lacks %q:\n%s", want, n.Report())
		}
	}
	_, sf := wflows(100, 1)
	pr := addPod(t, n, pod.ModePLB, 2, sf, nil)
	for i, c := range n.caches {
		if (c != nil) != (i == pr.Pod.NUMANode) {
			t.Fatalf("after one pod on NUMA node %d: cache model %d built = %v", pr.Pod.NUMANode, i, c != nil)
		}
	}
	other := 1 - pr.Pod.NUMANode
	if c := n.Cache(other); c == nil || c.Hits()+c.Misses() != 0 || c.String() != fresh {
		t.Fatalf("Cache(%d) on the unused NUMA node = %v", other, c)
	}
}
