package albatross_test

import (
	"fmt"

	"albatross"
)

// ExampleNewNode runs the smallest end-to-end gateway: one pod, Poisson
// traffic, deterministic results.
func ExampleNewNode() {
	node, err := albatross.NewNode(albatross.NodeConfig{Seed: 1})
	if err != nil {
		panic(err)
	}
	flows := albatross.GenerateFlows(1000, 10, 1)
	pod, err := node.AddPod(albatross.PodConfig{
		Spec: albatross.PodSpec{
			Name: "gw0", Service: albatross.VPCVPC,
			DataCores: 2, CtrlCores: 1,
		},
		Flows: albatross.ServiceFlows(flows, 0),
	})
	if err != nil {
		panic(err)
	}
	src := &albatross.Source{
		Flows:         flows,
		Rate:          albatross.ConstantRate(100000),
		Deterministic: true,
		Sink:          pod.Sink(),
	}
	if err := src.Start(node.Engine); err != nil {
		panic(err)
	}
	node.RunFor(10 * albatross.Millisecond)
	src.Stop()
	node.RunFor(albatross.Millisecond)

	stats := pod.PLB.Stats()
	fmt.Printf("delivered %d of %d packets, disorder %.0f\n",
		pod.Tx, pod.Rx, stats.DisorderRate())
	// Output: delivered 1000 of 1000 packets, disorder 0
}

// ExampleDefaultLimiterConfig shows the two-stage rate limiter clamping a
// tenant that blasts far past its share.
func ExampleDefaultLimiterConfig() {
	lc := albatross.DefaultLimiterConfig()
	lc.Stage1Rate = 100000 // 100 Kpps coarse
	lc.Stage2Rate = 25000  // 25 Kpps fine for marked overflow
	node, err := albatross.NewNode(albatross.NodeConfig{Seed: 1, Limiter: &lc})
	if err != nil {
		panic(err)
	}
	flows := albatross.GenerateFlows(100, 1, 2) // one tenant (VNI 0)
	pod, err := node.AddPod(albatross.PodConfig{
		Spec:  albatross.PodSpec{Name: "gw0", Service: albatross.VPCVPC, DataCores: 2, CtrlCores: 1},
		Flows: albatross.ServiceFlows(flows, 0),
	})
	if err != nil {
		panic(err)
	}
	// Offer 4x the tenant's 125 Kpps limit.
	src := &albatross.Source{Flows: flows, Rate: albatross.ConstantRate(500000),
		Deterministic: true, Sink: pod.Sink()}
	if err := src.Start(node.Engine); err != nil {
		panic(err)
	}
	node.RunFor(albatross.Second)
	passFrac := float64(pod.Rx-pod.NICDrops) / float64(pod.Rx)
	fmt.Printf("tenant clamped to ~%.0f%% of offered\n", passFrac*100)
	// Output: tenant clamped to ~25% of offered
}

// ExampleNew is the options-form quickstart (mirrors examples/quickstart):
// New(WithSeed(1)) is equivalent to NewNode(NodeConfig{Seed: 1}).
func ExampleNew() {
	node, err := albatross.New(albatross.WithSeed(1))
	if err != nil {
		panic(err)
	}
	flows := albatross.GenerateFlows(1000, 10, 1)
	pod, err := node.AddPod(albatross.PodConfig{
		Spec: albatross.PodSpec{Name: "gw0", Service: albatross.VPCInternet,
			DataCores: 2, CtrlCores: 1},
		Flows: albatross.ServiceFlows(flows, 0),
	})
	if err != nil {
		panic(err)
	}
	src := &albatross.Source{Flows: flows, Rate: albatross.ConstantRate(100000),
		Deterministic: true, Sink: pod.Sink()}
	if err := src.Start(node.Engine); err != nil {
		panic(err)
	}
	node.RunFor(10 * albatross.Millisecond)
	src.Stop()
	node.RunFor(albatross.Millisecond)
	fmt.Printf("delivered %d of %d\n", pod.Tx, pod.Rx)
	// Output: delivered 1000 of 1000
}

// ExampleNew_heavyHitter mirrors examples/heavyhitter: one flow past a
// core's capacity saturates its RSS core but is absorbed under PLB.
func ExampleNew_heavyHitter() {
	run := func(mode int) float64 {
		m := albatross.ModeRSS
		if mode == 1 {
			m = albatross.ModePLB
		}
		node, err := albatross.New(albatross.WithSeed(1))
		if err != nil {
			panic(err)
		}
		flows := albatross.GenerateFlows(1000, 10, 1)
		pod, err := node.AddPod(albatross.PodConfig{
			Spec: albatross.PodSpec{Name: "gw0", Service: albatross.VPCVPC,
				DataCores: 2, CtrlCores: 1, Mode: m},
			Flows: albatross.ServiceFlows(flows, 0),
		})
		if err != nil {
			panic(err)
		}
		// One flow at ~3 Mpps: far past one core, within two.
		src := &albatross.Source{Flows: flows[:1], Rate: albatross.ConstantRate(3e6),
			Seed: 2, Sink: pod.Sink()}
		if err := src.Start(node.Engine); err != nil {
			panic(err)
		}
		node.RunFor(20 * albatross.Millisecond)
		src.Stop()
		node.RunFor(albatross.Millisecond)
		return float64(pod.QueueDrops+pod.PLBDrops) / float64(pod.Rx) * 100
	}
	rssLoss, plbLoss := run(0), run(1)
	fmt.Printf("rss loses >10%%: %v, plb loses <0.1%%: %v\n", rssLoss > 10, plbLoss < 0.1)
	// Output: rss loses >10%: true, plb loses <0.1%: true
}

// ExampleWithFaultPlan mirrors examples/faultdrill: a scheduled core
// failure is absorbed by spray-mask eviction with bounded loss.
func ExampleWithFaultPlan() {
	plan := (&albatross.FaultPlan{}).
		CoreFail(5*albatross.Millisecond, 0, 1, 5*albatross.Millisecond)
	node, err := albatross.New(albatross.WithSeed(7), albatross.WithFaultPlan(plan))
	if err != nil {
		panic(err)
	}
	flows := albatross.GenerateFlows(1000, 10, 7)
	pod, err := node.AddPod(albatross.PodConfig{
		Spec: albatross.PodSpec{Name: "gw0", Service: albatross.VPCVPC,
			DataCores: 4, CtrlCores: 1, Mode: albatross.ModePLB},
		Flows: albatross.ServiceFlows(flows, 0),
	})
	if err != nil {
		panic(err)
	}
	src := &albatross.Source{Flows: flows, Rate: albatross.ConstantRate(1e6),
		Seed: 8, Sink: pod.Sink()}
	if err := src.Start(node.Engine); err != nil {
		panic(err)
	}
	node.RunFor(20 * albatross.Millisecond)
	src.Stop()
	node.RunFor(albatross.Millisecond)

	fmt.Printf("faults fired: %d\n", len(node.FaultLog()))
	fmt.Printf("loss bounded: %v, core restored: %v\n",
		pod.FaultLost <= 1025, pod.PLB.CoreUp(1))
	// Output:
	// faults fired: 1
	// loss bounded: true, core restored: true
}

// ExampleNewCluster mirrors examples/clusterupgrade at toy scale: a
// 3-node ECMP cluster gray-upgrades one member under live traffic. The
// route is withdrawn before the pods drain (make-before-break), so the
// upgrade is lossless: every packet the switch sprayed is emitted.
func ExampleNewCluster() {
	plan := (&albatross.FaultPlan{}).
		NodeDrain(10*albatross.Millisecond, 1, 20*albatross.Millisecond)
	cl, err := albatross.NewCluster(
		albatross.WithSeed(1),
		albatross.WithNodes(3),
		albatross.WithFaultPlan(plan),
	)
	if err != nil {
		panic(err)
	}
	flows := albatross.GenerateFlows(1000, 10, 1)
	if err := cl.AddPod(albatross.PodConfig{
		Spec: albatross.PodSpec{Name: "gw", Service: albatross.VPCVPC,
			DataCores: 2, CtrlCores: 1, Mode: albatross.ModePLB},
		Flows: albatross.ServiceFlows(flows, 0),
	}); err != nil {
		panic(err)
	}
	src := &albatross.Source{Flows: flows, Rate: albatross.ConstantRate(200000),
		Deterministic: true, Sink: cl.Sink()}
	if err := src.Start(cl.Engine); err != nil {
		panic(err)
	}
	cl.RunFor(50 * albatross.Millisecond)
	src.Stop()
	cl.RunFor(5 * albatross.Millisecond)

	var tx uint64
	for _, m := range cl.Members() {
		for _, pr := range m.Node.Pods() {
			tx += pr.Tx
		}
	}
	m := cl.Members()[1]
	fmt.Printf("nodes=%d drains=%d restarts=%d\n",
		len(cl.Members()), m.Drains, m.Node.Pods()[0].Restarts)
	fmt.Printf("lossless upgrade: %v\n",
		tx == cl.Sprayed && cl.Drops == 0 && cl.Blackholed() == 0)
	// Output:
	// nodes=3 drains=1 restarts=1
	// lossless upgrade: true
}

// ExampleNode_EnableUplink runs a lone node's BFD-guarded uplink through
// two flaps: a long one is detected, its route withdrawn and re-advertised
// 1s after the link returns (a lone node blackholes in between; in a
// cluster, ECMP moves the traffic to the survivors), and a short one is
// absorbed.
func ExampleNode_EnableUplink() {
	node, err := albatross.New(albatross.WithSeed(1))
	if err != nil {
		panic(err)
	}
	node.EnableUplink()
	if err := node.InjectBGPFlap(400 * albatross.Millisecond); err != nil {
		panic(err)
	}
	node.RunFor(2 * albatross.Second)
	if err := node.InjectBGPFlap(100 * albatross.Millisecond); err != nil {
		panic(err)
	}
	node.RunFor(albatross.Second)
	st := node.Uplink().Stats()
	fmt.Printf("flaps=%d detections=%d recoveries=%d absorbed=%d downtime=%v route-up=%v\n",
		st.Flaps, st.Detections, st.Recoveries, st.Absorbed, st.DownTime, node.Uplink().RouteUp())
	// Output: flaps=2 detections=1 recoveries=1 absorbed=1 downtime=1.45s route-up=true
}

// ExamplePodRuntime_InjectProbe mirrors examples/telemetry: Zoonet-style
// probes decompose a packet's latency by pipeline stage.
func ExamplePodRuntime_InjectProbe() {
	node, err := albatross.New(albatross.WithSeed(11))
	if err != nil {
		panic(err)
	}
	flows := albatross.GenerateFlows(1000, 10, 11)
	pod, err := node.AddPod(albatross.PodConfig{
		Spec: albatross.PodSpec{Name: "gw0", Service: albatross.VPCVPC,
			DataCores: 2, CtrlCores: 1},
		Flows: albatross.ServiceFlows(flows, 0),
	})
	if err != nil {
		panic(err)
	}
	probes := 0
	pod.InjectProbe(flows[0], func(r albatross.ProbeResult) {
		if !r.Dropped && r.Total > 0 && r.Total == r.NICIngress+r.QueueWait+r.Service+r.NICEgress {
			probes++
		}
	})
	node.RunFor(albatross.Millisecond)
	fmt.Printf("probes with consistent stage breakdown: %d\n", probes)
	// Output: probes with consistent stage breakdown: 1
}

// ExampleNode_Close shows the lifecycle contract: Stop drains a pod and
// frees its capacity for reuse; Close stops everything.
func ExampleNode_Close() {
	node, err := albatross.New(albatross.WithSeed(1))
	if err != nil {
		panic(err)
	}
	flows := albatross.GenerateFlows(100, 10, 1)
	add := func(name string) *albatross.PodRuntime {
		p, err := node.AddPod(albatross.PodConfig{
			Spec: albatross.PodSpec{Name: name, Service: albatross.VPCVPC,
				DataCores: 2, CtrlCores: 1},
			Flows: albatross.ServiceFlows(flows, 0),
		})
		if err != nil {
			panic(err)
		}
		return p
	}
	gw0 := add("gw0")
	if err := gw0.Stop(); err != nil { // drain, then release cores and queues
		panic(err)
	}
	gw1 := add("gw1") // reuses the freed capacity
	if err := node.Close(); err != nil {
		panic(err)
	}
	fmt.Printf("gw0=%s gw1=%s\n", gw0.State(), gw1.State())
	// Output: gw0=stopped gw1=stopped
}
