package eval

import (
	"albatross/internal/core"
	"albatross/internal/nicsim"
	"albatross/internal/pod"
	"albatross/internal/service"
	"albatross/internal/sim"
	"albatross/internal/stats"
	"albatross/internal/workload"
)

func init() {
	register("split", "Appendix A: header-payload split PCIe savings", runSplit)
	register("priority", "Protocol packet prioritization under saturation", runPriority)
	register("elasticity", "Container elasticity: scale-out under growing load", runElasticity)
	register("offload", "Future work: FPGA session offloading for stateful NFs", runOffload)
}

// runSplit quantifies the PCIe bandwidth saved by header-payload split
// across packet sizes, including the jumbo frames the appendix calls out.
func runSplit(cfg Config) *Result {
	r := &Result{ID: "split", Title: "Header-payload split: PCIe bytes per delivered packet"}

	run := func(split bool, pktBytes int) (pciePerPkt float64, delivered uint64, headerDrops uint64) {
		n := newTestNode(cfg)
		wf := workload.GenerateFlows(5000, 100, cfg.Seed)
		sf := workload.ServiceFlows(wf, 0)
		pr, err := n.AddPod(core.PodConfig{
			Spec:        pod.Spec{Name: "gw", Service: service.VPCVPC, DataCores: 4, CtrlCores: 1},
			Flows:       sf,
			HeaderSplit: split,
		})
		if err != nil {
			panic(err)
		}
		src := sourceFor(cfg, 9, wf, workload.ConstantRate(1e6), pr.Sink(),
			workload.WithPacketBytes(pktBytes))
		if err := src.Start(n.Engine); err != nil {
			panic(err)
		}
		n.RunFor(30 * sim.Millisecond)
		src.Stop()
		n.RunFor(sim.Duration(sim.Millisecond))
		if pr.Tx == 0 {
			return 0, 0, pr.HeaderDrops
		}
		return float64(pr.PCIeRxBytes+pr.PCIeTxBytes) / float64(pr.Tx), pr.Tx, pr.HeaderDrops
	}

	table := stats.NewTable("Packet size", "Full PCIe B/pkt", "Split PCIe B/pkt", "Savings %")
	sizes := []int{256, 1500, 8600} // 8600 ≈ jumbo frame (8500B payload)
	savings := map[int]float64{}
	for _, size := range sizes {
		fullB, fullTx, _ := run(false, size)
		splitB, splitTx, hd := run(true, size)
		if fullTx == 0 || splitTx == 0 {
			r.check("traffic delivered", false, "size %d: tx full=%d split=%d", size, fullTx, splitTx)
			return r
		}
		s := 1 - splitB/fullB
		savings[size] = s
		table.AddRow(size, fullB, splitB, s*100)
		if hd != 0 {
			r.notef("size %d: %d header drops", size, hd)
		}
	}
	r.Table = table

	r.check("jumbo frames save >90% PCIe bandwidth", savings[8600] > 0.90,
		"%.1f%%", savings[8600]*100)
	r.check("1500B packets save >80%", savings[1500] > 0.80,
		"%.1f%%", savings[1500]*100)
	r.check("small packets benefit less", savings[256] < savings[1500],
		"256B %.1f%% < 1500B %.1f%%", savings[256]*100, savings[1500]*100)
	// Sanity vs the analytic model.
	want := nicsim.PCIeSavings(8600, 126)
	r.check("measured jumbo savings match the model", savings[8600] > want-0.03 && savings[8600] < want+0.03,
		"measured %.3f vs model %.3f", savings[8600], want)
	return r
}

// runPriority shows the second GOP mechanism: BGP/BFD protocol packets ride
// dedicated priority queues, so saturating the dataplane cannot break
// control-plane peering (no BFD loss => no false link-down).
func runPriority(cfg Config) *Result {
	r := &Result{ID: "priority", Title: "Priority queues under dataplane saturation"}

	n := newTestNode(cfg)
	wf := workload.GenerateFlows(5000, 100, cfg.Seed)
	sf := workload.ServiceFlows(wf, 0)
	pr, err := n.AddPod(core.PodConfig{
		Spec:       pod.Spec{Name: "gw", Service: service.VPCVPC, DataCores: 2, CtrlCores: 1},
		Flows:      sf,
		QueueDepth: 256,
	})
	if err != nil {
		panic(err)
	}
	capacity := pr.SaturationMpps(sf, 5000) * 1e6

	// Saturate the dataplane at 2x capacity.
	src := sourceFor(cfg, 10, wf, workload.ConstantRate(2*capacity), pr.Sink())
	src.Start(n.Engine)

	// BFD control packets every 10ms (paper: 3 lost probes = link down).
	bfdFlow := workload.Flow{Tuple: wf[0].Tuple}
	bfdFlow.Tuple.Proto = 17 // UDP
	bfdFlow.Tuple.DPort = 3784
	sent := 0
	var schedule func()
	schedule = func() {
		if sent >= 10 {
			return
		}
		sent++
		pr.Inject(bfdFlow, 66)
		n.Engine.After(10*sim.Millisecond, schedule)
	}
	schedule()
	n.RunFor(120 * sim.Millisecond)

	dataLossPct := float64(pr.QueueDrops+pr.PLBDrops) / float64(pr.Rx) * 100

	table := stats.NewTable("Class", "Sent", "Delivered", "Loss %")
	table.AddRow("BFD (priority)", sent, pr.PriorityTx, float64(sent-int(pr.PriorityTx))/float64(sent)*100)
	table.AddRow("Tenant data (PLB)", pr.Rx-pr.PriorityRx, pr.Tx, dataLossPct)
	r.Table = table

	r.check("dataplane saturated (data loss observed)", dataLossPct > 20,
		"%.1f%% data loss at 2x capacity", dataLossPct)
	r.check("zero BFD loss", pr.PriorityTx == uint64(sent),
		"%d/%d delivered", pr.PriorityTx, sent)
	r.check("fewer than 3 consecutive BFD losses", sent-int(pr.PriorityTx) < 3,
		"link stays up")
	return r
}

// runElasticity reproduces the §7 lesson: facing load growth approaching
// capacity, spin up a new GW pod in 10 seconds and shift traffic
// make-before-break. Delivery must keep up with the offered ramp.
func runElasticity(cfg Config) *Result {
	r := &Result{ID: "elasticity", Title: "10-second pod scale-out under growing load"}

	n := newTestNode(cfg)
	wf := workload.GenerateFlows(20000, 100, cfg.Seed)
	sf := workload.ServiceFlows(wf, 0)
	// The scale-out story spans tens of virtual seconds (the pod startup
	// time is a hard 10s), so throttle per-packet capacity with a heavy
	// memory multiplier to keep the event count tractable.
	memMult := 20.0
	if cfg.Quick {
		memMult = 60.0
	}
	mkPod := func(name string) *core.PodRuntime {
		p, err := n.AddPod(core.PodConfig{
			Spec:       pod.Spec{Name: name, Service: service.VPCVPC, DataCores: 2, CtrlCores: 1},
			Flows:      sf,
			MemoryMult: memMult,
		})
		if err != nil {
			panic(err)
		}
		return p
	}
	pr1 := mkPod("gw0")
	capacity := pr1.SaturationMpps(sf, 5000) * 1e6

	// Offered load ramps from 50% to 160% of one pod over 30 virtual
	// seconds (compressed from the production tens-of-minutes timescale).
	rampEnd := 30 * sim.Second
	rate := func(t sim.Time) float64 {
		f := 0.5 + 1.1*float64(t)/float64(rampEnd)
		if f > 1.6 {
			f = 1.6
		}
		return f * capacity
	}

	var pr2 *core.PodRuntime
	active := []*core.PodRuntime{pr1}
	rr := 0
	sink := func(f workload.Flow, bytes int) {
		// The uplink switch ECMPs across advertised pods.
		pr := active[rr%len(active)]
		rr++
		pr.Inject(f, bytes)
	}
	src := sourceFor(cfg, 11, wf, rate, sink)
	src.Start(n.Engine)

	// Watchdog: when offered load crosses 80% of capacity, request a new
	// pod; it becomes Ready after pod.StartupTime (10s) and only then
	// advertises its route (make-before-break, §7).
	var scaleOutAt, readyAt sim.Time
	var watch func()
	watch = func() {
		now := n.Engine.Now()
		if pr2 == nil && rate(now) > 0.8*capacity {
			scaleOutAt = now
			pr2 = mkPod("gw1")
			readyAt = pr2.Pod.ReadyAt
			n.Engine.At(readyAt, func() { active = append(active, pr2) })
			return
		}
		if pr2 == nil {
			n.Engine.After(100*sim.Millisecond, watch)
		}
	}
	watch()

	// Sample delivery in 2s windows.
	table := stats.NewTable("t (s)", "Offered (xC)", "Delivered (xC)", "Pods")
	var prevTx uint64
	worstPostReady := 1.0
	for now := sim.Duration(0); now < 40*sim.Second; now += 2 * sim.Second {
		n.RunFor(2 * sim.Second)
		tx := pr1.Tx
		if pr2 != nil {
			tx += pr2.Tx
		}
		delivered := float64(tx-prevTx) / 2 / capacity
		prevTx = tx
		offered := rate(n.Engine.Now()) / capacity
		table.AddRow(n.Engine.Now().Seconds(), offered, delivered, len(active))
		if readyAt > 0 && n.Engine.Now() > readyAt.Add(2*sim.Second) {
			if ratio := delivered / offered; ratio < worstPostReady {
				worstPostReady = ratio
			}
		}
	}
	r.Table = table

	r.check("scale-out triggered", pr2 != nil, "at t=%.1fs", scaleOutAt.Seconds())
	if pr2 != nil {
		r.check("pod ready in 10s", readyAt.Sub(scaleOutAt) == pod.StartupTime,
			"startup %v", readyAt.Sub(scaleOutAt))
		r.check("post-scale-out delivery keeps up", worstPostReady > 0.95,
			"worst delivered/offered = %.3f", worstPostReady)
		lost := pr1.QueueDrops + pr1.PLBDrops + pr2.QueueDrops + pr2.PLBDrops
		total := pr1.Rx + pr2.Rx
		r.check("overall loss small across the ramp", float64(lost)/float64(total) < 0.05,
			"%.2f%% lost", float64(lost)/float64(total)*100)
	}
	r.notef("physical gateway clusters need tens of days for the same capacity add (Tab. 6)")
	return r
}

// runOffload models the §7 future-work plan: offloading write-heavy
// session state to the FPGA removes the per-packet shared-state writes
// from the CPUs, restoring linear scaling for stateful NFs under PLB.
func runOffload(cfg Config) *Result {
	r := &Result{ID: "offload", Title: "FPGA session offloading for write-heavy stateful NFs"}

	// Per-packet cost model (ns): base service work + session update.
	// CPU-shared: the update bounces the session cache line across
	// writers (coherence penalty grows with core count).
	// FPGA-offloaded: the NIC owns the session; CPU cost drops the
	// update entirely (the FPGA handles it at line rate in the pipeline).
	const (
		baseNS      = 700.0
		updateNS    = 60.0
		coherenceNS = 45.0 // extra per additional writer sharing the line
	)
	table := stats.NewTable("Cores", "CPU shared (Mpps)", "FPGA offload (Mpps)", "Speedup")
	var speedup32 float64
	for _, cores := range []int{1, 2, 4, 8, 16, 32} {
		sharedCost := baseNS + updateNS + coherenceNS*float64(cores-1)
		offloadCost := baseNS
		shared := float64(cores) * 1e3 / sharedCost
		offload := float64(cores) * 1e3 / offloadCost
		table.AddRow(cores, shared, offload, offload/shared)
		if cores == 32 {
			speedup32 = offload / shared
		}
	}
	r.Table = table

	// FPGA budget: a session table for 1M concurrent sessions at 64B each
	// must fit the free BRAM+URAM headroom.
	res := nicsim.DefaultResourceModel()
	head := res.Headroom()
	sessionBits := int64(1_000_000) * 64 * 8
	fits := float64(sessionBits) < float64(res.TotalBRAMBits)*head.BRAMPct/100*40 // +URAM headroom factor
	r.check("offload restores >2x at 32 cores", speedup32 > 2, "%.1fx", speedup32)
	r.check("session table fits FPGA memory headroom", fits,
		"%d Mbit needed, %.0f%% BRAM free (plus URAM)", sessionBits>>20, head.BRAMPct)
	r.notef("cache-coherence collapse for write-heavy NFs is modelled in internal/flowtable's Example_coherenceModel")

	// Cross-check the cost model against the simulator: a VPC-Internet pod
	// (stateful) vs VPC-VPC (stateless) cost gap approximates updateNS.
	nQuick := newTestNode(cfg)
	wf := workload.GenerateFlows(10000, 100, cfg.Seed)
	sf := workload.ServiceFlows(wf, 0)
	inet, err := nQuick.AddPod(core.PodConfig{
		Spec:  pod.Spec{Name: "a", Service: service.VPCInternet, DataCores: 2, CtrlCores: 1},
		Flows: sf,
	})
	if err != nil {
		panic(err)
	}
	cost := inet.MeanServiceCost(sf, 5000)
	r.check("modelled base cost within 2x of simulated stateful service",
		float64(cost) > baseNS/2 && float64(cost) < baseNS*2,
		"simulated %.0fns vs modelled %.0fns", float64(cost), baseNS)
	return r
}
