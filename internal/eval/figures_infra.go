package eval

import (
	"albatross/internal/cachesim"
	"albatross/internal/core"
	"albatross/internal/cpu"
	"albatross/internal/pod"
	"albatross/internal/service"
	"albatross/internal/sim"
	"albatross/internal/stats"
	"albatross/internal/workload"
)

func init() {
	register("fig16", "Cross-NUMA vs intra-NUMA performance", runFig16)
	register("fig17", "Impact of automatic NUMA balancing at 90% load", runFig17)
}

func runFig16(cfg Config) *Result {
	r := &Result{ID: "fig16", Title: "Cross/intra NUMA comparison"}

	wf := workload.GenerateFlows(30000, 100, cfg.Seed)
	sf := workload.ServiceFlows(wf, 0)
	measure := func(cross bool) float64 {
		n, err := core.NewNode(core.NodeConfig{Seed: cfg.Seed,
			Cache: cachesim.Config{SizeBytes: 4 << 20, Ways: 16, LineBytes: 64}})
		if err != nil {
			panic(err)
		}
		pr, err := n.AddPod(core.PodConfig{
			Spec:      pod.Spec{Name: "gw", Service: service.VPCVPC, DataCores: 4, CtrlCores: 1},
			Flows:     sf,
			CrossNUMA: cross,
		})
		if err != nil {
			panic(err)
		}
		return pr.SaturationMpps(sf, 20000)
	}
	intra := measure(false)
	cross := measure(true)
	svcDegradation := (intra - cross) / intra

	// "Without any network service": only the instruction path matters, so
	// the degradation equals the compute penalty.
	pen := cpu.DefaultPenalties()
	noSvcDegradation := 1 - 1/pen.CrossCompute

	table := stats.NewTable("Workload", "Intra-NUMA", "Cross-NUMA", "Degradation %")
	table.AddRow("VPC-VPC (Mpps, 4 cores)", intra, cross, svcDegradation*100)
	table.AddRow("No service (relative)", 1.0, 1/pen.CrossCompute, noSvcDegradation*100)
	r.Table = table

	r.check("VPC-VPC degrades ~14% cross-NUMA", svcDegradation > 0.08 && svcDegradation < 0.22,
		"measured %.1f%%, paper 14%%", svcDegradation*100)
	r.check("no-service degrades ~3%", noSvcDegradation > 0.02 && noSvcDegradation < 0.04,
		"measured %.1f%%, paper 3%%", noSvcDegradation*100)
	return r
}

func runFig17(cfg Config) *Result {
	r := &Result{ID: "fig17", Title: "Latency at 90% load: numa_balancing on vs off"}

	run := func(balancing bool) (maxUS, p999US float64) {
		n, err := core.NewNode(core.NodeConfig{Seed: cfg.Seed,
			Cache: cachesim.Config{SizeBytes: 4 << 20, Ways: 16, LineBytes: 64}})
		if err != nil {
			panic(err)
		}
		wf := workload.GenerateFlows(20000, 100, cfg.Seed)
		sf := workload.ServiceFlows(wf, 0)
		pr, err := n.AddPod(core.PodConfig{
			Spec:  pod.Spec{Name: "gw", Service: service.VPCVPC, DataCores: 4, CtrlCores: 1},
			Flows: sf,
		})
		if err != nil {
			panic(err)
		}
		capacity := pr.SaturationMpps(sf, 5000) * 1e6
		if balancing {
			b := cpu.NewBalancer(n.Engine, pr.Cores, cfg.Seed+77)
			b.Interval = 20 * sim.Millisecond
			// Offered 90% load sustains ~75% measured utilization after
			// PLB/queueing overheads; the kernel migrates anything it
			// considers busy, so trigger above 60%.
			b.LoadThreshold = 0.6
			b.Start()
		}
		src := sourceFor(cfg, 6, wf, workload.ConstantRate(0.9*capacity), pr.Sink())
		src.Start(n.Engine)
		dur := 400 * sim.Millisecond
		if cfg.Quick {
			dur = 200 * sim.Millisecond
		}
		n.RunFor(dur)
		return float64(pr.Latency.Max()) / 1000, float64(pr.Latency.Quantile(0.999)) / 1000
	}

	offMax, offP999 := run(false)
	onMax, onP999 := run(true)

	table := stats.NewTable("numa_balancing", "p99.9 (µs)", "max (µs)")
	table.AddRow("enabled (default)", onP999, onMax)
	table.AddRow("disabled (fix)", offP999, offMax)
	r.Table = table

	r.check("balancing causes latency bursts", onMax > 3*offMax,
		"max %.0fµs vs %.0fµs", onMax, offMax)
	r.check("disabling removes the bursts", offMax < 500,
		"max %.0fµs without balancing", offMax)
	return r
}
