package eval

import (
	"albatross/internal/cachesim"
	"albatross/internal/core"
	"albatross/internal/pod"
	"albatross/internal/service"
	"albatross/internal/stats"
	"albatross/internal/workload"
)

func init() {
	register("memfreq", "Ablation: DRAM frequency 4800 vs 5600 MHz", runMemFreq)
}

// runMemFreq reproduces the §4.2 lesson: raising memory frequency from
// 4800 to 5600 MHz improved gateway performance by ~8%.
func runMemFreq(cfg Config) *Result {
	r := &Result{ID: "memfreq", Title: "Gateway performance vs memory frequency"}
	wf := workload.GenerateFlows(30000, 100, cfg.Seed)
	sf := workload.ServiceFlows(wf, 0)

	measure := func(mhz float64) float64 {
		n, err := core.NewNode(core.NodeConfig{Seed: cfg.Seed,
			Cache: cachesim.Config{SizeBytes: 4 << 20, Ways: 16, LineBytes: 64},
			Mem:   cachesim.DefaultLatency().WithDRAMFrequency(mhz),
		})
		if err != nil {
			panic(err)
		}
		pr, err := n.AddPod(core.PodConfig{
			Spec:  pod.Spec{Name: "gw", Service: service.VPCInternet, DataCores: 4, CtrlCores: 1},
			Flows: sf,
		})
		if err != nil {
			panic(err)
		}
		return pr.SaturationMpps(sf, 20000)
	}
	slow := measure(4800)
	fast := measure(5600)
	gain := (fast - slow) / slow

	table := stats.NewTable("DRAM", "Mpps (4 cores)", "Gain %")
	table.AddRow("4800 MHz", slow, 0.0)
	table.AddRow("5600 MHz", fast, gain*100)
	r.Table = table
	r.check("~8% improvement from faster memory", gain > 0.04 && gain < 0.14,
		"measured %.1f%%, paper ~8%%", gain*100)
	return r
}
