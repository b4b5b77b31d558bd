package eval

import (
	"fmt"

	"albatross/internal/cachesim"
	"albatross/internal/core"
	"albatross/internal/gop"
	"albatross/internal/pod"
	"albatross/internal/service"
	"albatross/internal/sim"
	"albatross/internal/stats"
	"albatross/internal/workload"
)

func init() {
	register("fig13", "Tenant burst without overload rate limiting", func(c Config) *Result {
		return runTenantOverload(c, false)
	})
	register("fig14", "Tenant burst with two-stage overload rate limiting", func(c Config) *Result {
		return runTenantOverload(c, true)
	})
}

// runTenantOverload reproduces Fig. 13/14, scaled 1:100 in time and rate
// from the paper's setup: four tenants at 4/3/2/1 Mpps against a 20 Mpps
// pod; at t=15s the dominant tenant bursts to 34 Mpps. Here all rates are
// expressed relative to the measured pod capacity C: initial offers
// 0.2/0.15/0.1/0.05 C, the burst takes tenant 1 to 1.7 C, and the meters
// are 0.4 C (stage 1) + 0.1 C (stage 2) = 0.5 C per tenant.
func runTenantOverload(cfg Config, withGOP bool) *Result {
	id := "fig13"
	title := "Tenant rates WITHOUT overload rate limiting"
	if withGOP {
		id = "fig14"
		title = "Tenant rates WITH two-stage overload rate limiting"
	}
	r := &Result{ID: id, Title: title}

	// Tenants 1-4 each bring enough flows that even a single tenant's
	// working set exceeds the L3 (so the burst cannot ride a warm cache).
	tenantFlows := make([][]workload.Flow, 4)
	var allFlows []service.Flow
	for i := 0; i < 4; i++ {
		fl := workload.GenerateFlows(20000, 1, cfg.Seed+uint64(i+1))
		for j := range fl {
			fl[j].VNI = uint32(i + 1)
		}
		tenantFlows[i] = fl
		allFlows = append(allFlows, workload.ServiceFlows(fl, 0)...)
	}

	// Measure pod capacity on a throwaway node with the same population.
	probe, err := core.NewNode(core.NodeConfig{Seed: cfg.Seed,
		Cache: cachesim.Config{SizeBytes: 4 << 20, Ways: 16, LineBytes: 64}})
	if err != nil {
		panic(err)
	}
	prCap, err := probe.AddPod(core.PodConfig{
		Spec:  pod.Spec{Name: "probe", Service: service.VPCVPC, DataCores: 2, CtrlCores: 1},
		Flows: allFlows, MemoryMult: 8,
	})
	if err != nil {
		panic(err)
	}
	capacity := prCap.SaturationMpps(allFlows, 20000) * 1e6 // pps

	var limiter *gop.Config
	if withGOP {
		lc := gop.DefaultConfig()
		lc.Stage1Rate = 0.4 * capacity
		lc.Stage2Rate = 0.1 * capacity
		lc.SampleOneIn = 0 // isolate the metering behaviour, as in Fig. 14
		limiter = &lc
	}
	n, err := core.NewNode(core.NodeConfig{Seed: cfg.Seed,
		Cache:   cachesim.Config{SizeBytes: 4 << 20, Ways: 16, LineBytes: 64},
		Limiter: limiter,
	})
	if err != nil {
		panic(err)
	}

	pr, err := n.AddPod(core.PodConfig{
		Spec:  pod.Spec{Name: "gw", Service: service.VPCVPC, DataCores: 2, CtrlCores: 1, Mode: pod.ModePLB},
		Flows: allFlows, MemoryMult: 8, QueueDepth: 512,
	})
	if err != nil {
		panic(err)
	}

	stepAt := sim.Time(1500 * sim.Millisecond)
	total := 3 * sim.Second
	if cfg.Quick {
		stepAt = sim.Time(600 * sim.Millisecond)
		total = 1200 * sim.Millisecond
	}
	offered := []workload.RateFn{
		workload.StepRate(0.20*capacity, 1.70*capacity, stepAt),
		workload.ConstantRate(0.15 * capacity),
		workload.ConstantRate(0.10 * capacity),
		workload.ConstantRate(0.05 * capacity),
	}
	for i := 0; i < 4; i++ {
		src := sourceFor(cfg, uint64(50+i), tenantFlows[i], offered[i], pr.Sink())
		if err := src.Start(n.Engine); err != nil {
			panic(err)
		}
	}

	// Sample delivered per-tenant rates in windows.
	window := 100 * sim.Millisecond
	series := make([]*stats.Series, 4)
	for i := range series {
		series[i] = &stats.Series{}
	}
	prev := make([]uint64, 5)
	for now := sim.Duration(0); now < total; now += window {
		n.RunFor(window)
		for i := 0; i < 4; i++ {
			cur := pr.TenantTx(uint32(i + 1))
			rate := float64(cur-prev[i+1]) / window.Seconds()
			series[i].Append(n.Engine.Now().Seconds(), rate/capacity)
			prev[i+1] = cur
		}
	}

	table := stats.NewTable("t (s)", "T1 (xC)", "T2 (xC)", "T3 (xC)", "T4 (xC)")
	for i := 0; i < series[0].Len(); i++ {
		table.AddRow(fmt.Sprintf("%.1f", series[0].T[i]),
			series[0].V[i], series[1].V[i], series[2].V[i], series[3].V[i])
	}
	r.Table = table
	r.notef("C = measured pod capacity (%.0f Kpps); paper C = 20 Mpps", capacity/1e3)

	// Post-step delivery ratios (last 3 windows).
	postRatio := func(i int, offeredFrac float64) float64 {
		n := series[i].Len()
		sum := 0.0
		for k := n - 3; k < n; k++ {
			sum += series[i].V[k]
		}
		return sum / 3 / offeredFrac
	}

	if withGOP {
		// Fig. 14: tenant 1 capped near 0.5C; others unharmed.
		t1 := postRatio(0, 1.70)
		r.check("tenant 1 rate-limited in the NIC", t1 < 0.40,
			"delivered %.2f of offered burst", t1)
		t1Abs := postRatio(0, 1.0) // delivered as fraction of C
		r.check("tenant 1 capped at ~0.5C", t1Abs > 0.35 && t1Abs < 0.65,
			"delivered %.2fC, meters total 0.5C", t1Abs)
		for i, frac := range []float64{0.15, 0.10, 0.05} {
			ratio := postRatio(i+1, frac)
			r.check(fmt.Sprintf("tenant %d unaffected", i+2), ratio > 0.90,
				"delivered %.2f of offered", ratio)
		}
	} else {
		// Fig. 13: everyone suffers ~50% loss after the burst.
		fracs := []float64{1.70, 0.15, 0.10, 0.05}
		for i, frac := range fracs {
			ratio := postRatio(i, frac)
			r.check(fmt.Sprintf("tenant %d suffers indiscriminate loss", i+1),
				ratio < 0.80, "delivered %.2f of offered", ratio)
		}
		// Pre-step: everyone fine (inspect window just before the step).
		idx := int(sim.Duration(stepAt)/window) - 2
		pre1 := series[1].V[idx] / 0.15
		r.check("tenants healthy before the burst", pre1 > 0.9,
			"tenant 2 delivered %.2f of offered pre-step", pre1)
	}
	return r
}
