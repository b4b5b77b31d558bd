// Tenant isolation demo (the paper's Fig. 13/14 scenario): four tenants
// share a gateway pod; tenant 1 suddenly bursts far past the pod's
// capacity. Without the two-stage overload rate limiter everyone suffers
// indiscriminate loss; with it, tenant 1 is clamped in the NIC pipeline
// and the other tenants never notice.
package main

import (
	"fmt"
	"log"

	"albatross"
)

const (
	podCapacity = 350e3 // pps, roughly; see cmd/albatross-bench -exp fig13
	stepAt      = 500 * albatross.Millisecond
	runFor      = 1000 * albatross.Millisecond
)

func run(withLimiter bool) {
	opts := []albatross.Option{albatross.WithSeed(5)}
	if withLimiter {
		lc := albatross.DefaultLimiterConfig()
		lc.Stage1Rate = 0.4 * podCapacity
		lc.Stage2Rate = 0.1 * podCapacity
		opts = append(opts, albatross.WithLimiter(lc))
	}
	node, err := albatross.New(opts...)
	if err != nil {
		log.Fatal(err)
	}

	// Four tenants, each with its own flows.
	var all []albatross.ServiceFlow
	tenantFlows := make([][]albatross.Flow, 4)
	for i := range tenantFlows {
		fl := albatross.GenerateFlows(20000, 1, uint64(10+i))
		for j := range fl {
			fl[j].VNI = uint32(i + 1)
		}
		tenantFlows[i] = fl
		all = append(all, albatross.ServiceFlows(fl, 0)...)
	}

	pod, err := node.AddPod(albatross.PodConfig{
		Spec: albatross.PodSpec{Name: "gw0", Service: albatross.VPCVPC,
			DataCores: 2, CtrlCores: 1},
		Flows:      all,
		MemoryMult: 8, // slow the cores so the pod tops out near podCapacity
		QueueDepth: 512,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Offered rates: 20/15/10/5% of capacity; tenant 1 bursts to 170%.
	rates := []albatross.RateFn{
		albatross.StepRate(0.20*podCapacity, 1.70*podCapacity, albatross.Time(stepAt)),
		albatross.ConstantRate(0.15 * podCapacity),
		albatross.ConstantRate(0.10 * podCapacity),
		albatross.ConstantRate(0.05 * podCapacity),
	}
	for i := range rates {
		src := &albatross.Source{Flows: tenantFlows[i], Rate: rates[i],
			Seed: uint64(20 + i), Sink: pod.Sink()}
		if err := src.Start(node.Engine); err != nil {
			log.Fatal(err)
		}
	}

	title := "WITHOUT overload rate limiting (Fig. 13)"
	if withLimiter {
		title = "WITH two-stage overload rate limiting (Fig. 14)"
	}
	fmt.Println(title)
	fmt.Printf("%6s  %8s %8s %8s %8s\n", "t(ms)", "T1 Kpps", "T2 Kpps", "T3 Kpps", "T4 Kpps")

	window := 100 * albatross.Millisecond
	prev := make([]uint64, 5)
	for now := albatross.Duration(0); now < runFor; now += window {
		node.RunFor(window)
		fmt.Printf("%6.0f", node.Engine.Now().Seconds()*1000)
		for t := 1; t <= 4; t++ {
			cur := pod.TenantTx(uint32(t))
			fmt.Printf("  %8.1f", float64(cur-prev[t])/window.Seconds()/1e3)
			prev[t] = cur
		}
		fmt.Println()
	}
	fmt.Println()
}

func main() {
	run(false)
	run(true)
	fmt.Println("without GOP the burst starves every tenant; with the two-stage")
	fmt.Println("limiter the NIC pipeline clamps tenant 1 before the CPU and")
	fmt.Println("tenants 2-4 keep their full rates.")
}
