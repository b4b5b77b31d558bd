// Telemetry demo: the pod pipeline measures itself. Every packet records
// its residency in each stage, so a loaded gateway pod reports its NIC
// ingress, CPU and NIC egress latencies (the per-module numbers of the
// paper's Tab. 4) from the data traffic alone, and the node report shows
// the operator's dashboard view.
package main

import (
	"fmt"
	"log"

	"albatross"
)

func main() {
	node, err := albatross.New(albatross.WithSeed(11))
	if err != nil {
		log.Fatal(err)
	}
	flows := albatross.GenerateFlows(50000, 5000, 11)
	pod, err := node.AddPod(albatross.PodConfig{
		Spec: albatross.PodSpec{Name: "gw0", Service: albatross.VPCInternet,
			DataCores: 4, CtrlCores: 2},
		Flows: albatross.ServiceFlows(flows, 0),
	})
	if err != nil {
		log.Fatal(err)
	}

	resid := pod.StageResidency()
	stage := func(name string) *albatross.Histogram {
		for i, s := range albatross.StageNames() {
			if s == name {
				return resid[i]
			}
		}
		log.Fatalf("no stage %q", name)
		return nil
	}
	shown := []*albatross.Histogram{stage("nic-ingress"), stage("cpu"), stage("nic-egress")}

	// Drive the pod at three load points. The histograms are cumulative,
	// so each load point's mean is the difference of sums over the
	// difference of counts.
	for _, load := range []float64{0.2, 0.6, 0.9} {
		var sum [3]int64
		var count [3]uint64
		for i, h := range shown {
			sum[i], count[i] = h.Sum(), h.Count()
		}
		capacityMpps := 4 * 0.9 // rough per-core Mpps at this scale
		rate := load * capacityMpps * 1e6
		src := &albatross.Source{Flows: flows, Rate: albatross.ConstantRate(rate),
			Seed: 12, Sink: pod.Sink()}
		if err := src.Start(node.Engine); err != nil {
			log.Fatal(err)
		}
		node.RunFor(30 * albatross.Millisecond)
		src.Stop()
		node.RunFor(5 * albatross.Millisecond) // drain

		var mean [3]albatross.Duration
		for i, h := range shown {
			n := h.Count() - count[i]
			if n == 0 {
				log.Fatalf("load %.0f%%: no packet left a stage", load*100)
			}
			mean[i] = albatross.Duration((h.Sum() - sum[i]) / int64(n))
		}
		fmt.Printf("load %.0f%%: nic-in=%v cpu=%v nic-out=%v (%d packets)\n",
			load*100, mean[0], mean[1], mean[2], shown[2].Count()-count[2])
	}

	fmt.Println()
	fmt.Print(node.Report())
}
