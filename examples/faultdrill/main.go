// Fault drill: a scripted gameday against one gateway node. A deterministic
// FaultPlan stalls and then kills a CPU core, crashes the primary pod, and
// flaps the BGP uplink — while the degradation machinery (PLB spray-mask
// eviction, sibling redirection, BFD detection and route withdrawal) keeps
// the damage bounded. Because faults fire on virtual time from seeded
// generators, every run of this drill prints exactly the same numbers.
package main

import (
	"fmt"
	"log"

	"albatross"
)

func main() {
	// The schedule: stall core 2 at t=20ms (sick, 100x service time),
	// kill it at t=25ms for 10ms, crash pod 0 at t=60ms (restarts after
	// 20ms), and take the uplink down for 400ms at t=120ms.
	plan := (&albatross.FaultPlan{}).
		CoreStall(20*albatross.Millisecond, 0, 2, 100, 5*albatross.Millisecond).
		CoreFail(25*albatross.Millisecond, 0, 2, 10*albatross.Millisecond).
		PodCrash(60*albatross.Millisecond, 0, 20*albatross.Millisecond).
		BGPFlap(120*albatross.Millisecond, 400*albatross.Millisecond)

	node, err := albatross.New(
		albatross.WithSeed(7),
		albatross.WithFaultPlan(plan),
	)
	if err != nil {
		log.Fatal(err)
	}
	// BFD-guarded uplink, its probe grid running from t=0. A lone node has
	// no survivor to take its traffic: from the flap until the route is
	// re-advertised (BFD detection, the outage, 1s of re-establishment)
	// every packet is blackholed.
	node.EnableUplink()

	flows := albatross.GenerateFlows(5000, 500, 7)
	sf := albatross.ServiceFlows(flows, 0)
	addPod := func(name string) *albatross.PodRuntime {
		p, err := node.AddPod(albatross.PodConfig{
			Spec: albatross.PodSpec{Name: name, Service: albatross.VPCVPC,
				DataCores: 4, CtrlCores: 1, Mode: albatross.ModePLB},
			Flows: sf,
		})
		if err != nil {
			log.Fatal(err)
		}
		return p
	}
	primary := addPod("gw0")
	sibling := addPod("gw1") // absorbs redirected tenants during the crash

	src := &albatross.Source{
		Flows: flows,
		Rate:  albatross.ConstantRate(1e6),
		Seed:  8,
		Sink:  primary.Sink(),
	}
	if err := src.Start(node.Engine); err != nil {
		log.Fatal(err)
	}
	node.RunFor(2 * albatross.Second)
	src.Stop()
	node.RunFor(5 * albatross.Millisecond)

	fmt.Println("fault log:")
	for _, e := range node.FaultLog() {
		fmt.Println(" ", e)
	}
	fmt.Printf("\nprimary: rx=%d tx=%d lost-to-faults=%d redirected=%d restarts=%d state=%s\n",
		primary.Rx, primary.Tx, primary.FaultLost, primary.Redirected, primary.Restarts, primary.State())
	fmt.Printf("sibling: rx=%d tx=%d\n", sibling.Rx, sibling.Tx)
	s := primary.PLB.Stats()
	fmt.Printf("plb:     timeouts=%d disorder=%.2e\n", s.TimeoutReleases, s.DisorderRate())
	up := node.Uplink().Stats()
	fmt.Printf("uplink:  detections=%d recoveries=%d detect-latency=%.0fms blackholed=%d downtime=%.0fms\n",
		up.Detections, up.Recoveries, float64(up.LastDetectNS)/1e6, node.Blackholed,
		float64(up.DownTime)/1e6)

	// Clean shutdown through the lifecycle API: drain both pods, then
	// close the node.
	if err := node.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter close: primary=%s sibling=%s\n", primary.State(), sibling.State())
}
