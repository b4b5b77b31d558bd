// Cluster upgrade: a rolling gray upgrade of a 3-node ECMP cluster under
// live traffic. One node at a time is drained (its route withdrawn
// administratively *before* its pods stop — make-before-break), upgraded,
// and rejoined, while the consistent-hash ECMP spray keeps the other two
// nodes serving every flow. The drill asserts the paper's gray-upgrade
// contract: zero packet loss end to end — no switch drops, no blackholed
// packets, no crash drops, every sprayed packet emitted.
//
// Because faults fire on virtual time from seeded generators, every run
// prints exactly the same numbers.
package main

import (
	"fmt"
	"log"

	"albatross"
)

func main() {
	// The rolling schedule: each node drains for 100ms, one after another,
	// with a 20ms settle gap between waves.
	const upgradeLen = 100 * albatross.Millisecond
	plan := (&albatross.FaultPlan{}).
		NodeDrain(20*albatross.Millisecond, 0, upgradeLen).
		NodeDrain(140*albatross.Millisecond, 1, upgradeLen).
		NodeDrain(260*albatross.Millisecond, 2, upgradeLen)

	cl, err := albatross.NewCluster(
		albatross.WithSeed(7),
		albatross.WithNodes(3),
		albatross.WithFaultPlan(plan),
	)
	if err != nil {
		log.Fatal(err)
	}

	flows := albatross.GenerateFlows(6000, 600, 7)
	if err := cl.AddPod(albatross.PodConfig{
		Spec: albatross.PodSpec{Name: "gw", Service: albatross.VPCVPC,
			DataCores: 4, CtrlCores: 1, Mode: albatross.ModePLB},
		Flows: albatross.ServiceFlows(flows, 0),
	}); err != nil {
		log.Fatal(err)
	}

	src := &albatross.Source{
		Flows: flows,
		Rate:  albatross.ConstantRate(6e5),
		Seed:  8,
		Sink:  cl.Sink(),
	}
	if err := src.Start(cl.Engine); err != nil {
		log.Fatal(err)
	}
	// Run past the last rejoin (260ms + 100ms), then drain in-flight work.
	cl.RunFor(400 * albatross.Millisecond)
	src.Stop()
	cl.RunFor(10 * albatross.Millisecond)

	fmt.Println("upgrade log:")
	for _, e := range cl.FaultLog() {
		fmt.Println(" ", e)
	}

	var tx, crashDrops, restarts uint64
	fmt.Println("\nper node:")
	for _, m := range cl.Members() {
		pr := m.Node.Pods()[0]
		tx += pr.Tx
		crashDrops += pr.CrashDrops
		restarts += pr.Restarts
		fmt.Printf("  node %d [%s] ecmp-rx=%d tx=%d drains=%d restarts=%d p99=%.1fµs\n",
			m.Index, m.State(), m.Rx, pr.Tx, m.Drains, pr.Restarts,
			float64(pr.Latency.Quantile(0.99))/1000)
	}

	fmt.Printf("\ncluster: sprayed=%d tx=%d remapped=%d switch-drops=%d blackholed=%d crash-drops=%d\n",
		cl.Sprayed, tx, cl.Remapped, cl.Drops, cl.Blackholed(), crashDrops)

	// The gameday gate: a gray upgrade must be lossless. Every wave
	// withdrew its node's route before touching pods, so nothing was
	// blackholed at a dead link, nothing hit the switch with no eligible
	// next hop, and no pod dropped queued packets.
	zeroLoss := tx == cl.Sprayed && cl.Drops == 0 && cl.Blackholed() == 0 && crashDrops == 0
	if !zeroLoss {
		log.Fatalf("ZERO-LOSS ASSERTION FAILED: sprayed=%d tx=%d switch-drops=%d blackholed=%d crash-drops=%d",
			cl.Sprayed, tx, cl.Drops, cl.Blackholed(), crashDrops)
	}
	if restarts != 3 {
		log.Fatalf("expected one gray restart per node, got %d", restarts)
	}
	fmt.Println("zero-loss rolling upgrade: OK (all 3 nodes upgraded, every sprayed packet emitted)")
}
