package core

import (
	"fmt"
	"testing"

	"albatross/internal/cachesim"
	"albatross/internal/cpu"
	"albatross/internal/faults"
	"albatross/internal/pod"
	"albatross/internal/sim"
	"albatross/internal/stats"
	"albatross/internal/workload"
)

// drainPod stops the source and advances time until no data-path contexts
// remain in flight.
func drainPod(t *testing.T, n *Node, pr *PodRuntime, src *workload.Source) {
	t.Helper()
	src.Stop()
	for i := 0; i < 100 && pr.live > 0; i++ {
		n.RunFor(sim.Millisecond)
	}
	if pr.live != 0 {
		t.Fatalf("pipeline did not drain: %d contexts live", pr.live)
	}
}

// assertStageConservation checks the drained-pipeline invariants: every
// stage balanced (In == Out + Drops), and adjacent stages consistent
// (stage i's Out feeds stage i+1's In, modulo the priority early exit at
// classify).
func assertStageConservation(t *testing.T, pr *PodRuntime) {
	t.Helper()
	st := pr.Stages()
	if bad, ok := stats.StageBalance(st); !ok {
		t.Fatalf("unbalanced stage after drain: %s", bad)
	}
	if st[0].In != pr.Rx {
		t.Fatalf("classify in %d != pod Rx %d", st[0].In, pr.Rx)
	}
	// classify's Out splits between the priority shortcut and the gop stage.
	if st[0].Out != st[1].In+pr.PriorityTx {
		t.Fatalf("classify out %d != gop in %d + priority tx %d", st[0].Out, st[1].In, pr.PriorityTx)
	}
	for i := 1; i+1 < len(st); i++ {
		if st[i].Out != st[i+1].In {
			t.Fatalf("stage %q out %d != stage %q in %d", st[i].Name, st[i].Out, st[i+1].Name, st[i+1].In)
		}
	}
	last := &st[len(st)-1]
	if last.Out != pr.Tx {
		t.Fatalf("egress out %d != pod Tx %d", last.Out, pr.Tx)
	}
}

func runStageTraffic(t *testing.T, n *Node, pr *PodRuntime, wf []workload.Flow, d sim.Duration) {
	t.Helper()
	src := &workload.Source{Flows: wf, Rate: workload.ConstantRate(2e6), Seed: 2, Sink: pr.Sink()}
	if err := src.Start(n.Engine); err != nil {
		t.Fatal(err)
	}
	n.RunFor(d)
	drainPod(t, n, pr, src)
}

func TestStageConservationPLB(t *testing.T) {
	n := smallNode(t, nil)
	wf, sf := wflows(2000, 1)
	pr := addPod(t, n, pod.ModePLB, 4, sf, nil)
	runStageTraffic(t, n, pr, wf, 50*sim.Millisecond)
	if pr.Tx == 0 {
		t.Fatal("no traffic flowed")
	}
	assertStageConservation(t, pr)
}

func TestStageConservationRSS(t *testing.T) {
	n := smallNode(t, nil)
	wf, sf := wflows(2000, 1)
	pr := addPod(t, n, pod.ModeRSS, 4, sf, nil)
	runStageTraffic(t, n, pr, wf, 50*sim.Millisecond)
	if pr.Tx == 0 {
		t.Fatal("no traffic flowed")
	}
	assertStageConservation(t, pr)
}

// TestStageConservationUnderFaults drives the core-fail drill shape (a stall
// then a core failure) plus service drops and asserts the counters still
// balance: packets lost inside async stages are charged to the stage that
// held them.
func TestStageConservationUnderFaults(t *testing.T) {
	for _, burst := range faultBursts {
		t.Run(fmt.Sprintf("burst=%d", burst), func(t *testing.T) { stageConservationUnderFaults(t, burst) })
	}
}

func stageConservationUnderFaults(t *testing.T, burst int) {
	plan := (&faults.Plan{}).
		CoreStall(10*sim.Millisecond, 0, 2, 100, 5*sim.Millisecond).
		CoreFail(11*sim.Millisecond, 0, 2, 10*sim.Millisecond)
	n, err := NewNode(NodeConfig{
		Seed:   1,
		Cache:  cachesim.Config{SizeBytes: 4 << 20, Ways: 16, LineBytes: 64},
		Faults: plan,
		Burst:  burst,
	})
	if err != nil {
		t.Fatal(err)
	}
	wf := workload.GenerateFlows(2000, 100, 1)
	sf := workload.ServiceFlows(wf, 0.02) // some ACL denials → cpu-stage drops
	pr := addPod(t, n, pod.ModePLB, 4, sf, nil)
	runStageTraffic(t, n, pr, wf, 40*sim.Millisecond)

	if pr.FaultLost == 0 {
		t.Fatal("core failure lost no packets; fault did not engage")
	}
	if pr.ServiceDrop == 0 {
		t.Fatal("no service drops; ACL denials did not engage")
	}
	assertStageConservation(t, pr)
	// The CPU stage carries both the service drops and the core-failure
	// losses of queued packets.
	st := pr.Stages()
	cpu := st[stageCPU]
	if cpu.Drops < pr.ServiceDrop {
		t.Fatalf("cpu stage drops %d < service drops %d", cpu.Drops, pr.ServiceDrop)
	}
}

// TestStageConservationAcrossFallback switches PLB→RSS mid-run with
// packets in flight: in-flight PLB packets must still drain through the
// reorder stage and the counters balance.
func TestStageConservationAcrossFallback(t *testing.T) {
	n := smallNode(t, nil)
	wf, sf := wflows(2000, 1)
	pr := addPod(t, n, pod.ModePLB, 4, sf, nil)
	src := &workload.Source{Flows: wf, Rate: workload.ConstantRate(2e6), Seed: 2, Sink: pr.Sink()}
	if err := src.Start(n.Engine); err != nil {
		t.Fatal(err)
	}
	n.RunFor(10 * sim.Millisecond)
	if err := pr.FallbackToRSS(); err != nil {
		t.Fatal(err)
	}
	n.RunFor(10 * sim.Millisecond)
	drainPod(t, n, pr, src)
	if pr.Mode() != pod.ModeRSS {
		t.Fatal("fallback did not switch mode")
	}
	assertStageConservation(t, pr)
	// The dispatch stage keeps its stable counter name across the switch.
	if name := pr.Stages()[stageDispatch].Name; name != "dispatch" {
		t.Fatalf("dispatch stage renamed to %q across fallback", name)
	}
}

// A pod with more completion sources (cores plus two egress queues) than
// the pod's busy mask has bits shares mask bits between sources and still
// delivers every packet with balanced stages.
func TestWidePodDrains(t *testing.T) {
	srv := pod.DefaultServerConfig()
	srv.Topology = cpu.Topology{Nodes: 1, CoresPerNode: 80}
	n, err := NewNode(NodeConfig{
		Seed:   1,
		Cache:  cachesim.Config{SizeBytes: 4 << 20, Ways: 16, LineBytes: 64},
		Server: srv,
	})
	if err != nil {
		t.Fatal(err)
	}
	wf, sf := wflows(2000, 1)
	pr := addPod(t, n, pod.ModePLB, 70, sf, nil)
	runStageTraffic(t, n, pr, wf, 5*sim.Millisecond)
	if pr.Tx == 0 || pr.Tx != pr.Rx {
		t.Fatalf("tx=%d rx=%d", pr.Tx, pr.Rx)
	}
	assertStageConservation(t, pr)
}
