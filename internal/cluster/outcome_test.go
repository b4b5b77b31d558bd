package cluster

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"testing"

	"albatross/internal/cachesim"
	"albatross/internal/core"
	"albatross/internal/faults"
	"albatross/internal/pod"
	"albatross/internal/service"
	"albatross/internal/sim"
	"albatross/internal/workload"
)

// outcomeCase is one deployment whose outcome fingerprint is checked.
type outcomeCase struct {
	name    string
	backend string
	plan    func() *faults.Plan
	// siblings scales these members to two pods (an upgrade sibling).
	siblings []int
}

var outcomeCases = []outcomeCase{
	{name: "node-crash", plan: func() *faults.Plan {
		return (&faults.Plan{}).NodeCrash(20*sim.Millisecond, 2, 30*sim.Millisecond)
	}},
	{name: "node-drain", plan: func() *faults.Plan {
		return (&faults.Plan{}).NodeDrain(20*sim.Millisecond, 4, 30*sim.Millisecond)
	}},
	{name: "siblings", siblings: []int{1, 3}},
	{name: "session-siblings-crash", backend: "session", siblings: []int{0}, plan: func() *faults.Plan {
		return (&faults.Plan{}).NodeCrash(25*sim.Millisecond, 1, 20*sim.Millisecond)
	}},
}

// runOutcomeCase drives a 6-member cluster through oc at the given worker
// count and returns it drained.
func runOutcomeCase(t *testing.T, oc outcomeCase, workers int) *Cluster {
	t.Helper()
	var plan *faults.Plan
	if oc.plan != nil {
		plan = oc.plan()
	}
	c, err := New(Config{Nodes: 6, Seed: testSeed, Shards: workers, Faults: plan,
		Node: core.NodeConfig{FlowBackend: oc.backend}})
	if err != nil {
		t.Fatal(err)
	}
	wf := workload.GenerateFlows(2000, 100, testSeed)
	if err := c.AddPod(core.PodConfig{
		Spec:  pod.Spec{Name: "gw", Service: service.VPCVPC, DataCores: 4, CtrlCores: 1, Mode: pod.ModePLB},
		Flows: workload.ServiceFlows(wf, 0),
	}); err != nil {
		t.Fatal(err)
	}
	for _, m := range oc.siblings {
		if err := c.ScalePods(m, 2); err != nil {
			t.Fatal(err)
		}
	}
	src := &workload.Source{Flows: wf, Rate: workload.ConstantRate(2e5), Seed: testSeed + 1, Sink: c.Sink()}
	if err := src.Start(c.Engine); err != nil {
		t.Fatal(err)
	}
	c.RunFor(60 * sim.Millisecond)
	src.Stop()
	c.RunFor(5 * sim.Millisecond)
	return c
}

// exportLine is the metrics fingerprint line computed the way Outcome
// computed it before the export was streamed: the whole Prometheus text of
// a snapshot, then its FNV-64a and length.
func exportLine(c *Cluster) string {
	prom := c.Metrics().Prometheus()
	sum := fnv.New64a()
	sum.Write([]byte(prom))
	return fmt.Sprintf("metrics/fnv64a | %#016x bytes=%d\n", sum.Sum64(), len(prom))
}

// TestOutcomeStreamsTheExportChecksum holds Outcome's streamed metrics
// fingerprint to the checksum of the whole snapshot export, over node
// crashes, drains, upgrade siblings and the session backend, at one and
// three workers.
func TestOutcomeStreamsTheExportChecksum(t *testing.T) {
	for _, oc := range outcomeCases {
		t.Run(oc.name, func(t *testing.T) {
			var first string
			for _, workers := range []int{1, 3} {
				c := runOutcomeCase(t, oc, workers)
				out := c.Outcome()
				if want := exportLine(c); !strings.Contains(out, want) {
					t.Fatalf("workers=%d: outcome lacks the export's fingerprint %q:\n%s", workers, want, out)
				}
				if workers == 1 {
					first = out
				} else if out != first {
					t.Fatalf("workers=%d outcome differs from workers=1", workers)
				}
			}
		})
	}
}

// TestOutcomeAllocatesLittlePerMember bounds the bytes one Outcome call
// allocates on a 64-member cluster. It builds a registry over every
// member's series and streams the export into a hash, about 27.6 KB per
// member (bound: that plus 10 %); the export text is never held, and each
// pod's label sets are built in one reused buffer that the registry copies
// from. A fresh label slice per series made it about 41 KB; building the
// text, its snapshot and a byte copy of it for the hash about 125 KB.
func TestOutcomeAllocatesLittlePerMember(t *testing.T) {
	const nodes, perMemberBound = 64, 30_400
	c, err := New(Config{Nodes: nodes, Seed: testSeed, Shards: 1,
		Node: core.NodeConfig{Cache: cachesim.Config{SizeBytes: 1 << 20, Ways: 16, LineBytes: 64}}})
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.GenerateFlows(10_000, 100, testSeed)
	if err := c.AddPod(core.PodConfig{
		Spec:  pod.Spec{Name: "gw", Service: service.VPCVPC, DataCores: 4, CtrlCores: 1, Mode: pod.ModePLB},
		Flows: workload.ServiceFlows(gen, 0),
	}); err != nil {
		t.Fatal(err)
	}
	src := &workload.Source{Flows: gen, Rate: workload.ConstantRate(2e6), Seed: testSeed + 1, Sink: c.Sink()}
	if err := src.Start(c.Engine); err != nil {
		t.Fatal(err)
	}
	c.RunFor(5 * sim.Millisecond)
	src.Stop()
	c.RunFor(5 * sim.Millisecond)

	c.Outcome() // first call: lazily built state does not count
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out := c.Outcome()
	runtime.ReadMemStats(&after)
	perMember := (after.TotalAlloc - before.TotalAlloc) / nodes
	t.Logf("Outcome on %d members: %d bytes allocated per member (report %d bytes)", nodes, perMember, len(out))
	if perMember > perMemberBound {
		t.Fatalf("Outcome allocated %d bytes per member, bound %d: is the export built as text again?",
			perMember, perMemberBound)
	}
}

// TestTotalsSumEveryPodCounter gives every counter the totals read a
// distinct power of two on each member's pod: each sum, Drops, the
// fleet-wide stage balance and the worst ingress latency must see them all.
func TestTotalsSumEveryPodCounter(t *testing.T) {
	c, _ := testCluster(t, 2, nil)
	for mi, m := range c.Members() {
		pr := m.Node.Pods()[0]
		for i, p := range []*uint64{&pr.Rx, &pr.Tx, &pr.Redirected, &pr.NICDrops, &pr.QueueDrops,
			&pr.PLBDrops, &pr.ServiceDrop, &pr.HeaderDrops, &pr.RxLost, &pr.FaultLost, &pr.CrashDrops} {
			*p = 1 << (2*i + mi)
		}
		pr.Latency.Record(int64(1000 + 4000*mi))
	}
	tot := c.Totals()
	var drops uint64
	for i, got := range []uint64{tot.Rx, tot.Tx, tot.Redirected, tot.NICDrops, tot.QueueDrops,
		tot.PLBDrops, tot.ServiceDrops, tot.HeaderDrops, tot.RxLost, tot.FaultLost, tot.CrashDrops} {
		if want := uint64(3) << (2 * i); got != want {
			t.Fatalf("total %d = %#x, want %#x", i, got, want)
		}
		if i >= 3 {
			drops += got
		}
	}
	if tot.Drops() != drops {
		t.Fatalf("Drops() = %#x, want %#x", tot.Drops(), drops)
	}
	if !tot.Balanced() {
		t.Fatal("an idle fleet's stages do not balance")
	}
	tot.stages[len(tot.stages)-1].In++
	if tot.Balanced() {
		t.Fatal("a stage holding a packet reads balanced")
	}
	if got := c.WorstIngressLatency(0.5); got < 4000 {
		t.Fatalf("worst ingress p50 = %d, want member 1's ~5000", got)
	}
}
