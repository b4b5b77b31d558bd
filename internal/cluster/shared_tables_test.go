package cluster

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"weak"

	"albatross/internal/cachesim"
	"albatross/internal/core"
	"albatross/internal/pod"
	"albatross/internal/service"
	"albatross/internal/sim"
	"albatross/internal/workload"
)

func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// sharesTables fails unless every pod of every member holds the tables of
// the template it was deployed from, by name: "gw" and its ScalePods copies
// "gw-sN" come from c.pods[0], "gwb" from c.pods[1].
func sharesTables(t *testing.T, c *Cluster) {
	t.Helper()
	for _, m := range c.Members() {
		for _, pr := range m.Node.Pods() {
			want := c.pods[0].tables
			if pr.Pod.Spec.Name == "gwb" {
				want = c.pods[1].tables
			}
			if pr.Svc.Tables() != want {
				t.Fatalf("node %d pod %q holds its own tables", m.Index, pr.Pod.Spec.Name)
			}
		}
	}
}

// TestClusterSharesPodTables pins what Cluster.AddPod costs per member. With
// one set of tables per template, a member's share of a 10 000-flow pod is
// its runtime — cores, PLB, histograms, a 1 MB cache model — about 0.03 MB of
// heap, and 0.06 MB after a block of traffic (histogram rows are allocated
// as latencies first land in them, cache-model blocks as lines do, PLB
// rings and journey slots as packets fill them). It was 0.09 MB after
// traffic while a histogram's first row past row 0 reserved room for 8, 0.20
// / 0.26 MB while every order queue held its 4 096-entry FIFO and BUF from
// New, 0.33 MB while the cache model held its 128 KB dense tag array from
// New, and 0.85 MB while every histogram held all 64 magnitude rows and
// every BUF slot a copy of its packet's meta. A private copy of the tables
// (a 16 384-slot index, the /24 trie) adds about 1 MB, and every modelled
// table having its own made it 3.9 MB.
func TestClusterSharesPodTables(t *testing.T) {
	const nodes, perMemberBound = 64, 80 << 10 // 0.078 MB
	c, err := New(Config{Nodes: nodes, Seed: testSeed, Shards: 1,
		Node: core.NodeConfig{Cache: cachesim.Config{SizeBytes: 1 << 20, Ways: 16, LineBytes: 64}}})
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.GenerateFlows(10_000, 100, testSeed)
	flows := workload.ServiceFlows(gen, 0)
	before := heapAfterGC()
	if err := c.AddPod(core.PodConfig{
		Spec:  pod.Spec{Name: "gw", Service: service.VPCVPC, DataCores: 4, CtrlCores: 1, Mode: pod.ModePLB},
		Flows: flows,
	}); err != nil {
		t.Fatal(err)
	}
	perMember := (heapAfterGC() - before) / nodes
	t.Logf("AddPod(10 000 flows) on %d members: %.2f MB of heap per member", nodes, float64(perMember)/(1<<20))
	if perMember > perMemberBound {
		t.Fatalf("AddPod grew the heap by %d bytes per member, bound %d: are the tables still shared?",
			perMember, perMemberBound)
	}

	// One block of traffic: 10 ms at 2 Mpps spread over the members.
	src := &workload.Source{Flows: gen, Rate: workload.ConstantRate(2e6), Seed: testSeed + 1, Sink: c.Sink()}
	if err := src.Start(c.Engine); err != nil {
		t.Fatal(err)
	}
	c.RunFor(10 * sim.Millisecond)
	src.Stop()
	c.RunFor(5 * sim.Millisecond)
	perMember = (heapAfterGC() - before) / nodes
	t.Logf("after 10 ms of traffic: %.2f MB of heap per member", float64(perMember)/(1<<20))
	if perMember > perMemberBound {
		t.Fatalf("the pod grew the heap by %d bytes per member after traffic, bound %d", perMember, perMemberBound)
	}

	// Members and pods added later adopt the recorded tables too.
	if _, err := c.AddNode(); err != nil {
		t.Fatal(err)
	}
	if err := c.ScalePods(3, 2); err != nil {
		t.Fatal(err)
	}
	if got := len(c.Members()[3].Node.Pods()); got != 2 {
		t.Fatalf("node 3 has %d pods after ScalePods(3, 2)", got)
	}
	sharesTables(t, c)
	runtime.KeepAlive(flows)
}

// divergedCluster builds a 4-member cluster on the session backend in which
// member 1 deploys an extra copy of pod "gw" before pod "gwb" arrives, so its
// address space has advanced three tables further than its siblings' and its
// "gwb" tables sit at different modelled addresses. With shared set, the pods
// go through Cluster.AddPod and ScalePods; without, every pod is added
// through its own node and builds private tables.
func divergedCluster(t *testing.T, shards int, shared bool) *Cluster {
	t.Helper()
	c, err := New(Config{Nodes: 4, Seed: testSeed, Shards: shards,
		Node: core.NodeConfig{FlowBackend: "session",
			Cache: cachesim.Config{SizeBytes: 1 << 20, Ways: 16, LineBytes: 64}}})
	if err != nil {
		t.Fatal(err)
	}
	wf := workload.GenerateFlows(3000, 50, testSeed)
	gw := core.PodConfig{
		Spec:  pod.Spec{Name: "gw", Service: service.VPCVPC, DataCores: 2, CtrlCores: 1, Mode: pod.ModePLB},
		Flows: workload.ServiceFlows(wf, 0),
	}
	gwb := core.PodConfig{
		Spec:  pod.Spec{Name: "gwb", Service: service.VPCInternet, DataCores: 2, CtrlCores: 1, Mode: pod.ModePLB},
		Flows: workload.ServiceFlows(wf, 0.05),
	}
	if shared {
		for _, step := range []func() error{
			func() error { return c.AddPod(gw) },
			func() error { return c.ScalePods(1, 2) },
			func() error { return c.AddPod(gwb) },
		} {
			if err := step(); err != nil {
				t.Fatal(err)
			}
		}
		sharesTables(t, c)
	} else {
		add := func(m *Member, cfg core.PodConfig) {
			if _, err := m.Node.AddPod(cfg); err != nil {
				t.Fatal(err)
			}
		}
		for _, m := range c.Members() {
			add(m, gw)
		}
		scaled := gw
		scaled.Spec.Name = fmt.Sprintf("%s-s%d", gw.Spec.Name, 1) // as ScalePods names it
		add(c.Members()[1], scaled)
		for _, m := range c.Members() {
			add(m, gwb)
		}
	}
	src := &workload.Source{Flows: wf, Rate: workload.ConstantRate(2e5), Seed: testSeed + 1, Sink: c.Sink()}
	if err := src.Start(c.Engine); err != nil {
		t.Fatal(err)
	}
	c.RunFor(100 * sim.Millisecond)
	src.Stop()
	c.RunFor(5 * sim.Millisecond)
	return c
}

// TestSharedTablesWithDivergedAddrSpaces is why the table bases stay with the
// service and out of the shared tables: members of one cluster do not
// necessarily place a pod's tables at the same addresses, and a member with
// its own deployment history must still report exactly what it would with
// private tables.
func TestSharedTablesWithDivergedAddrSpaces(t *testing.T) {
	shared, private := divergedCluster(t, 1, true), divergedCluster(t, 1, false)
	for i, m := range shared.Members() {
		if got, want := m.Node.Report(), private.Members()[i].Node.Report(); got != want {
			t.Fatalf("node %d reports differently over shared tables:\n%s\nprivate tables:\n%s", i, got, want)
		}
	}
	if got, want := shared.Outcome(), private.Outcome(); got != want {
		t.Fatal("outcome differs between shared and private tables")
	}
	// The premise: pod "gwb", the one placed differently, did real work.
	for _, m := range shared.Members() {
		pods := m.Node.Pods()
		if gwb := pods[len(pods)-1]; gwb.Pod.Spec.Name != "gwb" || gwb.Tx == 0 {
			t.Fatalf("node %d: pod %q forwarded %d packets", m.Index, gwb.Pod.Spec.Name, gwb.Tx)
		}
	}
}

// TestShardsReadSharedTablesConcurrently runs the diverged cluster on four
// worker goroutines over one set of tables; under -race this is the check
// that nothing on the packet path writes to them. The outcome must match one
// worker's.
func TestShardsReadSharedTablesConcurrently(t *testing.T) {
	if got, want := divergedCluster(t, 4, true).Outcome(), divergedCluster(t, 1, true).Outcome(); got != want {
		t.Fatal("outcome over shared tables differs between 4 shards and 1")
	}
}

// TestRingRebuildsOncePerBatch: membership changes only mark the ring, the
// next lookup sorts it once, and whatever the history the ring equals a fresh
// one with the same counts.
func TestRingRebuildsOncePerBatch(t *testing.T) {
	all := func(int) bool { return true }
	r := &ring{}
	for m := 0; m < 100; m++ {
		r.add(m)
	}
	if !r.dirty || len(r.points) != 0 {
		t.Fatalf("100 adds built %d points before the first lookup (dirty=%v)", len(r.points), r.dirty)
	}
	r.lookup(0, all)
	if r.dirty || len(r.points) != 100*64 {
		t.Fatalf("the first lookup left %d points (dirty=%v), want %d", len(r.points), r.dirty, 100*64)
	}
	if r.setCount(5, 64); r.dirty {
		t.Fatal("a setCount to the current count marked the ring for a rebuild")
	}

	rnd := rand.New(rand.NewSource(3))
	for round := 0; round < 50; round++ {
		for k := rnd.Intn(4); k >= 0; k-- {
			switch m := rnd.Intn(110); rnd.Intn(3) {
			case 0:
				r.add(m)
			case 1:
				r.remove(m)
			default:
				r.setCount(m, r.weightCount(rnd.Float64()*1.5))
			}
		}
		fresh := &ring{}
		for m, count := range r.counts {
			fresh.setCount(m, count)
		}
		for i := 0; i < 200; i++ {
			h := rnd.Uint64()
			home, owner := r.lookup(h, all)
			fhome, fowner := fresh.lookup(h, all)
			if home != fhome || owner != fowner {
				t.Fatalf("round %d: lookup(%#x) = %d/%d, fresh ring %d/%d", round, h, home, owner, fhome, fowner)
			}
		}
		if len(r.points) != len(fresh.points) {
			t.Fatalf("round %d: %d points, fresh ring %d", round, len(r.points), len(fresh.points))
		}
		for i := range r.points {
			if r.points[i] != fresh.points[i] {
				t.Fatalf("round %d: point %d is %+v, fresh ring %+v", round, i, r.points[i], fresh.points[i])
			}
		}
	}
}

// TestAddPodKeepsNoFlowList: Cluster.AddPod builds the template's tables
// once and keeps no reference to the caller's flow slice, neither in the
// template members added later deploy from nor in any member's pod.
func TestAddPodKeepsNoFlowList(t *testing.T) {
	c, err := New(Config{Nodes: 3, Seed: testSeed, Shards: 1,
		Node: core.NodeConfig{Cache: cachesim.Config{SizeBytes: 1 << 20, Ways: 16, LineBytes: 64}}})
	if err != nil {
		t.Fatal(err)
	}
	flows := func() weak.Pointer[service.Flow] {
		sf := workload.ServiceFlows(workload.GenerateFlows(1000, 100, testSeed), 0)
		if err := c.AddPod(core.PodConfig{
			Spec:  pod.Spec{Name: "gw", Service: service.VPCVPC, DataCores: 2, CtrlCores: 1, Mode: pod.ModePLB},
			Flows: sf,
		}); err != nil {
			t.Fatal(err)
		}
		return weak.Make(&sf[0])
	}()
	if _, err := c.AddNode(); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	if flows.Value() != nil {
		t.Fatal("the cluster still holds the flow slice AddPod was given")
	}
	sharesTables(t, c)
	runtime.KeepAlive(c)
}
