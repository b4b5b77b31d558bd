package cluster

import (
	"errors"
	"runtime"
	"sync"
	"testing"

	"albatross/internal/core"
	"albatross/internal/errs"
	"albatross/internal/faults"
	"albatross/internal/pod"
	"albatross/internal/service"
	"albatross/internal/sim"
	"albatross/internal/workload"
	"albatross/internal/workload/trace"
)

// shardedCluster builds a cluster at the given width and shard count with
// one PLB pod per member, and returns it with its 2000-flow set.
func shardedCluster(t *testing.T, nodes, shards int, plan *faults.Plan) (*Cluster, []workload.Flow) {
	t.Helper()
	c, err := New(Config{Nodes: nodes, Seed: testSeed, Faults: plan, Shards: shards})
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
	return c, wf
}

// runSharded builds an 8-node cluster at the given shard count, drives it
// with a fixed-seed source under the given fault plan, and returns the
// outcome report plus the Prometheus export — the two documents the
// sharding tentpole promises are byte-identical at any shard count.
func runSharded(t *testing.T, shards int, plan *faults.Plan) (string, string) {
	t.Helper()
	c, wf := shardedCluster(t, 8, shards, plan)
	src := &workload.Source{Flows: wf, Rate: workload.ConstantRate(1e5), Seed: testSeed + 1, Sink: c.Sink()}
	if err := src.Start(c.Engine); err != nil {
		t.Fatal(err)
	}
	c.RunFor(200 * sim.Millisecond)
	src.Stop()
	c.RunFor(5 * sim.Millisecond)
	return c.Outcome(), c.Metrics().Prometheus()
}

// shardCountScenarios are the fault plans the byte-identity property must
// hold under: every node-granularity kind, pod-granularity kinds routed
// through the synced target, and a mixed schedule that interleaves them.
var shardCountScenarios = []struct {
	name string
	plan func() *faults.Plan
}{
	{"healthy", func() *faults.Plan { return nil }},
	{"node-crash", func() *faults.Plan {
		return (&faults.Plan{}).NodeCrash(30*sim.Millisecond, 3, 100*sim.Millisecond)
	}},
	{"node-drain", func() *faults.Plan {
		return (&faults.Plan{}).NodeDrain(30*sim.Millisecond, 5, 80*sim.Millisecond)
	}},
	{"uplink-withdraw", func() *faults.Plan {
		return &faults.Plan{Faults: []faults.Fault{{Kind: faults.KindUplinkWithdraw, At: 40 * sim.Millisecond, Duration: 60 * sim.Millisecond}}}
	}},
	{"mixed", func() *faults.Plan {
		p := (&faults.Plan{}).
			NodeCrash(30*sim.Millisecond, 1, 90*sim.Millisecond)
		// An uplink withdraw, then pod-granularity faults on specific
		// members: the builders do not take a node index, so set it directly.
		p.Faults = append(p.Faults,
			faults.Fault{Kind: faults.KindUplinkWithdraw, At: 50 * sim.Millisecond, Node: 6, Duration: 50 * sim.Millisecond},
			faults.Fault{Kind: faults.KindBGPFlap, At: 60 * sim.Millisecond, Node: 2,
				Duration: 40 * sim.Millisecond},
			faults.Fault{Kind: faults.KindCoreFail, At: 70 * sim.Millisecond, Node: 4,
				Core: 1, Duration: 30 * sim.Millisecond},
			faults.Fault{Kind: faults.KindPodCrash, At: 80 * sim.Millisecond, Node: 7,
				Duration: 50 * sim.Millisecond},
		)
		return p
	}},
}

// TestShardCountInvariance is the tentpole property test: for every fault
// scenario, shards ∈ {2, 4, 8} produce byte-identical outcome reports and
// metrics exports to one shard, and a repeat run at the same shard count is
// identical to itself.
func TestShardCountInvariance(t *testing.T) {
	for _, sc := range shardCountScenarios {
		t.Run(sc.name, func(t *testing.T) {
			baseOut, baseProm := runSharded(t, 1, sc.plan())
			for _, k := range []int{2, 4, 8} {
				out, prom := runSharded(t, k, sc.plan())
				if out != baseOut {
					t.Fatalf("shards=%d outcome differs from shards=1:\n%s", k,
						trace.Diff("shards=1", baseOut, "sharded", out).String())
				}
				if prom != baseProm {
					t.Fatalf("shards=%d metrics export differs from shards=1", k)
				}
			}
			// Repeat-identity: a second run at shards=4 reproduces the
			// same bytes (the k-loop above already ran shards=4 once).
			out2, prom2 := runSharded(t, 4, sc.plan())
			if out2 != baseOut || prom2 != baseProm {
				t.Fatal("repeat run at shards=4 not byte-identical")
			}
		})
	}
}

// TestShardedRecordReplay runs record/replay across shard counts: a trace
// recorded at one shard replays byte-identically at several, and recording
// itself does not perturb the run.
func TestShardedRecordReplay(t *testing.T) {
	build := func(shards int) (*Cluster, []workload.Flow) {
		c, err := New(Config{Nodes: 8, Seed: testSeed, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		wf := workload.GenerateFlows(1000, 50, testSeed)
		if err := c.AddPod(core.PodConfig{
			Spec:  pod.Spec{Name: "gw", Service: service.VPCVPC, DataCores: 4, CtrlCores: 1, Mode: pod.ModePLB},
			Flows: workload.ServiceFlows(wf, 0),
		}); err != nil {
			t.Fatal(err)
		}
		return c, wf
	}

	// Record on shards=1.
	rc, wf := build(1)
	rec := trace.NewRecorder(rc.Engine)
	src := &workload.Source{Flows: wf, Rate: workload.ConstantRate(1e5), Seed: testSeed + 1,
		Sink: rc.RecordingSink(rec)}
	if err := src.Start(rc.Engine); err != nil {
		t.Fatal(err)
	}
	rc.RunFor(100 * sim.Millisecond)
	src.Stop()
	rc.RunFor(5 * sim.Millisecond)
	recorded := rc.Outcome()

	for _, k := range []int{1, 4, 8} {
		pc, _ := build(k)
		rp, err := pc.ReplayTrace(rec.Trace())
		if err != nil {
			t.Fatal(err)
		}
		pc.RunFor(105 * sim.Millisecond)
		if !rp.Done() {
			t.Fatalf("shards=%d replay injected %d of %d events", k, rp.Injected, len(rec.Trace().Events))
		}
		if out := pc.Outcome(); out != recorded {
			t.Fatalf("shards=%d replay outcome differs from recording:\n%s", k,
				trace.Diff("recorded", recorded, "replayed", out).String())
		}
	}
}

// TestClusterInjectZeroAllocs: in steady state Inject + RunFor allocates
// nothing per packet at any worker count — the mailboxes recycle their
// backing arrays and the node path pools its contexts. What is left is per
// epoch (the barrier's goroutines at shards > 1), so it must not grow with the packets
// in the epoch.
func TestClusterInjectZeroAllocs(t *testing.T) {
	for _, shards := range []int{1, 2} {
		c, wf := shardedCluster(t, 4, shards, nil)
		next := 0
		inject := func(any) {
			c.Inject(wf[next%len(wf)], 256)
			next++
		}
		// One block = pkts arrivals 2µs apart on the control engine, then
		// 5ms of virtual time: the same epochs whatever pkts is.
		block := func(pkts int) func() {
			return func() {
				for i := 1; i <= pkts; i++ {
					c.Engine.AfterArg(sim.Duration(i)*2*sim.Microsecond, inject, nil)
				}
				c.RunFor(5 * sim.Millisecond)
			}
		}
		block(4000)() // warm: pools, mailbox and heap capacity, flow state
		small := testing.AllocsPerRun(10, block(200))
		large := testing.AllocsPerRun(10, block(2000))
		if perPkt := (large - small) / 1800; perPkt > 0.001 {
			t.Errorf("shards=%d: %.4f allocs per packet (%.0f per 200-packet block, %.0f per 2000)",
				shards, perPkt, small, large)
		}
		if shards == 1 && large != 0 {
			t.Errorf("shards=1: %.0f allocs per block, want 0 (no barrier goroutines on one shard)", large)
		}
	}
}

// TestShardAssignment pins the lane contract: every member, including one
// added by AddNode, runs on its own lane — lane i is member i's engine, and
// a lane added mid-run starts at the control clock — and Shards counts the
// workers, auto-sized and clamped to the node count. Worker w advances
// lanes w, w+k, … (sim.TestShardedWorkerLanes), so member i runs on worker
// i mod k.
func TestShardAssignment(t *testing.T) {
	c, _ := shardedCluster(t, 5, 3, nil)
	if c.cfg.Shards != 3 {
		t.Fatalf("workers = %d, want 3", c.cfg.Shards)
	}
	c.RunFor(3 * sim.Millisecond)
	if _, err := c.AddNode(); err != nil {
		t.Fatal(err)
	}
	seen := map[*sim.Engine]int{c.Engine: -1}
	for _, m := range c.Members() {
		eng := m.Node.Engine
		if eng != c.sharded.Lane(m.Index) {
			t.Fatalf("member %d does not run on lane %d", m.Index, m.Index)
		}
		if prev, dup := seen[eng]; dup {
			t.Fatalf("member %d shares an engine with %d", m.Index, prev)
		}
		seen[eng] = m.Index
	}
	if added := c.Members()[5].Node.Engine; added.Now() != c.Engine.Now() {
		t.Fatalf("added lane at %v, control at %v", added.Now(), c.Engine.Now())
	}
	// The worker count never exceeds the node count.
	c2, err := New(Config{Nodes: 2, Seed: testSeed, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	if c2.cfg.Shards != 2 {
		t.Fatalf("workers = %d, want the node count 2", c2.cfg.Shards)
	}
	// Auto sizing picks min(GOMAXPROCS, nodes).
	c3, err := New(Config{Nodes: 3, Seed: testSeed, Shards: 0})
	if err != nil {
		t.Fatal(err)
	}
	if want := min(runtime.GOMAXPROCS(0), 3); c3.cfg.Shards != want {
		t.Fatalf("auto workers = %d, want %d", c3.cfg.Shards, want)
	}
	if _, err := New(Config{Nodes: 3, Seed: testSeed, Shards: -1}); !errors.Is(err, errs.BadConfig) {
		t.Fatalf("negative shards accepted: %v", err)
	}
}

// TestShardedPendingConcurrent reads Cluster.Pending from a spectator
// goroutine while a sharded run advances — the satellite-1 contract that
// progress is observable cross-shard without racing (fails under -race if
// the atomic mirrors regress).
func TestShardedPendingConcurrent(t *testing.T) {
	c, err := New(Config{Nodes: 4, Seed: testSeed, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	wf := workload.GenerateFlows(500, 50, testSeed)
	if err := c.AddPod(core.PodConfig{
		Spec:  pod.Spec{Name: "gw", Service: service.VPCVPC, DataCores: 2, CtrlCores: 1, Mode: pod.ModePLB},
		Flows: workload.ServiceFlows(wf, 0),
	}); err != nil {
		t.Fatal(err)
	}
	src := &workload.Source{Flows: wf, Rate: workload.ConstantRate(2e5), Seed: testSeed + 1, Sink: c.Sink()}
	if err := src.Start(c.Engine); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if c.Pending() < 0 {
					t.Error("negative pending count")
					return
				}
			}
		}
	}()
	c.RunFor(100 * sim.Millisecond)
	src.Stop()
	c.RunFor(5 * sim.Millisecond)
	close(stop)
	wg.Wait()
	if c.Pending() == 0 {
		t.Fatal("pending = 0 with BFD probe grids armed")
	}
}

// runAddNodeMidRun drives a 4-node cluster on the given worker count through
// a node crash and a drain, growing it by three members mid-run: two from
// control events inside an epoch (their lanes start at the horizon the event
// synced to) and one between RunFor calls, each followed by a burst of
// same-instant injections. It returns the outcome report and the Prometheus
// export.
func runAddNodeMidRun(t *testing.T, workers int) (string, string) {
	t.Helper()
	plan := (&faults.Plan{}).
		NodeCrash(6*sim.Millisecond, 1, 30*sim.Millisecond).
		NodeDrain(14*sim.Millisecond, 2, 20*sim.Millisecond)
	c, wf := shardedCluster(t, 4, workers, plan)
	src := &workload.Source{Flows: wf, Rate: workload.ConstantRate(1e5), Seed: testSeed + 1, Sink: c.Sink()}
	if err := src.Start(c.Engine); err != nil {
		t.Fatal(err)
	}
	next := 0
	burst := func() {
		for k := 0; k < 256; k++ {
			c.Inject(wf[next%len(wf)], 256)
			next++
		}
	}
	addNode := func() {
		if _, err := c.AddNode(); err != nil {
			t.Error(err)
		}
		burst()
	}
	c.Engine.At(sim.Time(10*sim.Millisecond)+123, addNode)
	c.Engine.At(sim.Time(20*sim.Millisecond)+7, addNode)
	c.RunFor(25 * sim.Millisecond)
	addNode()
	c.RunFor(25 * sim.Millisecond)
	src.Stop()
	c.RunFor(5 * sim.Millisecond)
	if n := len(c.Members()); n != 7 {
		t.Fatalf("cluster has %d members, want 7", n)
	}
	for _, m := range c.Members()[4:] {
		if m.Rx == 0 {
			t.Fatalf("added member %d received no traffic", m.Index)
		}
	}
	return c.Outcome(), c.Metrics().Prometheus()
}

// TestAddNodeMidRunAcrossWorkers covers a lane created mid-run: members
// added by AddNode between bursts, under a node crash and a drain, leave
// the outcome and the metrics export byte-identical at any worker count.
func TestAddNodeMidRunAcrossWorkers(t *testing.T) {
	baseOut, baseProm := runAddNodeMidRun(t, 1)
	for _, k := range []int{2, 3, 4} {
		out, prom := runAddNodeMidRun(t, k)
		if out != baseOut {
			t.Fatalf("workers=%d outcome differs from workers=1:\n%s", k,
				trace.Diff("workers=1", baseOut, "workers", out).String())
		}
		if prom != baseProm {
			t.Fatalf("workers=%d metrics export differs from workers=1", k)
		}
	}
}

// TestLaneEventsPerPacket is an exact-count guard on the lane layout: 8
// members at burst 1 on one worker, fed 256-packet batches each drained for
// 100µs, execute at most 1.1 events per packet across the control engine
// and every lane. On its own lane a member's pipeline completions settle in
// the timer firing that reaches them; one engine shared by all members
// interleaved the others' events between them and fired once per
// completion (2.2 events per packet).
func TestLaneEventsPerPacket(t *testing.T) {
	c, err := New(Config{Nodes: 8, Seed: testSeed, Shards: 1, Node: core.NodeConfig{Burst: 1}})
	if err != nil {
		t.Fatal(err)
	}
	wf := workload.GenerateFlows(10000, 100, testSeed)
	if err := c.AddPod(core.PodConfig{
		Spec:  pod.Spec{Name: "gw", Service: service.VPCVPC, DataCores: 8, CtrlCores: 2},
		Flows: workload.ServiceFlows(wf, 0),
	}); err != nil {
		t.Fatal(err)
	}
	const batches, batch = 64, 256
	next := 0
	for b := 0; b < batches; b++ {
		for k := 0; k < batch; k++ {
			c.Inject(wf[next%len(wf)], 256)
			next++
		}
		c.RunFor(100 * sim.Microsecond)
	}
	events := c.Engine.Executed()
	for _, m := range c.Members() {
		events += m.Node.Engine.Executed()
	}
	if perPkt := float64(events) / (batches * batch); perPkt > 1.1 {
		t.Fatalf("%.3f events per packet (%d over %d packets), want <= 1.1", perPkt, events, batches*batch)
	}
}
