package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"time"

	"albatross"
)

// batchPkts is the closed-loop batch: inject this many packets, then let
// the simulation drain (the BenchmarkPacketPath lineage).
const batchPkts = 256

// pktBytes is the wire size of every injected packet (the paper's tests
// use 256 B).
const pktBytes = 256

// workloadDecl is one named workload: why it exists, and how to build it.
type workloadDecl struct {
	Name string
	Why  string
	// build constructs a ready-to-inject deployment from the seed alone.
	// Phases of the construction are recorded as spans under parent.
	build func(seed uint64, smoke bool, sp *spanLog, parent int) (instance, error)
}

// instance is one built deployment of a workload.
type instance interface {
	// exactBlocks is the number of measured blocks in the exact-count
	// window: counters and sim_digest are taken after exactly this many.
	exactBlocks() int
	// kinds is how many distinct block kinds the workload cycles through
	// (1 for the packet loops, one per drill for gameday).
	kinds() int
	// block runs measured block i (i = -1 is the warm block) and returns
	// the simulated packets it offered and the host time of its measured
	// region (input draws and fault arming are outside it). traced blocks
	// record inject/drain spans under parent.
	block(i int, sp *spanLog, parent int, traced bool) (pkts int, host time.Duration, err error)
	// settle stops the load and runs the simulation until nothing is in
	// flight, so conservation can be checked.
	settle()
	// tally reads every exact counter.
	tally() tally
	// report is the deployment's own outcome text, hashed into sim_digest.
	report() string
	// operations returns attempted and failed operations after settle.
	operations() (attempted, failed uint64)
}

// tally is every exact counter of a deployment at one instant. All fields
// are cumulative since build; windows are differences of two tallies.
type tally struct {
	Pkts   uint64 // packets the harness offered
	Events uint64 // simulation events executed, all engines

	CacheHits, CacheMisses uint64
	SvcPkts                uint64 // packets that reached Svc.ProcessHash
	TableLookups           uint64 // exact-match lookups (SvcPkts x tables)
	LPMLookups             uint64

	PLBDispatched, PLBBestEffort, PLBTimeouts, PLBDropFlag, PLBHOL uint64

	GOPDrops uint64
	Records  uint64 // histogram records (stage residency + latencies)

	Tx, Drops         uint64 // delivered; every modelled drop
	Sprayed, Remapped uint64
	BackendMoved      uint64
	Faults            uint64
	RIBSize           uint64
	HeapDepthMax      uint64
	SimP50NS          int64 // worst pod's end-to-end simulated latency
	SimP99NS          int64
	Balanced          bool // every pod's stage counters balance
}

// sub returns the window t - base for cumulative fields; gauges and
// quantiles (RIBSize, HeapDepthMax, SimP*) keep t's value.
func (t tally) sub(base tally) tally {
	d := t
	d.Pkts -= base.Pkts
	d.Events -= base.Events
	d.CacheHits -= base.CacheHits
	d.CacheMisses -= base.CacheMisses
	d.SvcPkts -= base.SvcPkts
	d.TableLookups -= base.TableLookups
	d.LPMLookups -= base.LPMLookups
	d.PLBDispatched -= base.PLBDispatched
	d.PLBBestEffort -= base.PLBBestEffort
	d.PLBTimeouts -= base.PLBTimeouts
	d.PLBDropFlag -= base.PLBDropFlag
	d.PLBHOL -= base.PLBHOL
	d.GOPDrops -= base.GOPDrops
	d.Records -= base.Records
	d.Tx -= base.Tx
	d.Drops -= base.Drops
	d.Sprayed -= base.Sprayed
	d.Remapped -= base.Remapped
	d.BackendMoved -= base.BackendMoved
	d.Faults -= base.Faults
	return d
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// exactMetrics turns a window tally into the per-layer metrics marked
// Exact in spec.go.
func (t tally) exactMetrics() map[string]float64 {
	return map[string]float64{
		"sim.events_per_pkt":        ratio(t.Events, t.Pkts),
		"sim.heap_depth_max":        float64(t.HeapDepthMax),
		"cachesim.accesses_per_pkt": ratio(t.CacheHits+t.CacheMisses, t.Pkts),
		"cachesim.hit_rate":         ratio(t.CacheHits, t.CacheHits+t.CacheMisses),
		"flowtable.lookups_per_pkt": ratio(t.TableLookups, t.Pkts),
		"flowtable.backend_moved":   float64(t.BackendMoved),
		"lpm.lookups_per_pkt":       ratio(t.LPMLookups, t.Pkts),
		"plb.timeout_share":         ratio(t.PLBTimeouts, t.PLBDispatched),
		"plb.best_effort_share":     ratio(t.PLBBestEffort, t.PLBDispatched),
		"plb.dropflag_share":        ratio(t.PLBDropFlag, t.PLBDispatched),
		"plb.hol_per_kpkt":          1000 * ratio(t.PLBHOL, t.Pkts),
		"gop.drop_share":            ratio(t.GOPDrops, t.Pkts),
		"stats.records_per_pkt":     ratio(t.Records, t.Pkts),
		"core.drop_share":           ratio(t.Drops, t.Pkts),
		"core.sim_p50_us":           float64(t.SimP50NS) / 1000,
		"core.sim_p99_us":           float64(t.SimP99NS) / 1000,
		"cluster.remap_share":       ratio(t.Remapped, t.Sprayed),
		"bgp.switch_rib_size":       float64(t.RIBSize),
		"faults.injected":           float64(t.Faults),
	}
}

// addNode accumulates one node's pods, caches and limiter into t.
func (t *tally) addNode(n *albatross.Node) {
	seen := map[int]bool{} // NUMA nodes whose cache model is counted
	for _, pr := range n.Pods() {
		if numa := pr.Pod.NUMANode; !seen[numa] {
			seen[numa] = true
			t.CacheHits += n.Cache(numa).Hits()
			t.CacheMisses += n.Cache(numa).Misses()
		}
		stages := pr.Stages()
		for i := range stages {
			if stages[i].Name == "dispatch" {
				in := stages[i].In
				t.SvcPkts += in
				t.TableLookups += in * uint64(pr.Svc.NumTables())
				t.LPMLookups += in * uint64(pr.Svc.LPMLookups())
			}
			if !stages[i].Balanced() {
				t.Balanced = false
			}
		}
		for _, h := range pr.StageResidency() {
			t.Records += h.Count()
		}
		t.Records += pr.Latency.Count() + pr.CPULatency.Count()
		if pr.PLB != nil {
			s := pr.PLB.Stats()
			t.PLBDispatched += s.Dispatched
			t.PLBBestEffort += s.EmittedBestEffort
			t.PLBTimeouts += s.TimeoutReleases
			t.PLBDropFlag += s.DropFlagReleases
			t.PLBHOL += s.HOLEvents
		}
		t.Tx += pr.Tx
		t.GOPDrops += pr.NICDrops
		t.Drops += pr.NICDrops + pr.QueueDrops + pr.PLBDrops + pr.ServiceDrop +
			pr.HeaderDrops + pr.RxLost + pr.FaultLost + pr.CrashDrops
		if q := pr.Latency.Quantile(0.50); q > t.SimP50NS {
			t.SimP50NS = q
		}
		if q := pr.Latency.Quantile(0.99); q > t.SimP99NS {
			t.SimP99NS = q
		}
	}
	t.Drops += n.Blackholed
	t.BackendMoved += n.BackendMoved
}

// unaccounted is the conservation residual of a settled deployment:
// packets offered that are neither delivered nor in a modelled drop
// counter. An unbalanced stage chain fails every packet.
func (t tally) unaccounted() uint64 {
	if !t.Balanced {
		return t.Pkts
	}
	got := t.Tx + t.Drops
	if got > t.Pkts {
		return got - t.Pkts
	}
	return t.Pkts - got
}

// ---------------------------------------------------------------------------
// Workloads 1, 2, 4, 5: a closed loop over one node or a cluster.

// loopParams sizes a closed-loop workload.
type loopParams struct {
	nodes   int // 1 = NewNode + AddPod + pod.Inject; >1 = NewCluster + Sink
	shards  int // cluster engine shards (0 = auto: min(GOMAXPROCS, nodes); 1 = one shared engine)
	cacheMB int // modelled LLC per NUMA node (0 = the model's 100 MB)
	burst   int
	service albatross.ServiceType
	flows   int
	tenants int
	// uniform draws flow indices uniformly (seeded, outside the timed
	// region) instead of sweeping the flow list cyclically.
	uniform bool
	// drain is the virtual time a cluster advances after each batch; a
	// single node runs its engine dry instead.
	drain albatross.Duration
	// crashNode is killed at measured block crashBlock for crashFor
	// (crashFor 0 = no crash).
	crashNode, crashBlock int
	crashFor              albatross.Duration
	blockPkts             int
	exact                 int
}

func (p loopParams) smoke() loopParams {
	p.blockPkts = 2048
	p.exact = 2
	if p.flows > 20000 {
		p.flows = 20000
	}
	if p.nodes > 8 {
		p.nodes = 8
		p.crashNode = 5
		p.crashBlock = 0
	}
	return p
}

// loop is a built closed-loop deployment.
type loop struct {
	p      loopParams
	seed   uint64
	node   *albatross.Node
	cl     *albatross.Cluster
	flows  []albatross.Flow
	idx    []uint32 // pre-drawn flow indices, len = one block (uniform only)
	rng    splitmix
	cursor int
	inject func(albatross.Flow, int)
	pkts   uint64
	faults uint64
	depth  uint64
}

// splitmix is the harness's own seeded generator for index draws, so the
// program under test sees only generated inputs.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func buildLoop(p loopParams, seed uint64, sp *spanLog, parent int) (*loop, error) {
	l := &loop{p: p, seed: seed, rng: splitmix(seed ^ 0xbe7c4)}

	g := sp.begin("workload.generate", parent)
	l.flows = albatross.GenerateFlows(p.flows, p.tenants, seed)
	svcFlows := albatross.ServiceFlows(l.flows, 0)
	if p.uniform {
		l.idx = make([]uint32, p.blockPkts)
	}
	sp.end(g)

	podCfg := albatross.PodConfig{
		Spec:  albatross.PodSpec{Name: "gw", Service: p.service, DataCores: 8, CtrlCores: 2},
		Flows: svcFlows,
	}
	var opts []albatross.Option
	opts = append(opts, albatross.WithSeed(seed), albatross.WithBurst(p.burst))
	if p.cacheMB > 0 {
		opts = append(opts, albatross.WithCache(albatross.CacheConfig{
			SizeBytes: p.cacheMB << 20, Ways: 16, LineBytes: 64}))
	}
	if p.nodes <= 1 {
		s := sp.begin("core.new_node", parent)
		node, err := albatross.New(opts...)
		sp.end(s)
		if err != nil {
			return nil, err
		}
		s = sp.begin("core.add_pod", parent)
		pod, err := node.AddPod(podCfg)
		sp.end(s)
		if err != nil {
			return nil, err
		}
		l.node = node
		l.inject = pod.Inject
		return l, nil
	}
	opts = append(opts, albatross.WithNodes(p.nodes), albatross.WithShards(p.shards))
	s := sp.begin("cluster.new", parent)
	cl, err := albatross.NewCluster(opts...)
	sp.end(s)
	if err != nil {
		return nil, err
	}
	s = sp.begin("cluster.add_pod", parent)
	err = cl.AddPod(podCfg)
	sp.end(s)
	if err != nil {
		return nil, err
	}
	l.cl = cl
	l.inject = cl.Sink()
	return l, nil
}

func (l *loop) exactBlocks() int { return l.p.exact }
func (l *loop) kinds() int       { return 1 }

func (l *loop) pending() int {
	if l.cl != nil {
		return l.cl.Pending()
	}
	return l.node.Engine.Pending()
}

func (l *loop) drain() {
	if l.cl != nil {
		l.cl.RunFor(l.p.drain)
		return
	}
	l.node.Engine.Run()
}

func (l *loop) block(i int, sp *spanLog, parent int, traced bool) (int, time.Duration, error) {
	if l.p.crashFor > 0 && i == l.p.crashBlock {
		if err := l.cl.InjectNodeFault(albatross.FaultNodeCrash, l.p.crashNode, l.p.crashFor); err != nil {
			return 0, 0, err
		}
		l.faults++
	}
	if l.idx != nil {
		// Draw this block's indices before the clock starts.
		n := uint64(len(l.flows))
		for k := range l.idx {
			l.idx[k] = uint32(l.rng.next() % n)
		}
	}
	start := time.Now()
	n := l.timedBlock(sp, parent, traced)
	return n, time.Since(start), nil
}

// timedBlock is the measured region of a block.
func (l *loop) timedBlock(sp *spanLog, parent int, traced bool) int {
	n := l.p.blockPkts
	flows := l.flows
	for done := 0; done < n; done += batchPkts {
		var t0 time.Time
		if traced {
			t0 = time.Now()
		}
		if l.idx != nil {
			for _, fi := range l.idx[done : done+batchPkts] {
				l.inject(flows[fi], pktBytes)
			}
		} else {
			c := l.cursor
			for k := 0; k < batchPkts; k++ {
				l.inject(flows[c], pktBytes)
				if c++; c == len(flows) {
					c = 0
				}
			}
			l.cursor = c
		}
		if d := uint64(l.pending()); d > l.depth {
			l.depth = d
		}
		if traced {
			// Three clock reads per batch: the two spans share the middle one.
			t1 := time.Now()
			l.drain()
			sp.add("inject", parent, t0, t1)
			sp.add("drain", parent, t1, time.Now())
		} else {
			l.drain()
		}
	}
	l.pkts += uint64(n)
	return n
}

// keys returns the flows of the next n injections without consuming them:
// the key stream the layer replay uses.
func (l *loop) keys(n int) []albatross.Flow {
	out := make([]albatross.Flow, n)
	rng := l.rng
	for k := range out {
		if l.p.uniform {
			out[k] = l.flows[rng.next()%uint64(len(l.flows))]
		} else {
			out[k] = l.flows[(l.cursor+k)%len(l.flows)]
		}
	}
	return out
}

func (l *loop) settle() {
	if l.cl != nil {
		l.cl.RunFor(5 * albatross.Millisecond)
		return
	}
	l.node.Engine.Run()
}

func (l *loop) nodes() []*albatross.Node {
	if l.cl == nil {
		return []*albatross.Node{l.node}
	}
	out := make([]*albatross.Node, 0, len(l.cl.Members()))
	for _, m := range l.cl.Members() {
		out = append(out, m.Node)
	}
	return out
}

func (l *loop) tally() tally {
	t := tally{Pkts: l.pkts, Faults: l.faults, HeapDepthMax: l.depth, Balanced: true}
	engines := map[*albatross.Engine]bool{}
	for _, n := range l.nodes() {
		t.addNode(n)
		engines[n.Engine] = true
	}
	if l.cl != nil {
		engines[l.cl.Engine] = true
		t.Sprayed, t.Remapped = l.cl.Sprayed, l.cl.Remapped
		t.Drops += l.cl.Drops
		if sw := l.cl.SwitchModel(); sw != nil {
			t.RIBSize = uint64(sw.RIB().Len())
		}
	}
	for e := range engines {
		t.Events += e.Executed()
	}
	return t
}

func (l *loop) report() string {
	if l.cl != nil {
		return l.cl.Outcome()
	}
	return l.node.Report()
}

func (l *loop) operations() (uint64, uint64) {
	t := l.tally()
	return t.Pkts, t.unaccounted()
}

// ---------------------------------------------------------------------------
// Workload 3: an open loop in virtual time with faults on every block.

type faultedParams struct {
	flows, tenants int
	rate           float64
	blockVirtual   albatross.Duration
	exact          int
}

// faulted is one node with the GOP limiter and the session backend, two
// VPC-Internet pods behind Node.Ingress, and a Zipf microburst source.
type faulted struct {
	p      faultedParams
	seed   uint64
	flows  []albatross.Flow
	node   *albatross.Node
	src    *albatross.Source
	faults uint64
	depth  uint64
	// rec, when non-nil, collects the flows the source emitted (the key
	// stream for the layer replay) up to its capacity.
	rec []albatross.Flow
}

func buildFaulted(p faultedParams, seed uint64, record bool, sp *spanLog, parent int) (*faulted, error) {
	f := &faulted{p: p, seed: seed}

	g := sp.begin("workload.generate", parent)
	f.flows = albatross.GenerateFlows(p.flows, p.tenants, seed)
	svcFlows := albatross.ServiceFlows(f.flows, 0.02)
	sp.end(g)

	s := sp.begin("core.new_node", parent)
	node, err := albatross.New(albatross.WithSeed(seed),
		albatross.WithLimiter(albatross.DefaultLimiterConfig()),
		albatross.WithFlowBackend("session"))
	sp.end(s)
	if err != nil {
		return nil, err
	}
	s = sp.begin("core.add_pod", parent)
	for _, name := range []string{"gw0", "gw1"} {
		if _, err = node.AddPod(albatross.PodConfig{
			Spec:  albatross.PodSpec{Name: name, Service: albatross.VPCInternet, DataCores: 8, CtrlCores: 2},
			Flows: svcFlows,
		}); err != nil {
			break
		}
	}
	sp.end(s)
	if err != nil {
		return nil, err
	}
	f.node = node

	sink := node.IngressSink()
	if record {
		f.rec = make([]albatross.Flow, 0, replayKeys)
		inner := sink
		sink = func(fl albatross.Flow, bytes int) {
			if len(f.rec) < cap(f.rec) {
				f.rec = append(f.rec, fl)
			}
			inner(fl, bytes)
		}
	}
	if f.src, err = f.newSource(sink); err != nil {
		return nil, err
	}
	if err := f.src.Start(node.Engine); err != nil {
		return nil, err
	}
	return f, nil
}

// newSource builds the workload's open-loop source: Zipf 1.1 over the flow
// set at the base rate, tripled for 100 us of every millisecond.
func (f *faulted) newSource(sink func(albatross.Flow, int)) (*albatross.Source, error) {
	rate := albatross.Microburst(albatross.ConstantRate(f.p.rate), 3,
		albatross.Millisecond, 100*albatross.Microsecond)
	return albatross.NewSource(
		albatross.WithFlows(f.flows),
		albatross.WithRate(rate),
		albatross.WithZipf(1.1),
		albatross.WithPacketBytes(pktBytes),
		albatross.WithSourceSeed(f.seed^0x5eed),
		albatross.WithSink(sink),
	)
}

func (f *faulted) exactBlocks() int { return f.p.exact }
func (f *faulted) kinds() int       { return 1 }

func (f *faulted) block(i int, sp *spanLog, parent int, traced bool) (int, time.Duration, error) {
	// Every block opens with a sick core, a held reorder queue and a lossy
	// RX path, rotating over pods, cores and queues.
	k := i + 1
	pods := f.node.Pods()
	pi := k % len(pods)
	pr := pods[pi]
	core := k % len(pr.Cores)
	if err := f.node.InjectCoreStall(pi, core, 4, 2*albatross.Millisecond); err != nil {
		return 0, 0, err
	}
	if err := f.node.InjectReorderStress(pi, k%pr.Pod.ReorderQueues, 500*albatross.Microsecond, true, 0); err != nil {
		return 0, 0, err
	}
	if err := f.node.InjectRxLoss(pi, (core+1)%len(pr.Cores), 0.02, albatross.Millisecond); err != nil {
		return 0, 0, err
	}
	f.faults += 3
	start := time.Now()
	n := f.timedBlock(sp, parent, traced)
	return n, time.Since(start), nil
}

func (f *faulted) timedBlock(sp *spanLog, parent int, traced bool) int {
	before := f.src.Generated
	// Advance in 1 ms slices so the heap depth is sampled mid-block.
	slices := int(f.p.blockVirtual / albatross.Millisecond)
	for s := 0; s < slices; s++ {
		var t0 time.Time
		if traced {
			t0 = time.Now()
		}
		f.node.RunFor(albatross.Millisecond)
		if traced {
			sp.add("drain", parent, t0, time.Now())
		}
		if d := uint64(f.node.Engine.Pending()); d > f.depth {
			f.depth = d
		}
	}
	return int(f.src.Generated - before)
}

func (f *faulted) keys(n int) []albatross.Flow {
	if n > len(f.rec) {
		n = len(f.rec)
	}
	return f.rec[:n]
}

func (f *faulted) settle() {
	f.src.Stop()
	f.node.Engine.Run()
}

func (f *faulted) tally() tally {
	t := tally{Pkts: f.src.Generated, Faults: f.faults, HeapDepthMax: f.depth, Balanced: true}
	t.addNode(f.node)
	t.Events = f.node.Engine.Executed()
	return t
}

func (f *faulted) report() string { return f.node.Report() }

func (f *faulted) operations() (uint64, uint64) {
	t := f.tally()
	return t.Pkts, t.unaccounted()
}

// ---------------------------------------------------------------------------
// Workload 6: the committed gameday drills.

// gameday runs each snapshotted drill as one block kind, in lexical order.
type gameday struct {
	names  []string
	drills []*albatross.Scenario
	// Per drill, from its most recent run.
	sprayed, remapped []uint64
	reports           []string
	// Accumulated over every run.
	attempted, failures uint64
	pkts                uint64
}

// benchDir locates the bench/ directory from the working directory: the
// harness is started from the repository root (go run ./bench) or from
// bench/ itself (go test).
func benchDir() (string, error) {
	for _, d := range []string{"bench", "."} {
		if _, err := os.Stat(filepath.Join(d, "drills")); err == nil {
			return d, nil
		}
	}
	return "", fmt.Errorf("bench: drills/ not found; run from the repository root")
}

func buildGameday(names []string, seed uint64, sp *spanLog, parent int) (*gameday, error) {
	dir, err := benchDir()
	if err != nil {
		return nil, err
	}
	g := &gameday{
		names:    names,
		sprayed:  make([]uint64, len(names)),
		remapped: make([]uint64, len(names)),
		reports:  make([]string, len(names)),
	}
	s := sp.begin("scenario.load", parent)
	defer sp.end(s)
	for _, name := range names {
		sc, err := albatross.LoadScenarioFile(filepath.Join(dir, "drills", name+".yaml"))
		if err != nil {
			return nil, err
		}
		if sc.Name != name {
			return nil, fmt.Errorf("bench: drills/%s.yaml is named %q", name, sc.Name)
		}
		// Seed 1 runs the drills exactly as committed; other seeds shift
		// every drill's own seed by the same amount.
		ds := sc.Seed + seed - 1
		g.drills = append(g.drills, sc.Apply(albatross.ScenarioOverrides{Seed: &ds}))
	}
	return g, nil
}

func (g *gameday) exactBlocks() int { return len(g.drills) }
func (g *gameday) kinds() int       { return len(g.drills) }

var trafficLine = regexp.MustCompile(`cluster/traffic \| sprayed=(\d+) remapped=(\d+)`)

func (g *gameday) block(i int, sp *spanLog, parent int, traced bool) (int, time.Duration, error) {
	if i < 0 {
		i = 0 // the warm block is the first drill
	}
	k := i % len(g.drills)
	// A drill builds and drops whole fleets. Collecting before the clock
	// starts gives every drill the same heap to begin from, so neither its
	// time nor the process's peak memory depends on where the previous
	// drill left the collector.
	runtime.GC()
	start := time.Now()
	res, err := g.drills[k].Run()
	host := time.Since(start)
	if traced {
		sp.add("scenario.run."+g.names[k], parent, start, start.Add(host))
	}
	if err != nil {
		return 0, 0, fmt.Errorf("drill %s: %w", g.names[k], err)
	}
	m := trafficLine.FindStringSubmatch(res.Outcome)
	if m == nil {
		return 0, 0, fmt.Errorf("drill %s: outcome has no cluster/traffic line", g.names[k])
	}
	g.sprayed[k], _ = strconv.ParseUint(m[1], 10, 64)
	g.remapped[k], _ = strconv.ParseUint(m[2], 10, 64)
	g.reports[k] = res.Report + res.Outcome
	g.attempted += uint64(res.Passed + res.Failed)
	g.failures += uint64(res.Failed)
	g.pkts += g.sprayed[k]
	return int(g.sprayed[k]), host, nil
}

func (g *gameday) settle() {}

func (g *gameday) tally() tally {
	t := tally{Pkts: g.pkts, Balanced: true}
	for k, d := range g.drills {
		t.Sprayed += g.sprayed[k]
		t.Remapped += g.remapped[k]
		if g.reports[k] != "" {
			t.Faults += uint64(len(d.Events))
		}
	}
	return t
}

func (g *gameday) report() string {
	h := fnv.New64a()
	for _, r := range g.reports {
		h.Write([]byte(r))
	}
	return fmt.Sprintf("gameday %#016x", h.Sum64())
}

// operations on gameday are assertions, not packets.
func (g *gameday) operations() (uint64, uint64) { return g.attempted, g.failures }

// ---------------------------------------------------------------------------

// workloads is the benchmark's workload list, in the order a set runs them.
var workloads = []workloadDecl{
	{
		Name: "node-perpkt",
		Why:  "per-packet event path on a small modelled working set: the event heap and cachesim hits do the work",
		build: func(seed uint64, smoke bool, sp *spanLog, parent int) (instance, error) {
			p := loopParams{nodes: 1, burst: 1, service: albatross.VPCVPC,
				flows: 10000, tenants: 100, blockPkts: 32768, exact: 48}
			if smoke {
				p = p.smoke()
			}
			return buildLoop(p, seed, sp, parent)
		},
	},
	{
		Name: "node-burst-miss",
		Why:  "burst 32 over 750k uniform flows: the paper's DRAM-bound regime, cachesim misses and table probes, idle event heap",
		build: func(seed uint64, smoke bool, sp *spanLog, parent int) (instance, error) {
			p := loopParams{nodes: 1, burst: 32, service: albatross.VPCInternet,
				flows: 750000, tenants: 1000, uniform: true, blockPkts: 32768, exact: 32}
			if smoke {
				p = p.smoke()
			}
			return buildLoop(p, seed, sp, parent)
		},
	},
	{
		Name: "node-faulted",
		Why:  "open loop with stalls, reorder holds and RX loss every block: PLB timeout and drop-flag paths, GOP meters, session steering",
		build: func(seed uint64, smoke bool, sp *spanLog, parent int) (instance, error) {
			p := faultedParams{flows: 200000, tenants: 2000, rate: 3e6,
				blockVirtual: 10 * albatross.Millisecond, exact: 24}
			if smoke {
				p = faultedParams{flows: 20000, tenants: 200, rate: 1e6,
					blockVirtual: 2 * albatross.Millisecond, exact: 2}
			}
			return buildFaulted(p, seed, sp.tracing, sp, parent)
		},
	},
	{
		Name: "cluster-8",
		Why:  "8 nodes behind ECMP on one engine: the consistent-hash ring, per-member BFD/BGP timers and the cluster layer's per-packet cost",
		build: func(seed uint64, smoke bool, sp *spanLog, parent int) (instance, error) {
			p := loopParams{nodes: 8, shards: 1, burst: 1, service: albatross.VPCVPC,
				flows: 10000, tenants: 100, drain: 100 * albatross.Microsecond,
				blockPkts: 32768, exact: 32}
			if smoke {
				p = p.smoke()
			}
			return buildLoop(p, seed, sp, parent)
		},
	},
	{
		Name: "fleet-256",
		Why:  "256 nodes with a 1 MB cache model and a mid-run node crash: set-up time and memory per node are the headline",
		build: func(seed uint64, smoke bool, sp *spanLog, parent int) (instance, error) {
			p := loopParams{nodes: 256, shards: 1, cacheMB: 1, burst: 1, service: albatross.VPCVPC,
				flows: 10000, tenants: 100, drain: 100 * albatross.Microsecond,
				crashNode: 17, crashBlock: 4, crashFor: 40 * albatross.Millisecond,
				blockPkts: 32768, exact: 16}
			if smoke {
				p = p.smoke()
			}
			return buildLoop(p, seed, sp, parent)
		},
	},
	{
		Name: "gameday",
		Why:  "the 19 committed drills: scenario, controlplane, the real bgp proxy stack, record/replay and the timeline; set-up bound",
		build: func(seed uint64, smoke bool, sp *spanLog, parent int) (instance, error) {
			names := drillNames
			if smoke {
				names = smokeDrills
			}
			return buildGameday(names, seed, sp, parent)
		},
	},
}

func findWorkload(name string) (workloadDecl, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDecl{}, false
}
