// Package core assembles the full Albatross node: the FPGA NIC pipeline
// (classification, overload protection, PLB dispatch/reorder, per-module
// latencies), GW pods placed on the dual-NUMA server, per-pod gateway
// services with cache-driven costs, and CPU cores — all driven by the
// virtual-time engine.
//
// The packet path mirrors Fig. 1: ingress NIC pipeline (pkt_dir
// classification + tenant overload rate limiting) → PLB spray or RSS hash
// → CPU core RX queue → gateway service processing → TX back through
// plb_reorder → egress NIC pipeline.
package core

import (
	"fmt"
	"math"

	"albatross/internal/bgp"
	"albatross/internal/cachesim"
	"albatross/internal/cpu"
	"albatross/internal/flowtable"
	"albatross/internal/gop"
	"albatross/internal/nicsim"
	"albatross/internal/packet"
	"albatross/internal/plb"
	"albatross/internal/pod"
	"albatross/internal/rss"
	"albatross/internal/service"
	"albatross/internal/sim"
	"albatross/internal/stats"
	"albatross/internal/workload"
)

// NodeConfig parameterizes an Albatross server.
type NodeConfig struct {
	Seed uint64
	// Engine, when non-nil, drives the node on a shared external engine —
	// the multi-node cluster case, where N nodes advance on one virtual
	// clock. Nil creates a private engine.
	Engine *sim.Engine
	// Server describes the hardware (zero value: production dual-NUMA).
	Server pod.ServerConfig
	// Cache is the per-NUMA L3 geometry (zero value: DefaultL3).
	Cache cachesim.Config
	// Mem prices cache hits/misses (zero value: DDR5-4800).
	Mem cachesim.MemLatency
	// Limiter enables gateway overload protection when non-nil.
	Limiter *gop.Config
	// FlowBackend selects the node-level flow-table backend steering
	// Node.Ingress traffic across pods: "session", the per-flow session
	// table of internal/flowtable. Empty leaves Ingress on the legacy
	// first-pod path.
	FlowBackend string
	// Burst is the dispatch batch size (see burst.go): up to Burst
	// same-instant injections share one NIC arrival event. It changes how
	// many events a run executes, never what the run reports; <= 1 is a
	// burst of one.
	Burst int
}

// Node is one Albatross server.
type Node struct {
	Engine  *sim.Engine
	Server  *pod.Server
	Limiter *gop.Limiter

	cfg NodeConfig
	// caches holds one L3 model per NUMA node, nil until Cache first asks
	// for it: a model is megabytes of host memory and pods rarely use more
	// than one NUMA node.
	caches []*cachesim.Cache
	pods   []*PodRuntime
	// addrs is the node-private synthetic address space: table addresses
	// depend only on deployment order within this node, never on what else
	// the process created, so identical configs replay identically.
	addrs *flowtable.AddrSpace

	// uplink models the node's BGP session to the ToR switch (the BFD
	// timing model); nil until EnableUplink or the first BGP fault.
	uplink *bgp.SimSession

	// Blackholed counts packets lost at the switch while the uplink was
	// down or its route withdrawn.
	Blackholed uint64

	// backend steers Node.Ingress traffic across active pods (see
	// backend.go); nil without NodeConfig.FlowBackend. BackendMoved counts
	// flows remapped by pool updates (pod lifecycle changes).
	backend      *flowtable.Backend
	BackendMoved uint64
}

// NewNode creates a node.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.Server.Topology.Nodes == 0 {
		cfg.Server = pod.DefaultServerConfig()
	}
	if cfg.Cache.SizeBytes == 0 {
		cfg.Cache = cachesim.DefaultL3()
	}
	if cfg.Mem == (cachesim.MemLatency{}) {
		cfg.Mem = cachesim.DefaultLatency()
	}
	server, err := pod.NewServer(cfg.Server)
	if err != nil {
		return nil, err
	}
	engine := cfg.Engine
	if engine == nil {
		engine = sim.NewEngine()
	}
	n := &Node{
		Engine: engine,
		Server: server,
		cfg:    cfg,
		addrs:  flowtable.NewAddrSpace(),
		caches: make([]*cachesim.Cache, cfg.Server.Topology.Nodes),
	}
	if cfg.Limiter != nil {
		n.Limiter, err = gop.NewLimiter(*cfg.Limiter)
		if err != nil {
			return nil, err
		}
	}
	if cfg.FlowBackend != "" {
		n.backend, err = flowtable.NewBackend(cfg.FlowBackend, nil, flowtable.BackendConfig{Space: n.addrs})
		if err != nil {
			return nil, err
		}
	}
	return n, nil
}

// Cache returns NUMA node i's L3 model, building it on first use (the first
// pod placed on the NUMA node, usually).
func (n *Node) Cache(i int) *cachesim.Cache {
	if n.caches[i] == nil {
		n.caches[i] = cachesim.New(n.cfg.Cache)
	}
	return n.caches[i]
}

// Pods returns the deployed pod runtimes.
func (n *Node) Pods() []*PodRuntime { return n.pods }

// RunFor advances virtual time.
func (n *Node) RunFor(d sim.Duration) { n.Engine.RunFor(d) }

// PodConfig describes a gateway pod deployment.
type PodConfig struct {
	Spec pod.Spec
	// Flows the pod's tables must know (its tenant state). AddPod reads
	// them into the tables and keeps no reference to the slice.
	Flows []service.Flow
	// QueueDepth is the per-core RX queue (default 1024 packets).
	QueueDepth int
	// DropFlagDisabled turns off the active drop flag (Fig. 12 ablation):
	// CPU-side drops become silent and HOL-block the reorder FIFO.
	DropFlagDisabled bool
	// CrossNUMA applies the cross-NUMA penalties to the pod's service
	// (Fig. 16 ablation; placement itself stays intra-node).
	CrossNUMA bool
	// JitterSigma is the lognormal sigma applied to service times, modeling
	// the "complex software stack" latency jitter (default 0.25).
	JitterSigma float64
	// SlowPathProb injects rare slow-path excursions of SlowPathCost
	// (paper §4.1 item 3: corner-case code branches). Default 0.
	SlowPathProb float64
	SlowPathCost sim.Duration
	// MemoryMult scales memory latency (memory-frequency ablation).
	MemoryMult float64
	// HeaderSplit enables header-payload-split delivery (appendix §A):
	// only headers cross PCIe; payloads wait in the NIC payload buffer
	// until egress reassembly.
	HeaderSplit bool
	// PayloadBufferBytes sizes the NIC payload buffer for split mode
	// (default 64MB). A payload the buffer evicts before its header returns
	// drops that header at egress reassembly (HeaderDrops).
	PayloadBufferBytes int64
	// TraceSampleEvery samples every Nth injected packet into the flight
	// recorder (counter-based, deterministic). 0 uses the default (1024);
	// negative disables tracing entirely.
	TraceSampleEvery int
}

// Flight-recorder settings: sample one packet in 1024 by default and retain
// the last 64 eventful journeys (drops and timeout releases).
const (
	defaultTraceSample = 1024
	traceRing          = 64
)

// nicLatency is the NIC pipeline's per-module latency (Tab. 4).
var nicLatency = nicsim.DefaultLatencyModel()

// headerSplitBytes is the PCIe transfer size for a split packet: parsed
// headers (outer Ethernet/IPv4/UDP/VXLAN + inner stack, ~110B) plus the
// PLB meta trailer.
const headerSplitBytes = 110 + packet.MetaLen

// pktCtx follows one packet through the pod. Contexts are pooled on the
// PodRuntime: Inject takes one from the free list and every terminal point
// of the packet's life (drop, egress completion) returns it.
type pktCtx struct {
	pr      *PodRuntime
	flow    workload.Flow
	bytes   int
	t0      sim.Time
	meta    packet.Meta
	cost    sim.Duration
	drop    bool
	class   nicsim.Class
	queueAt sim.Time
	core    int32    // core chosen by the dispatch stage
	stage   int8     // stage currently holding the packet
	enterAt sim.Time // when the packet entered its current stage
	fh      uint32   // cached flow.Tuple.Hash(); valid only when fhOK
	fhOK    bool
	viaPLB  bool
	split   bool
	payID   uint64
	// due is when the packet leaves the NIC egress pipeline, and next links
	// it into its class's egress queue (see burst.go).
	due  completion
	next *pktCtx
	// trace is the packet's flight-recorder journey; nil for unsampled
	// packets (the common case — one nil check per stage).
	trace *Journey
}

// PodRuntime is a deployed pod's dataplane.
type PodRuntime struct {
	node       *Node
	Pod        *pod.Pod
	Svc        *service.Service
	Cores      []*cpu.Core
	PLB        *plb.PLB
	RSS        *rss.Engine
	Classifier *nicsim.Classifier

	cfg     PodConfig
	rng     *sim.Rand
	mode    pod.Mode // current mode; may change via FallbackToRSS
	pipe    Pipeline // per-stage counters and residencies (see pipeline.go)
	flight  *FlightRecorder
	payload *nicsim.PayloadBuffer

	// Lifecycle (see the state machine in faultops.go). live counts
	// data-path contexts in flight; redirect receives this pod's traffic
	// while it is draining or crashed.
	state    podState
	live     int
	redirect *PodRuntime

	// rxLoss models per-core RX DMA loss (InjectRxLoss): while the
	// engine's time is before rxLossUntil[core], dispatched packets are
	// lost with probability rxLossProb[core]. nil until first armed.
	rxLossUntil []sim.Time
	rxLossProb  []float64

	// ctxFree recycles pktCtx values.
	ctxFree []*pktCtx

	// Dispatch and completion state (see burst.go). openBurst is indexed by
	// traffic class; egress holds the packets in the NIC egress pipeline,
	// RSS class then PLB class; tree is the winner tree over the next
	// completion of each core, then of each egress queue (see initHeads),
	// whose root is the earliest. timer is the pod's one completion timer,
	// armed at (timerAt, timerSeq); timerAt is sim.TimeMax when idle.
	burst     int
	openBurst [3]*burst
	burstFree []*burst
	tree      []headNode
	egress    [2]egressQueue
	timer     sim.Timer
	timerAt   sim.Time
	timerSeq  uint64
	settling  bool

	// Latency is the end-to-end (wire to wire) latency histogram.
	Latency *stats.Histogram
	// CPULatency is the CPU stage's residency histogram itself (the same
	// pointer as StageResidency()[stageCPU]): dispatch to CPU return, the
	// Fig. 11 processing latency. Besides the packets the CPU finished, it
	// holds each admission the core refused (as zero) and each packet a
	// core failure lost (with its time in the stage).
	CPULatency *stats.Histogram

	// Counters. The drop reasons (NICDrops, QueueDrops, PLBDrops,
	// ServiceDrop, HeaderDrops, FaultLost, RxLost) are views the pipeline
	// keeps: Pipeline.drop alone counts them, each together with the stage
	// that held the packet, so a drained pod has Rx == Tx + PriorityTx +
	// their sum. CrashDrops and Redirected count packets refused before Rx.
	Rx          uint64
	Tx          uint64
	NICDrops    uint64 // tenant overload rate limiting
	QueueDrops  uint64 // core RX queue overflow
	PLBDrops    uint64 // reorder FIFO full at dispatch
	ServiceDrop uint64 // ACL/service drops
	PriorityRx  uint64
	PriorityTx  uint64

	// Egress packets per tenant, read through TenantTx: txTenant by the
	// tenant ordinal of the pod's tables (service.Tables.TenantOrdinal),
	// txOther by VNI for VNIs the tables do not know.
	tables   *service.Tables
	txTenant []uint64
	txOther  map[uint32]uint64

	// PCIe accounting (bytes DMA'd between NIC and CPU).
	PCIeRxBytes uint64
	PCIeTxBytes uint64
	// HeaderDrops counts split-mode headers whose payload was evicted.
	HeaderDrops uint64
	// Fallbacks counts PLB->RSS mode switches.
	Fallbacks uint64

	// Fault/degradation counters.
	FaultLost  uint64 // packets discarded by core failure or pod crash
	RxLost     uint64 // packets lost to injected RX-path loss
	Redirected uint64 // packets redirected to the sibling pod
	CrashDrops uint64 // packets lost while crashed with no sibling
	Restarts   uint64 // crash restarts + gray upgrades completed
}

// AddPod places and wires a gateway pod.
func (n *Node) AddPod(cfg PodConfig) (*PodRuntime, error) {
	return n.AddPodWithTables(cfg, nil)
}

// AddPodWithTables is AddPod for a caller that deploys one pod template on
// many nodes: tables must be service.BuildTables(cfg.Flows), built once and
// adopted by every node's pod instead of being rebuilt per node (they are
// immutable, so sharing them across nodes and shard goroutines is safe).
// Nil tables are built here.
func (n *Node) AddPodWithTables(cfg PodConfig, tables *service.Tables) (*PodRuntime, error) {
	p, err := n.Server.Place(cfg.Spec, n.Engine.Now())
	if err != nil {
		return nil, err
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 1024
	}
	if cfg.JitterSigma == 0 {
		cfg.JitterSigma = 0.25
	}
	memMult := cfg.MemoryMult
	if memMult == 0 {
		memMult = 1
	}
	computeMult := 1.0
	if cfg.CrossNUMA {
		pen := cpu.DefaultPenalties()
		memMult *= pen.CrossMemory
		computeMult = pen.CrossCompute
	}
	svc, err := service.New(service.Config{
		Type:        cfg.Spec.Service,
		Cache:       n.Cache(p.NUMANode),
		Latency:     n.cfg.Mem,
		MemoryMult:  memMult,
		ComputeMult: computeMult,
		Addrs:       n.addrs,
	})
	if err != nil {
		return nil, err
	}
	if tables == nil {
		tables = service.BuildTables(cfg.Flows)
	}
	svc.Adopt(tables)
	cfg.Flows = nil // the tables hold what the pod needs of them

	pr := &PodRuntime{
		node:       n,
		Pod:        p,
		Svc:        svc,
		Classifier: nicsim.DefaultClassifier(),
		cfg:        cfg,
		rng:        sim.NewRand(n.cfg.Seed ^ uint64(p.ID)<<32 ^ 0xA1BA),
		mode:       cfg.Spec.Mode,
		pipe:       newPipeline(),
		Latency:    stats.NewLatencyHistogram(),
		tables:     tables,
		txTenant:   make([]uint64, tables.Tenants()),
	}
	pr.CPULatency = pr.pipe.resid[stageCPU]
	traceEvery := cfg.TraceSampleEvery
	switch {
	case traceEvery == 0:
		traceEvery = defaultTraceSample
	case traceEvery < 0:
		traceEvery = 0 // disabled
	}
	pr.burst = max(n.cfg.Burst, 1)
	pr.initHeads(cfg.Spec.DataCores + len(pr.egress))
	pr.timerAt = sim.TimeMax
	pr.flight = newFlightRecorder(traceEvery)
	if cfg.HeaderSplit {
		pr.payload = nicsim.NewPayloadBuffer(cfg.PayloadBufferBytes)
	}
	for i := 0; i < cfg.Spec.DataCores; i++ {
		pr.Cores = append(pr.Cores, cpu.NewCore(n.Engine, p.CoreIDs[i], cfg.QueueDepth))
	}

	// Every pod hashes by RSS what it does not spray: all of an RSS pod's
	// traffic, a PLB pod's RSS-class packets, and everything after
	// FallbackToRSS.
	pr.RSS, err = rss.NewEngine(cfg.Spec.DataCores, 128)
	if err != nil {
		return nil, err
	}
	if cfg.Spec.Mode == pod.ModePLB {
		pcfg := plb.DefaultConfig(p.ID, cfg.Spec.DataCores)
		pcfg.NumOrderQueues = p.ReorderQueues
		pr.PLB, err = plb.New(n.Engine, pcfg, pr.onEmission)
		if err != nil {
			return nil, err
		}
	}
	n.pods = append(n.pods, pr)
	n.refreshBackendPool()
	return pr, nil
}

// TenantTx returns the egress packets of tenant vni so far.
func (pr *PodRuntime) TenantTx(vni uint32) uint64 {
	if ord, ok := pr.tables.TenantOrdinal(vni); ok {
		return pr.txTenant[ord]
	}
	return pr.txOther[vni]
}

// countTenantTx counts one egress packet of tenant vni.
func (pr *PodRuntime) countTenantTx(vni uint32) {
	if ord, ok := pr.tables.TenantOrdinal(vni); ok {
		pr.txTenant[ord]++
		return
	}
	if pr.txOther == nil {
		pr.txOther = make(map[uint32]uint64)
	}
	pr.txOther[vni]++
}

// payloadID derives the payload-buffer key from a PLB meta header.
func payloadID(m packet.Meta) uint64 {
	return uint64(m.PSN)<<48 ^ uint64(m.OrdQ)<<40 ^ uint64(m.IngressNS)&0xffffffffff
}

// Mode returns the pod's current load-balancing mode.
func (pr *PodRuntime) Mode() pod.Mode { return pr.mode }

// FallbackToRSS dynamically switches the pod from PLB to RSS mode (paper
// §4.1 item 5: the last-resort HOL remediation). New packets are hashed by
// flow; packets already in flight keep their PLB meta and drain through the
// reorder engine.
func (pr *PodRuntime) FallbackToRSS() {
	if pr.mode == pod.ModeRSS {
		return
	}
	pr.mode = pod.ModeRSS
	pr.Fallbacks++
}

// Sink adapts the pod to a workload.Source sink.
func (pr *PodRuntime) Sink() func(workload.Flow, int) {
	return func(f workload.Flow, bytes int) { pr.Inject(f, bytes) }
}

// getCtx takes a context from the pool (or allocates the pool's first).
func (pr *PodRuntime) getCtx() *pktCtx {
	pr.live++
	if n := len(pr.ctxFree); n > 0 {
		c := pr.ctxFree[n-1]
		pr.ctxFree[n-1] = nil
		pr.ctxFree = pr.ctxFree[:n-1]
		return c
	}
	return &pktCtx{}
}

// putCtx recycles a context at the end of a packet's life. Every terminal
// point of the packet — drops in any stage, egress completion — funnels
// through here, so this is where a sampled journey closes (a trace that
// never reached exit died in ctx.stage).
func (pr *PodRuntime) putCtx(c *pktCtx) {
	if c.trace != nil {
		j := c.trace
		j.Core = c.core
		j.PSN = c.meta.PSN
		j.OrdQ = c.meta.OrdQ
		j.ViaPLB = c.viaPLB
		pr.flight.finish(j, pr.node.Engine.Now())
	}
	pr.live--
	*c = pktCtx{}
	pr.ctxFree = append(pr.ctxFree, c)
}

// Inject runs one packet through the pod's full path: the node-level gates
// (uplink state, pod lifecycle), then the stages of pipeline.go.
func (pr *PodRuntime) Inject(f workload.Flow, bytes int) {
	n := pr.node

	// BGP uplink state: while the link is down (the switch forwards into a
	// dead link until BFD detects it) or the route is withdrawn (until
	// re-advertisement), the packet is blackholed. Failover is a fleet
	// property: in a cluster, ECMP stops choosing a withdrawn member.
	if n.uplink != nil && (!n.uplink.LinkUp() || !n.uplink.RouteUp()) {
		n.Blackholed++
		return
	}

	// Lifecycle: draining/crashed pods hand their tenants to the sibling.
	if pr.state != podActive {
		if pr.redirect != nil && pr.redirect.state == podActive {
			pr.Redirected++
			pr.redirect.Inject(f, bytes)
			return
		}
		pr.CrashDrops++
		return
	}

	pr.Rx++

	now := n.Engine.Now()
	ctx := pr.getCtx()
	ctx.pr = pr
	ctx.flow = f
	ctx.bytes = bytes
	ctx.t0 = now
	if j := pr.flight.sample(); j != nil {
		j.Flow = f
		j.Bytes = bytes
		j.T0 = now
		j.Core = -1
		ctx.trace = j
	}

	if pr.classify(ctx, now) && pr.meter(ctx, now) {
		pr.ingress(ctx, now)
	}
}

// serviceCost computes the packet's CPU demand and drop verdict. The tuple
// hash is computed once per packet and cached on the context (the arrival
// event's warm pass fills it even earlier).
func (pr *PodRuntime) serviceCost(ctx *pktCtx) (sim.Duration, bool) {
	if !ctx.fhOK {
		ctx.fh = ctx.flow.Tuple.Hash()
		ctx.fhOK = true
	}
	res := pr.Svc.ProcessHash(ctx.flow.Tuple, ctx.flow.VNI, ctx.fh)
	cost := float64(res.Cost)
	if pr.cfg.JitterSigma > 0 {
		cost *= math.Exp(pr.rng.Norm(0, pr.cfg.JitterSigma))
	}
	if pr.cfg.SlowPathProb > 0 && pr.rng.Float64() < pr.cfg.SlowPathProb {
		cost += float64(pr.cfg.SlowPathCost)
	}
	return sim.Duration(cost), res.Drop
}

// UtilSamplers returns one utilization sampler per data core.
func (pr *PodRuntime) UtilSamplers() []*cpu.UtilSampler {
	out := make([]*cpu.UtilSampler, len(pr.Cores))
	for i, c := range pr.Cores {
		out[i] = cpu.NewUtilSampler(c)
	}
	return out
}

// DisorderRate returns the pod's PLB disorder rate (0 for RSS pods).
func (pr *PodRuntime) DisorderRate() float64 {
	if pr.PLB == nil {
		return 0
	}
	s := pr.PLB.Stats()
	return s.DisorderRate()
}

// MeanServiceCost probes the pod's service with nProbes random known flows
// and returns the mean per-packet CPU cost (used for analytic saturation
// throughput, Tab. 3/Fig. 4).
func (pr *PodRuntime) MeanServiceCost(flows []service.Flow, nProbes int) sim.Duration {
	if len(flows) == 0 || nProbes <= 0 {
		return 0
	}
	r := sim.NewRand(pr.node.cfg.Seed ^ 0xBEEF)
	var total sim.Duration
	for i := 0; i < nProbes; i++ {
		f := flows[r.Intn(len(flows))]
		res := pr.Svc.Process(f.Tuple, f.VNI)
		total += res.Cost
	}
	return total / sim.Duration(nProbes)
}

// SaturationMpps estimates the pod's maximum packet rate in Mpps from the
// measured mean service cost: cores / mean-cost.
func (pr *PodRuntime) SaturationMpps(flows []service.Flow, nProbes int) float64 {
	mean := pr.MeanServiceCost(flows, nProbes)
	if mean <= 0 {
		return 0
	}
	perCore := float64(sim.Second) / float64(mean) // pps per core
	return perCore * float64(len(pr.Cores)) / 1e6
}

// String summarizes the pod.
func (pr *PodRuntime) String() string {
	return fmt.Sprintf("pod %q [%v %s, %d cores, %d ordq]",
		pr.Pod.Spec.Name, pr.Pod.Spec.Service, pr.Pod.Spec.Mode,
		len(pr.Cores), pr.Pod.ReorderQueues)
}
