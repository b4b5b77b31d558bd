// Package cluster is the multi-node Albatross deployment: N containerized
// gateway servers (core.Node) behind one ToR switch, advancing in virtual
// time under one protocol — a control engine plus one engine per member,
// advanced by k ≥ 1 workers (see sharded.go). Ingress flows are sprayed
// across nodes with consistent-hash ECMP (flow-affine, bounded remap on
// membership churn), and each node's reachability is governed by its
// modeled BGP uplink — so a node crash is only *observed* by the ECMP layer
// once BFD misses DetectMult probes and the route is withdrawn, exactly the
// paper's bounded-loss failover story, while gray upgrades withdraw
// administratively first (make-before-break, zero loss).
//
// The cluster is a faults.Target, extending the deterministic fault plans
// of internal/faults to node granularity: its InjectFault applies node
// crash, node drain and uplink withdraw through InjectNodeFault, and hands
// a pod-level fault to member Fault.Node.
//
// Every member's uplink is a bgp.SimSession — the BFD timing model, and the
// only thing eligibility reads — observed by the real BGP stack
// (bgp.ProxiedSession): a GW-pod speaker peers iBGP with the member's proxy
// pod, which holds the single eBGP session to one shared switch model — the
// paper's §5 peer-scaling topology at cluster scale.
package cluster

import (
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"

	"albatross/internal/bgp"
	"albatross/internal/core"
	"albatross/internal/errs"
	"albatross/internal/faults"
	"albatross/internal/metrics"
	"albatross/internal/service"
	"albatross/internal/sim"
	"albatross/internal/workload"
)

// Config parameterizes a cluster.
type Config struct {
	// Nodes is the member count (≥ 1).
	Nodes int
	// Seed feeds the per-member node seeds (member i derives a distinct
	// deterministic seed from it).
	Seed uint64
	// Node is the per-member template. Its Seed/Engine/Faults fields are
	// overridden: seeds derive from Config.Seed, a member runs on its own
	// lane's engine, and fault plans are cluster-level (Config.Faults).
	Node core.NodeConfig
	// Faults, when non-nil, arms a deterministic cluster-level fault plan
	// (node- and pod-level kinds; Fault.Node selects the member).
	Faults *faults.Plan
	// Shards is the number of workers that advance the members' engines
	// at each epoch barrier of the conservative epoch protocol (see
	// internal/sim.ShardedEngine), so a run uses multiple cores: 0 = auto
	// (min(GOMAXPROCS, Nodes)), k ≥ 1 = exactly k (capped at Nodes).
	// Every member has its own engine whatever k is; worker j advances
	// members j, j+k, … one at a time. Outcome reports and metrics exports
	// are byte-identical at any worker count.
	Shards int
	// SnapshotEvery, when positive, samples a telemetry timeline every
	// SnapshotEvery of virtual time: RunFor slices its advance at tick
	// boundaries (an epoch barrier under the epoch protocol) and records
	// per-tick deltas of the cluster-level series into Timeline(). Zero
	// disables sampling; the packet path is untouched either way.
	SnapshotEvery sim.Duration
}

// memberState tracks a member's lifecycle for reporting; ECMP eligibility
// is deliberately *not* derived from it (the switch only sees BGP state).
type memberState uint8

const (
	memberActive memberState = iota
	memberDraining
	memberCrashed
	// memberRemoved is terminal: the slot keeps its index (members are
	// never renumbered) but owns no ring points and cannot be resurrected.
	memberRemoved
)

func (s memberState) String() string {
	switch s {
	case memberActive:
		return "active"
	case memberDraining:
		return "draining"
	case memberCrashed:
		return "crashed"
	case memberRemoved:
		return "removed"
	default:
		return "invalid"
	}
}

// Member is one gateway server in the cluster.
type Member struct {
	// Index is the member's stable position (also its ring identity).
	Index int
	// Node is the underlying server.
	Node *core.Node

	state memberState
	// adminUntil implements administrative withdrawal (drain, uplink
	// withdraw): the member is ineligible while now < adminUntil. Unlike a
	// crash, the switch learns immediately — make-before-break.
	adminUntil sim.Time
	// weight is the member's ECMP weight (1.0 = full vnode share).
	weight float64

	// Rx counts packets ECMP delivered to this member.
	Rx uint64
	// Drains and Crashes count node-level fault activations.
	Drains  uint64
	Crashes uint64

	// proxied is the real-BGP fabric mirroring the member's uplink session.
	proxied *bgp.ProxiedSession
}

// State returns the member's lifecycle state name.
func (m *Member) State() string { return m.state.String() }

// Weight returns the member's ECMP weight.
func (m *Member) Weight() float64 { return m.weight }

// ActivePods counts the member's pods in the active lifecycle state.
func (m *Member) ActivePods() int {
	n := 0
	for _, pr := range m.Node.Pods() {
		if pr.State() == "active" {
			n++
		}
	}
	return n
}

// Cluster is a set of Albatross nodes behind consistent-hash ECMP.
type Cluster struct {
	// Engine is the control engine: the clock cluster-coupling state
	// advances on. Workload sources, fault plans, and trace record/replay
	// all attach here.
	Engine *sim.Engine

	cfg      Config
	members  []*Member
	ring     *ring
	injector *faults.Injector
	// pods replays deployed pods onto members added later.
	pods []podTemplate
	// eligibleFn is the ring's eligibility probe, bound once so Inject
	// stays allocation-free.
	eligibleFn func(int) bool
	// sharded is the epoch-protocol driver, lane i member i's engine; mail
	// holds the per-member injection mailboxes.
	sharded *sim.ShardedEngine
	mail    []mailbox
	// switchModel is the shared uplink switch every member's proxy peers
	// with.
	switchModel *bgp.Switch
	// controller is the attached control loop, if any (see AttachController).
	controller Controller

	// Sprayed counts ingress packets offered to the ECMP layer; Remapped
	// counts those delivered to a member other than their ring home (the
	// failover spillover); Drops counts packets with no eligible member.
	Sprayed  uint64
	Remapped uint64
	Drops    uint64

	// timeline is the periodic sampler (nil unless Config.SnapshotEvery is
	// set), armed lazily at the first RunFor so its ticks count from there.
	// It samples the cluster-level counters and gauge of armTimeline only.
	timeline *metrics.Timeline
}

// podTemplate is one AddPod call: the config and the tables built from its
// flows, which every member's copy of the pod adopts — a homogeneous rack
// holds one set of tenant tables, however many members serve it.
type podTemplate struct {
	cfg    core.PodConfig
	tables *service.Tables
}

// foreverDuration stands in for "permanent" when a fault's Duration is 0.
const foreverDuration = sim.Duration(1) << 60

// memberSeed derives member i's node seed from the cluster seed.
func memberSeed(seed uint64, i int) uint64 {
	return mix64(seed ^ (uint64(i)+1)*0x9e3779b97f4a7c15)
}

// New builds a cluster of cfg.Nodes members. Every member gets a modeled
// BGP uplink (default BFD timing) — reachability is what ECMP eligibility is
// derived from.
func New(cfg Config) (*Cluster, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("cluster: need at least 1 node, got %d: %w", cfg.Nodes, errs.BadConfig)
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("cluster: Shards %d must be >= 0: %w", cfg.Shards, errs.BadConfig)
	}
	if cfg.SnapshotEvery < 0 {
		return nil, fmt.Errorf("cluster: SnapshotEvery %d must be >= 0: %w", cfg.SnapshotEvery, errs.BadConfig)
	}
	// cfg keeps the resolved worker count.
	if cfg.Shards == 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.Shards > cfg.Nodes {
		cfg.Shards = cfg.Nodes
	}
	c := &Cluster{
		cfg:         cfg,
		ring:        &ring{},
		sharded:     sim.NewShardedEngine(cfg.Shards),
		switchModel: bgp.NewSwitch(65000, 0xFFFF0001),
	}
	c.Engine = c.sharded.Control()
	c.sharded.SetAdvance(c.advanceLane)
	c.sharded.SetBoundary(c.nextBoundary)
	c.switchModel.Manual = true
	c.eligibleFn = c.eligible
	for i := 0; i < cfg.Nodes; i++ {
		if _, err := c.addMember(); err != nil {
			return nil, err
		}
	}
	if cfg.Faults != nil {
		inj, err := faults.NewInjector(c.Engine, c, cfg.Faults)
		if err != nil {
			return nil, err
		}
		c.injector = inj
	}
	return c, nil
}

// addMember builds, uplinks, and ring-registers the next member on a new
// lane, whose index is the member's.
func (c *Cluster) addMember() (*Member, error) {
	i := len(c.members)
	ncfg := c.cfg.Node
	ncfg.Seed = memberSeed(c.cfg.Seed, i)
	ncfg.Engine = c.sharded.AddLane()
	ncfg.Faults = nil
	c.mail = append(c.mail, mailbox{})
	n, err := core.NewNode(ncfg)
	if err != nil {
		return nil, err
	}
	m := &Member{Index: i, Node: n, weight: 1}
	// At cluster scope the failover path is re-ECMP to survivors, not a
	// sibling re-advertisement of the same prefix, so the core-level proxy
	// detour stays off.
	session, err := n.EnableUplink(false)
	if err != nil {
		return nil, err
	}
	m.proxied, err = bgp.NewProxiedSession(c.switchModel, session, bgp.ProxiedSessionConfig{Member: i})
	if err != nil {
		return nil, err
	}
	c.members = append(c.members, m)
	c.ring.add(i)
	return m, nil
}

// AddNode grows the cluster by one member at runtime, replaying every
// deployed pod config onto it. Consistent hashing bounds the disruption:
// only ~1/(N+1) of flows remap onto the new member. Returns the new
// member's index.
func (c *Cluster) AddNode() (int, error) {
	// The new member's lane starts at the horizon, which may lag the
	// control clock mid-run: bring every lane current first so the new one
	// starts at the control clock and its uplink (and pods) arm events there.
	c.sharded.SyncShards()
	m, err := c.addMember()
	if err != nil {
		return 0, err
	}
	for _, t := range c.pods {
		if _, err := m.Node.AddPodWithTables(t.cfg, t.tables); err != nil {
			return 0, err
		}
	}
	return m.Index, nil
}

// AddPod deploys the pod on every member (the homogeneous rack) and records
// it for members added later. The pod's tables are built once, here, and
// shared by every member's copy: set-up time and memory follow the flow set,
// not the member count.
func (c *Cluster) AddPod(cfg core.PodConfig) error {
	t := podTemplate{cfg: cfg, tables: service.BuildTables(cfg.Flows)}
	for _, m := range c.members {
		if _, err := m.Node.AddPodWithTables(t.cfg, t.tables); err != nil {
			return fmt.Errorf("cluster: node %d: %w", m.Index, err)
		}
	}
	c.pods = append(c.pods, t)
	return nil
}

// Members returns the cluster members in index order.
func (c *Cluster) Members() []*Member { return c.members }

// memberAt resolves a fault plan's node index.
func (c *Cluster) memberAt(i int) (*Member, error) {
	if i < 0 || i >= len(c.members) {
		return nil, fmt.Errorf("cluster: node index %d out of range [0,%d): %w", i, len(c.members), errs.BadConfig)
	}
	return c.members[i], nil
}

// MemberAt returns member i: its state (weight, lifecycle, uplink) and its
// node.
func (c *Cluster) MemberAt(i int) (*Member, error) { return c.memberAt(i) }

// InjectFault applies a fault of any kind: a node-level kind through
// InjectNodeFault, a pod-level kind on member Fault.Node's node once every
// lane is synchronized to the control clock — the fault mutates node state,
// and arms timers, on the member's lane. Implements faults.Target.
func (c *Cluster) InjectFault(f faults.Fault) error {
	if f.Kind.NodeLevel() {
		return c.InjectNodeFault(f.Kind, f.Node, f.Duration)
	}
	m, err := c.memberAt(f.Node)
	if err != nil {
		return err
	}
	c.sharded.SyncShards()
	return m.Node.InjectFault(f)
}

// SetWeight sets member node's ECMP weight: weight w owns round(w×vnodes)
// ring points (min 1 while positive; 0 removes the member's points without
// retiring the slot). A pure control-plane mutation — the ring is only read
// on the control engine, so no lane synchronization is needed — and the
// canonical canary primitive: shift a member 0.1 → 0.5 → 1.0 while watching
// availability.
func (c *Cluster) SetWeight(node int, w float64) error {
	m, err := c.memberAt(node)
	if err != nil {
		return err
	}
	if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		return fmt.Errorf("cluster: weight %v must be a finite non-negative number: %w", w, errs.BadConfig)
	}
	if m.state == memberRemoved {
		return fmt.Errorf("cluster: node %d is removed: %w", node, errs.BadState)
	}
	m.weight = w
	c.ring.setCount(node, c.ring.weightCount(w))
	return nil
}

// SetNodeAdmin pins member node's administrative state: up=false withdraws
// the route indefinitely (new flows re-ECMP to survivors instantly, pods
// untouched); up=true restores it. Unlike InjectNodeFault's timed
// withdrawals, the state holds until the opposite call — the reconciler's
// drain primitive.
func (c *Cluster) SetNodeAdmin(node int, up bool) error {
	m, err := c.memberAt(node)
	if err != nil {
		return err
	}
	if m.state == memberRemoved {
		return fmt.Errorf("cluster: node %d is removed: %w", node, errs.BadState)
	}
	if up {
		m.adminUntil = c.Engine.Now()
	} else {
		m.adminUntil = c.Engine.Now().Add(foreverDuration)
	}
	c.sharded.SyncShards()
	m.proxied.SetAdmin(up)
	return nil
}

// RemoveNode permanently retires member node: its ring points are removed
// (the consistent-hash bound applies — only its own share of flows remap),
// its route is withdrawn through the fabric, and its pods stop gracefully.
// The slot keeps its index (members are never renumbered) and cannot be
// resurrected; grow again with AddNode. Callers wanting zero loss drain
// first (SetNodeAdmin false, wait a tick) — the reconciler's
// make-before-break removal does exactly that.
func (c *Cluster) RemoveNode(node int) error {
	m, err := c.memberAt(node)
	if err != nil {
		return err
	}
	if m.state == memberRemoved {
		return fmt.Errorf("cluster: node %d already removed: %w", node, errs.BadState)
	}
	// Pod stops arm timers on the member's lane.
	c.sharded.SyncShards()
	m.state = memberRemoved
	m.adminUntil = c.Engine.Now().Add(foreverDuration)
	m.proxied.SetAdmin(false)
	c.ring.remove(node)
	for pi, pr := range m.Node.Pods() {
		if pr.State() == "active" {
			if err := m.Node.InjectPodCrash(pi, true, foreverDuration); err != nil {
				return err
			}
		}
	}
	return nil
}

// ScalePods drives member node's active pod count to want, deploying
// copies of the first recorded AddPod template (scale-up) or gracefully
// stopping the highest-index active pods (scale-down). Rolling pod updates
// reduce to ScalePods steps under the reconciler's rate limit.
func (c *Cluster) ScalePods(node, want int) error {
	m, err := c.memberAt(node)
	if err != nil {
		return err
	}
	if want < 0 {
		return fmt.Errorf("cluster: pod count %d must be >= 0: %w", want, errs.BadConfig)
	}
	if m.state == memberRemoved {
		return fmt.Errorf("cluster: node %d is removed: %w", node, errs.BadState)
	}
	// Pod deploys and stops mutate lane-owned state.
	c.sharded.SyncShards()
	for m.ActivePods() < want {
		if len(c.pods) == 0 {
			return fmt.Errorf("cluster: no pod template recorded (AddPod first): %w", errs.BadState)
		}
		tmpl := c.pods[0]
		tmpl.cfg.Spec.Name = fmt.Sprintf("%s-s%d", tmpl.cfg.Spec.Name, len(m.Node.Pods()))
		if _, err := m.Node.AddPodWithTables(tmpl.cfg, tmpl.tables); err != nil {
			return err
		}
	}
	for m.ActivePods() > want {
		pods := m.Node.Pods()
		victim := -1
		for pi := len(pods) - 1; pi >= 0; pi-- {
			if pods[pi].State() == "active" {
				victim = pi
				break
			}
		}
		if victim < 0 {
			break
		}
		if err := m.Node.InjectPodCrash(victim, true, foreverDuration); err != nil {
			return err
		}
	}
	return nil
}

// SetNodeFlowBackend swaps member node's flow-table backend in place (see
// core.Node.SetFlowBackend) — one member of a rolling config update.
func (c *Cluster) SetNodeFlowBackend(node int, name string) error {
	m, err := c.memberAt(node)
	if err != nil {
		return err
	}
	if m.state == memberRemoved {
		return fmt.Errorf("cluster: node %d is removed: %w", node, errs.BadState)
	}
	// The swap rebuilds lane-owned steering state.
	c.sharded.SyncShards()
	return m.Node.SetFlowBackend(name)
}

// SwitchModel returns the shared uplink switch of the proxied BGP fabric.
func (c *Cluster) SwitchModel() *bgp.Switch { return c.switchModel }

// Controller is an attached control loop (controlplane.Reconciler); the
// cluster only knows enough to surface it in reports and hand it back to
// callers that built the cluster through the facade.
type Controller interface {
	// Summary renders a deterministic one-line state summary.
	Summary() string
}

// AttachController registers the cluster's control loop. One controller at
// a time; attaching replaces the previous one.
func (c *Cluster) AttachController(ctrl Controller) { c.controller = ctrl }

// Controller returns the attached control loop (nil when none).
func (c *Cluster) Controller() Controller { return c.controller }

// eligible reports whether the switch would ECMP traffic to member i: the
// route must be advertised (BGP view) and not administratively withdrawn.
// Crash state deliberately does not factor in — the switch cannot see a
// crash until BFD withdraws the route, which is where the bounded
// detection-window loss comes from.
func (c *Cluster) eligible(i int) bool {
	m := c.members[i]
	if c.Engine.Now() < m.adminUntil {
		return false
	}
	return m.Node.Uplink().RouteUp()
}

// flowHash is the ECMP key: tenant and five-tuple, so a flow is node-affine.
func flowHash(f workload.Flow) uint64 {
	return uint64(f.VNI)<<32 ^ uint64(f.Tuple.Hash())
}

// Route reports where flow f lands without injecting: its ring home and
// the eligible owner that would receive it now (-1 when none).
func (c *Cluster) Route(f workload.Flow) (home, owner int) {
	return c.ring.lookup(flowHash(f), c.eligibleFn)
}

// Inject sprays one packet through ECMP into the owning member's ingress
// pod. Packets with no eligible member are dropped at the switch. The
// routing decision and ECMP counters happen here on the control clock
// (eligibility is frozen below the lookahead horizon, so the decision is
// exact), while the pod pipeline work is buffered into the owning member's
// mailbox and executed on its lane at the next barrier (Node.Ingress: pod 0
// without a flow-table backend, the backend's pinned pod with one).
func (c *Cluster) Inject(f workload.Flow, bytes int) {
	c.Sprayed++
	home, owner := c.ring.lookup(flowHash(f), c.eligibleFn)
	if owner < 0 {
		c.Drops++
		return
	}
	if owner != home {
		c.Remapped++
	}
	m := c.members[owner]
	m.Rx++
	pods := m.Node.Pods()
	if len(pods) == 0 {
		c.Drops++
		return
	}
	c.post(m, f, bytes)
}

// Sink adapts the cluster to a workload.Source sink.
func (c *Cluster) Sink() func(workload.Flow, int) {
	return func(f workload.Flow, bytes int) { c.Inject(f, bytes) }
}

// RunFor advances the cluster's virtual clock under the epoch protocol
// (control plus every member's lane, on the workers).
func (c *Cluster) RunFor(d sim.Duration) {
	c.RunUntil(c.Engine.Now().Add(d))
}

// RunUntil advances the cluster to exactly deadline. With SnapshotEvery
// set, the advance is sliced at timeline tick boundaries: every engine is
// driven to quiescence at exactly the tick time (an epoch barrier — see
// DESIGN.md §14) before the sampler reads, so
// the recorded series are byte-identical at any worker count and any
// dispatch burst size. Slicing is semantically free: RunUntil(a) then
// RunUntil(b) executes the identical event schedule as RunUntil(b).
func (c *Cluster) RunUntil(deadline sim.Time) {
	if c.cfg.SnapshotEvery > 0 && c.timeline == nil {
		c.armTimeline()
	}
	if c.timeline != nil {
		for c.timeline.Next() <= deadline {
			tick := c.timeline.Next()
			c.sharded.RunUntil(tick)
			c.timeline.Sample(tick)
		}
	}
	c.sharded.RunUntil(deadline)
}

// Timeline returns the periodic telemetry sampler, or nil when
// Config.SnapshotEvery is zero or the cluster has not run yet.
func (c *Cluster) Timeline() *metrics.Timeline { return c.timeline }

// armTimeline builds the sampler over a dedicated bounded registry — the
// cluster-level aggregates — rather than the full RegisterMetrics set,
// whose per-node series would make a 1000-node timeline O(nodes) columns
// wide per tick.
//
// Every sampled value is switch-plane (counted at injection time) or
// control-plane (BFD/uplink timer) state; egress-side state — pod Tx,
// completion latency histograms — is not sampled.
func (c *Cluster) armTimeline() {
	reg := metrics.New()
	reg.Counter("albatross_cluster_sprayed_packets_total",
		"Ingress packets offered to the ECMP layer.",
		func() uint64 { return c.Sprayed })
	reg.Counter("albatross_cluster_admitted_packets_total",
		"Packets the ToR forwarded to a live member (sprayed minus switch drops and blackhole loss).",
		func() uint64 { return c.Sprayed - c.Drops - c.Blackholed() })
	reg.Counter("albatross_cluster_remapped_packets_total",
		"Packets delivered away from their ring home (failover spillover).",
		func() uint64 { return c.Remapped })
	reg.Counter("albatross_cluster_switch_drops_total",
		"Packets with no eligible member.",
		func() uint64 { return c.Drops })
	reg.Counter("albatross_cluster_blackholed_packets_total",
		"Packets lost at dead links (BFD detection-window loss).",
		func() uint64 { return c.Blackholed() })
	reg.Gauge("albatross_cluster_eligible_members",
		"Members the switch would currently ECMP traffic to.",
		func() float64 {
			n := 0
			for i := range c.members {
				if c.eligible(i) {
					n++
				}
			}
			return float64(n)
		})
	tl := metrics.NewTimeline(reg, c.cfg.SnapshotEvery)
	// Availability: per-tick admitted/sprayed; an idle tick is fully
	// available (nothing offered, nothing lost).
	tl.AddRatio("availability",
		"albatross_cluster_admitted_packets_total",
		"albatross_cluster_sprayed_packets_total", 1)
	tl.Start(c.Engine.Now())
	c.timeline = tl
}

// Pending returns the live scheduled-event count across every engine in
// the cluster. Safe to call from any goroutine mid-run: the engines expose
// the count through atomic mirrors.
func (c *Cluster) Pending() int { return c.sharded.Pending() }

// InjectNodeFault is the unified node-level fault entry point: it fires
// kind (KindNodeCrash, KindNodeDrain, or KindUplinkWithdraw) against member
// node. The reconciler, scenario runner, and fault injector (through
// InjectFault) all route through here.
func (c *Cluster) InjectNodeFault(kind faults.Kind, node int, d sim.Duration) error {
	switch kind {
	case faults.KindNodeCrash:
		return c.injectNodeCrash(node, d)
	case faults.KindNodeDrain:
		return c.injectNodeDrain(node, d)
	case faults.KindUplinkWithdraw:
		return c.injectUplinkWithdraw(node, d)
	default:
		return fmt.Errorf("cluster: %v is not a node-level fault kind: %w", kind, errs.BadConfig)
	}
}

// injectNodeCrash kills member node abruptly: the uplink goes down (BFD
// detects after its probe window; arrivals meanwhile are blackholed at the
// dead link) and every pod crashes. The node recovers after d (0 = never):
// pods restart, BFD comes back, and the route re-advertises, restoring the
// exact pre-crash ECMP assignment. Detection and re-advertisement reach the
// switch RIB as real withdraw/announce UPDATEs through the fabric's
// subscription to the session — no admin mirroring needed.
func (c *Cluster) injectNodeCrash(node int, d sim.Duration) error {
	m, err := c.memberAt(node)
	if err != nil {
		return err
	}
	if m.state == memberCrashed || m.state == memberRemoved {
		return fmt.Errorf("cluster: node %d is %v: %w", node, m.state, errs.BadState)
	}
	if d <= 0 {
		d = foreverDuration
	}
	// The crash mutates lane-owned state (the uplink session, pod
	// lifecycles): bring every lane to the control clock first so the
	// mutation lands after every earlier lane-local event.
	c.sharded.SyncShards()
	m.state = memberCrashed
	m.Crashes++
	m.Node.Uplink().InjectFlap(d)
	for pi, pr := range m.Node.Pods() {
		if pr.State() == "active" {
			if err := m.Node.InjectPodCrash(pi, false, d); err != nil {
				return err
			}
		}
	}
	c.Engine.After(d, func() {
		if m.state == memberCrashed {
			m.state = memberActive
		}
	})
	return nil
}

// injectNodeDrain gray-upgrades member node: its route is withdrawn
// administratively *first* (make-before-break — new flows re-ECMP to
// survivors instantly, zero loss), its pods drain in place so in-flight
// packets complete, and the node rejoins the ECMP group after d.
func (c *Cluster) injectNodeDrain(node int, d sim.Duration) error {
	m, err := c.memberAt(node)
	if err != nil {
		return err
	}
	if d <= 0 {
		return fmt.Errorf("cluster: node drain needs a positive duration: %w", errs.BadConfig)
	}
	if m.state != memberActive {
		return fmt.Errorf("cluster: node %d is %v, not active: %w", node, m.state, errs.BadState)
	}
	// Pod drains arm timers on the member's lane.
	c.sharded.SyncShards()
	m.state = memberDraining
	m.Drains++
	c.adminWithdraw(m, d)
	for pi, pr := range m.Node.Pods() {
		if pr.State() == "active" {
			if err := m.Node.InjectPodCrash(pi, true, d); err != nil {
				return err
			}
		}
	}
	c.Engine.After(d, func() {
		if m.state == memberDraining {
			m.state = memberActive
		}
	})
	return nil
}

// injectUplinkWithdraw administratively withdraws member node's route for d
// without touching its pods (drain-the-uplink). Eligibility only moves
// adminUntil, a control-plane time threshold the ECMP layer evaluates
// exactly at each arrival's own timestamp; the withdrawal is additionally
// mirrored through the real fabric (which synchronizes the lanes — the
// fabric's speakers are lane-owned).
func (c *Cluster) injectUplinkWithdraw(node int, d sim.Duration) error {
	m, err := c.memberAt(node)
	if err != nil {
		return err
	}
	if d <= 0 {
		return fmt.Errorf("cluster: uplink withdraw needs a positive duration: %w", errs.BadConfig)
	}
	if m.state == memberRemoved {
		return fmt.Errorf("cluster: node %d is removed: %w", node, errs.BadState)
	}
	c.adminWithdraw(m, d)
	return nil
}

// adminWithdraw extends m's administrative withdrawal to now+d and mirrors
// it through the proxied fabric: the VIP is withdrawn from the switch RIB
// now and re-advertised when the admin window expires. Eligibility itself
// stays the adminUntil threshold (evaluated per arrival timestamp), so the
// mirror never perturbs packet-path decisions — it keeps the observable
// RIB state truthful.
func (c *Cluster) adminWithdraw(m *Member, d sim.Duration) {
	if until := c.Engine.Now().Add(d); until > m.adminUntil {
		m.adminUntil = until
	}
	// The mirror pumps lane-owned speakers: lanes must be quiescent at
	// the control clock.
	c.sharded.SyncShards()
	m.proxied.SetAdmin(false)
	c.Engine.At(m.adminUntil, func() {
		// A later withdrawal may have extended the window (its own timer
		// covers the restore) and a removal is permanent.
		if c.Engine.Now() >= m.adminUntil && m.state != memberRemoved {
			c.sharded.SyncShards()
			m.proxied.SetAdmin(true)
		}
	})
}

// Blackholed sums packets lost at dead links across members (the BFD
// detection-window loss).
func (c *Cluster) Blackholed() uint64 {
	var total uint64
	for _, m := range c.members {
		total += m.Node.Blackholed
	}
	return total
}

// FaultLog returns the fired-fault log of the cluster's injector (nil when
// no plan was armed).
func (c *Cluster) FaultLog() []faults.Event {
	if c.injector == nil {
		return nil
	}
	return c.injector.Log()
}

// Report renders the cluster-level view followed by each member node's
// report. The output is deterministic for a fixed seed and plan.
func (c *Cluster) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "albatross cluster @ %v virtual, %d nodes: sprayed=%d remapped=%d switch-drops=%d blackholed=%d\n",
		c.Engine.Now(), len(c.members), c.Sprayed, c.Remapped, c.Drops, c.Blackholed())
	for _, m := range c.members {
		fmt.Fprintf(&b, "node %d [%s] rx=%d drains=%d crashes=%d route-up=%v\n",
			m.Index, m.state, m.Rx, m.Drains, m.Crashes, c.eligible(m.Index))
		b.WriteString(m.Node.Report())
	}
	return b.String()
}

// Close closes every member node.
func (c *Cluster) Close() error {
	var errAll error
	for _, m := range c.members {
		if err := m.Node.Close(); err != nil {
			errAll = err
		}
	}
	return errAll
}

// RegisterMetrics registers every member node's metric series into reg,
// each labeled node=<index>, plus the cluster-level ECMP counters.
func (c *Cluster) RegisterMetrics(reg *metrics.Registry) {
	reg.Counter("albatross_cluster_sprayed_packets_total",
		"Ingress packets offered to the ECMP layer.",
		func() uint64 { return c.Sprayed })
	reg.Counter("albatross_cluster_remapped_packets_total",
		"Packets delivered away from their ring home (failover spillover).",
		func() uint64 { return c.Remapped })
	reg.Counter("albatross_cluster_switch_drops_total",
		"Packets with no eligible member.",
		func() uint64 { return c.Drops })
	for _, m := range c.members {
		label := metrics.L("node", strconv.Itoa(m.Index))
		m.Node.RegisterMetrics(reg, label)
		reg.Counter("albatross_cluster_member_rx_packets_total",
			"Packets ECMP delivered to the member.",
			func() uint64 { return m.Rx }, label)
	}
}

// Metrics builds a fresh registry over the cluster and snapshots it.
func (c *Cluster) Metrics() *metrics.Snapshot {
	reg := metrics.New()
	c.RegisterMetrics(reg)
	return reg.Snapshot()
}
