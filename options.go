package albatross

import (
	"fmt"

	"albatross/internal/cachesim"
	"albatross/internal/cluster"
	"albatross/internal/controlplane"
	"albatross/internal/core"
	"albatross/internal/errs"
	"albatross/internal/faults"
)

// Sentinel errors. Every facade constructor returns (never panics on) an
// error wrapping one of these, whichever internal layer detected the
// problem — classify with errors.Is.
var (
	// ErrBadConfig reports an invalid configuration value.
	ErrBadConfig = errs.BadConfig
	// ErrPodExhausted reports that a resource pool (cores, VFs, reorder
	// queues, NAT bindings, ...) cannot satisfy an allocation.
	ErrPodExhausted = errs.Exhausted
	// ErrClosed reports an operation on a Node or PodRuntime whose
	// lifecycle has ended (Node.Close / PodRuntime.Stop).
	ErrClosed = errs.Closed
	// ErrBadState reports an operation that is not legal in the
	// component's current lifecycle state.
	ErrBadState = errs.BadState
)

// CacheConfig is the per-NUMA L3 cache geometry.
type CacheConfig = cachesim.Config

// Config is the resolved facade configuration: a per-node template plus
// the deployment width. Options write into it; New and NewCluster read it.
type Config struct {
	// Node is the per-server configuration (shared by every cluster member).
	Node NodeConfig
	// Nodes is the deployment width: 1 = a single Node (New), >1 = a
	// multi-node Cluster behind consistent-hash ECMP (NewCluster).
	Nodes int
	// Shards is the number of workers that advance a cluster's members,
	// each on its own engine, at every epoch barrier: 0 = auto
	// (min(GOMAXPROCS, Nodes)), k ≥ 1 = k workers. Outcomes are
	// byte-identical at any worker count.
	Shards int
	// SnapshotEvery samples a telemetry timeline every this much virtual
	// time on NewCluster deployments (0 = off). See WithSnapshotEvery.
	SnapshotEvery Duration
	// Spec is a desired-state block attached to NewCluster deployments:
	// a Reconciler is built over the cluster and armed on its engine. See
	// WithSpec.
	Spec *ReconcileSpec
}

// Option configures a deployment built with New or NewCluster. Options
// layer over the config structs: they keep working, and New(WithSeed(1))
// is equivalent to NewNode(NodeConfig{Seed: 1}).
type Option func(*Config)

// WithSeed sets the master RNG seed (per-member seeds derive from it in a
// cluster).
func WithSeed(seed uint64) Option {
	return func(c *Config) { c.Node.Seed = seed }
}

// WithServerConfig sets the server hardware description.
func WithServerConfig(sc ServerConfig) Option {
	return func(c *Config) { c.Node.Server = sc }
}

// WithCache sets the per-NUMA L3 cache geometry.
func WithCache(cc CacheConfig) Option {
	return func(c *Config) { c.Node.Cache = cc }
}

// WithLimiter enables gateway overload protection.
func WithLimiter(lc LimiterConfig) Option {
	return func(c *Config) { c.Node.Limiter = &lc }
}

// WithFaultPlan arms a deterministic fault-injection schedule; fault times
// are relative to creation. With NewCluster the plan is cluster-level and
// may include node-granularity kinds (FaultNodeCrash, FaultNodeDrain,
// FaultUplinkWithdraw). See FaultPlan.
func WithFaultPlan(p *FaultPlan) Option {
	return func(c *Config) { c.Node.Faults = p }
}

// WithNodes sets the deployment width to n gateway servers. New accepts
// only n ≤ 1; wider deployments are built with NewCluster.
func WithNodes(n int) Option {
	return func(c *Config) { c.Nodes = n }
}

// WithShards sets how many workers advance a NewCluster deployment's
// members — each on its own engine — at every epoch barrier, so a run
// uses up to n cores: 0 (the default) auto-sizes to min(GOMAXPROCS,
// nodes), 1 advances every member on the calling goroutine. The worker
// count is a pure execution strategy — Outcome reports and metrics
// exports are byte-identical at any value.
func WithShards(n int) Option {
	return func(c *Config) { c.Shards = n }
}

// WithSnapshotEvery enables the virtual-time telemetry timeline on a
// NewCluster deployment: every d of virtual time the cluster-level series
// (availability, eligible members, per-tick switch-plane counter deltas)
// are sampled into Cluster.Timeline(). Sampling rides
// RunFor's control clock — tick boundaries are epoch barriers under the
// sharded engine — so the recorded series are byte-identical at any shard
// count and burst size, and the packet hot path is untouched. d = 0 (the
// default) disables sampling.
func WithSnapshotEvery(d Duration) Option {
	return func(c *Config) { c.SnapshotEvery = d }
}

// WithFlowBackend selects the node-level flow-table backend steering
// Node.Ingress (and cluster member ingress) across pods: "session" keeps a
// per-flow session table, "othello" is the Concury-style stateless
// minimal-perfect-hash map with zero-disruption pool updates. Empty (the
// default) keeps the legacy first-pod path.
func WithFlowBackend(name string) Option {
	return func(c *Config) { c.Node.FlowBackend = name }
}

// WithBurst sets the dispatch batch size: up to n same-instant injections
// share one NIC arrival event. n changes how many events a run executes,
// never what it reports; n <= 1 (the default) is a burst of one.
func WithBurst(n int) Option {
	return func(c *Config) { c.Node.Burst = n }
}

// WithSpec attaches a desired-state block to a NewCluster deployment: a
// Reconciler is built from spec.ClusterSpec() and spec.Config(), armed on
// the cluster engine, and registered as the cluster's controller —
// retrieve it with Cluster.Controller().(*Reconciler). The spec must
// cover every member of the initial fleet (WithNodes). Load a spec from
// YAML with LoadSpec / LoadSpecFile, or fill a ReconcileSpec directly.
func WithSpec(spec *ReconcileSpec) Option {
	return func(c *Config) { c.Spec = spec }
}

func resolve(opts []Option) Config {
	var cfg Config
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg
}

// New creates a single Albatross server simulation from functional options.
func New(opts ...Option) (*Node, error) {
	cfg := resolve(opts)
	if cfg.Nodes > 1 {
		return nil, fmt.Errorf("albatross: New builds one server; use NewCluster for %d nodes: %w",
			cfg.Nodes, errs.BadConfig)
	}
	return core.NewNode(cfg.Node)
}

// NewCluster creates a multi-node deployment: WithNodes(n) servers behind
// consistent-hash ECMP on one shared virtual-time engine, each with a
// modeled BGP uplink. A WithFaultPlan plan is armed at cluster level, so
// it may mix node- and pod-granularity faults.
func NewCluster(opts ...Option) (*Cluster, error) {
	cfg := resolve(opts)
	if cfg.Nodes == 0 {
		cfg.Nodes = 1
	}
	plan := cfg.Node.Faults
	cfg.Node.Faults = nil
	c, err := cluster.New(cluster.Config{
		Nodes:         cfg.Nodes,
		Seed:          cfg.Node.Seed,
		Node:          cfg.Node,
		Faults:        plan,
		Shards:        cfg.Shards,
		SnapshotEvery: cfg.SnapshotEvery,
	})
	if err != nil {
		return nil, err
	}
	if cfg.Spec != nil {
		if _, err := controlplane.NewReconciler(c, cfg.Spec.ClusterSpec(), cfg.Spec.Config()); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Fault-injection types (see internal/faults). A FaultPlan is built with
// its chaining methods and armed via WithFaultPlan (or NodeConfig.Faults);
// faults fire on virtual time, so runs are byte-identical across
// repetitions at a fixed seed. The node's degradation responses — PLB
// spray-mask eviction, tenant redirection to a sibling pod, automatic
// RSS fallback, BGP proxy re-advertisement — are inspected through
// Node.FaultLog, PodRuntime counters, and PLBStats.
type (
	// FaultPlan is an ordered, deterministic fault schedule.
	FaultPlan = faults.Plan
	// FaultSpec is one scheduled fault.
	FaultSpec = faults.Fault
	// FaultKind identifies a fault type.
	FaultKind = faults.Kind
	// FaultEvent is one fired-fault log entry (Node.FaultLog).
	FaultEvent = faults.Event
)

// Fault kinds.
const (
	// FaultCoreStall multiplies one core's service times (sick core).
	FaultCoreStall = faults.KindCoreStall
	// FaultCoreFail takes one core offline; the PLB evicts it from the
	// spray mask and releases its in-flight reorder state.
	FaultCoreFail = faults.KindCoreFail
	// FaultPodCrash kills a pod abruptly; tenants redirect to a sibling
	// until the container restarts.
	FaultPodCrash = faults.KindPodCrash
	// FaultPodDrain is the graceful gray-upgrade drain (zero loss).
	FaultPodDrain = faults.KindPodDrain
	// FaultReorderStress forces HOL blocking / FIFO overflow on one PLB
	// order queue.
	FaultReorderStress = faults.KindReorderStress
	// FaultRxLoss drops packets on one core's RX path.
	FaultRxLoss = faults.KindRxLoss
	// FaultBGPFlap takes the BGP uplink down; BFD detects, the proxy
	// re-advertises.
	FaultBGPFlap = faults.KindBGPFlap
	// FaultNodeDrain gray-upgrades a whole cluster member: administrative
	// route withdrawal first (make-before-break, zero loss), pods drain,
	// rejoin after Duration. Cluster plans only.
	FaultNodeDrain = faults.KindNodeDrain
	// FaultNodeCrash kills a cluster member abruptly; BFD detection bounds
	// the blackhole window, then flows re-ECMP to survivors. Cluster plans
	// only.
	FaultNodeCrash = faults.KindNodeCrash
	// FaultUplinkWithdraw administratively withdraws one member's route
	// without touching its pods. Cluster plans only.
	FaultUplinkWithdraw = faults.KindUplinkWithdraw
)
