// Package albatross is a reproduction of "Albatross: A Containerized Cloud
// Gateway Platform with FPGA-accelerated Packet-level Load Balancing"
// (SIGCOMM 2025): a cloud gateway built from x86 CPUs and FPGA SmartNICs,
// whose NIC pipeline sprays packets across CPU cores (packet-level load
// balancing, PLB), restores per-flow order in hardware reorder queues,
// and rate-limits overloading tenants with a two-stage meter hierarchy.
//
// This package is the public facade. The building blocks live in
// internal/ and are re-exported here by alias:
//
//   - Node / PodRuntime: a simulated Albatross server with GW pods,
//     driven by a deterministic virtual-time engine.
//   - PLB: the plb_dispatch / plb_reorder engine (FIFO, BUF, BITMAP,
//     legal and reorder checks, 100µs timeout, drop-flag releases).
//   - Limiter: the two-stage tenant overload rate limiter (color_table,
//     meter_table, pre_check/pre_meter with sampling detection).
//   - Speaker / Proxy: a real BGP-4 subset over net.Conn plus the BGP
//     proxy that collapses per-pod eBGP sessions into one per server.
//   - Experiments: drivers that regenerate every table and figure of the
//     paper's evaluation.
//
// Quick start:
//
//	node, _ := albatross.New(albatross.WithSeed(1))
//	flows := albatross.GenerateFlows(500000, 100000, 1)
//	pod, _ := node.AddPod(albatross.PodConfig{
//		Spec:  albatross.PodSpec{Name: "gw0", Service: albatross.VPCInternet, DataCores: 44, CtrlCores: 2},
//		Flows: albatross.ServiceFlows(flows, 0),
//	})
//	src, _ := albatross.NewSource(
//		albatross.WithFlows(flows),
//		albatross.WithRate(albatross.ConstantRate(5e6)),
//		albatross.WithSink(pod.Sink()),
//	)
//	src.Start(node.Engine)
//	node.RunFor(albatross.Second)
//	fmt.Println(pod.Tx, pod.Latency.Quantile(0.99))
package albatross

import (
	"net"

	"albatross/internal/bgp"
	"albatross/internal/cluster"
	"albatross/internal/core"
	"albatross/internal/eval"
	"albatross/internal/gop"
	"albatross/internal/metrics"
	"albatross/internal/packet"
	"albatross/internal/plb"
	"albatross/internal/pod"
	"albatross/internal/service"
	"albatross/internal/sim"
	"albatross/internal/stats"
	"albatross/internal/workload"
)

// Simulation engine types.
type (
	// Engine is the deterministic virtual-time event engine.
	Engine = sim.Engine
	// Time is a virtual timestamp in nanoseconds.
	Time = sim.Time
	// Duration is a virtual time span in nanoseconds.
	Duration = sim.Duration
)

// Virtual time units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Node types.
type (
	// Node is one Albatross server: NIC pipeline + pods + cores.
	Node = core.Node
	// NodeConfig parameterizes a server.
	NodeConfig = core.NodeConfig
	// PodConfig describes a gateway pod deployment.
	PodConfig = core.PodConfig
	// PodRuntime is a deployed pod's dataplane.
	PodRuntime = core.PodRuntime
	// PipelineStage is one per-stage conservation counter of a pod's staged
	// ingress chain (PodRuntime.Stages).
	PipelineStage = stats.StageCounter
	// ProbeResult is a telemetry probe's per-stage latency breakdown.
	ProbeResult = core.ProbeResult
	// PodSpec names a pod and sizes its cores.
	PodSpec = pod.Spec
	// ServerConfig describes the server hardware.
	ServerConfig = pod.ServerConfig
)

// Observability types (see DESIGN.md §9).
type (
	// Histogram is a log-linear latency histogram (pod latency, per-stage
	// residency).
	Histogram = stats.Histogram
	// MetricsRegistry holds named counter/gauge/histogram series
	// (Node.RegisterMetrics, Cluster.RegisterMetrics).
	MetricsRegistry = metrics.Registry
	// MetricsSnapshot is a registry frozen at one instant; exports as
	// Prometheus text exposition or JSON, byte-identically for a fixed seed.
	MetricsSnapshot = metrics.Snapshot
	// MetricLabel is one name=value pair on a metric series.
	MetricLabel = metrics.Label
	// FlightRecorder samples packet journeys per pod (PodRuntime.Flight).
	FlightRecorder = core.FlightRecorder
	// PacketJourney is one sampled packet's recorded stage timeline.
	PacketJourney = core.Journey
	// JourneyStep is one stage visit of a traced packet.
	JourneyStep = core.TraceStep
)

// NewMetricsRegistry creates an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.New() }

// MetricL builds a metric label.
func MetricL(key, value string) MetricLabel { return metrics.L(key, value) }

// StageNames returns the pipeline's stage labels in chain order, aligned
// with PodRuntime.Stages and PodRuntime.StageResidency.
func StageNames() []string { return core.StageNames() }

// Cluster types.
type (
	// Cluster is a multi-node deployment: N servers behind consistent-hash
	// ECMP, each with a modeled BGP uplink, advancing under one epoch
	// protocol (a control engine plus one engine per member, advanced by
	// k ≥ 1 workers).
	Cluster = cluster.Cluster
	// ClusterConfig parameterizes a cluster (NewCluster builds it from
	// options; the struct form is cluster.New's input).
	ClusterConfig = cluster.Config
	// ClusterMember is one gateway server of a cluster.
	ClusterMember = cluster.Member
)

// Service types.
type (
	// ServiceType selects a gateway service (VPC-VPC, VPC-Internet, ...).
	ServiceType = service.Type
	// ServiceFlow installs one tenant flow into a pod's tables.
	ServiceFlow = service.Flow
)

// IPv4Addr is a dotted-quad address (BGPPrefix.Addr).
type IPv4Addr = packet.IPv4Addr

// Gateway services (paper Tab. 2).
const (
	VPCVPC          = service.VPCVPC
	VPCInternet     = service.VPCInternet
	VPCIDC          = service.VPCIDC
	VPCCloudService = service.VPCCloudService
)

// Load-balancing modes.
const (
	// ModePLB sprays packets across cores with FPGA reordering.
	ModePLB = pod.ModePLB
	// ModeRSS hashes flows to cores (the 1st-gen baseline).
	ModeRSS = pod.ModeRSS
)

// Workload types.
type (
	// Flow is one tenant flow.
	Flow = workload.Flow
	// Source is a Poisson arrival process over a flow set.
	Source = workload.Source
	// RateFn is a time-varying offered rate.
	RateFn = workload.RateFn
)

// PLB types.
type (
	// PLB is a pod's packet-level load balancing unit.
	PLB = plb.PLB
	// PLBConfig parameterizes dispatch/reorder.
	PLBConfig = plb.Config
	// PLBStats are the PLB counters (drops, HOL events, disorder).
	PLBStats = plb.Stats
)

// Overload protection types.
type (
	// Limiter is the two-stage tenant overload rate limiter.
	Limiter = gop.Limiter
	// LimiterConfig parameterizes it.
	LimiterConfig = gop.Config
)

// BGP types.
type (
	// BGPSpeaker is one endpoint of a BGP-4 session over a net.Conn.
	BGPSpeaker = bgp.Speaker
	// BGPSpeakerConfig configures a speaker.
	BGPSpeakerConfig = bgp.SpeakerConfig
	// BGPProxy aggregates pod iBGP sessions into one eBGP upstream.
	BGPProxy = bgp.Proxy
	// BGPPrefix is an IPv4 NLRI prefix.
	BGPPrefix = bgp.Prefix
	// UplinkSession is the deterministic virtual-time model of a
	// gateway↔switch BGP session guarded by BFD (fault-injection runs).
	UplinkSession = bgp.SimSession
	// UplinkConfig parameterizes it.
	UplinkConfig = bgp.SimSessionConfig
	// UplinkStats are its counters (flaps, detections, downtime).
	UplinkStats = bgp.SimSessionStats
)

// Experiment types.
type (
	// Experiment regenerates one paper table or figure.
	Experiment = eval.Experiment
	// ExperimentConfig controls scale and seeding.
	ExperimentConfig = eval.Config
	// ExperimentResult holds the regenerated table and shape checks.
	ExperimentResult = eval.Result
)

// NewNode creates an Albatross server simulation.
func NewNode(cfg NodeConfig) (*Node, error) { return core.NewNode(cfg) }

// NewSpeaker wraps a connected net.Conn as a BGP session endpoint.
func NewSpeaker(conn net.Conn, cfg BGPSpeakerConfig) *BGPSpeaker {
	return bgp.NewSpeaker(conn, cfg)
}

// NewProxy creates a BGP proxy with its eBGP upstream on conn.
func NewProxy(upstream net.Conn, localAS, switchAS uint16, routerID uint32) (*BGPProxy, error) {
	return bgp.NewProxy(upstream, localAS, switchAS, routerID)
}

// GenerateFlows deterministically creates n flows across the given number
// of tenants.
func GenerateFlows(n, tenants int, seed uint64) []Flow {
	return workload.GenerateFlows(n, tenants, seed)
}

// ServiceFlows converts workload flows to the pod-table install format.
func ServiceFlows(flows []Flow, deniedFrac float64) []ServiceFlow {
	return workload.ServiceFlows(flows, deniedFrac)
}

// ConstantRate offers a fixed packet rate.
func ConstantRate(pps float64) RateFn { return workload.ConstantRate(pps) }

// StepRate switches from one rate to another at a virtual time.
func StepRate(before, after float64, at Time) RateFn {
	return workload.StepRate(before, after, at)
}

// Microburst overlays periodic bursts on a base rate.
func Microburst(base RateFn, factor float64, period, burstLen Duration) RateFn {
	return workload.Microburst(base, factor, period, burstLen)
}

// DefaultLimiterConfig returns the paper's production two-stage limiter.
func DefaultLimiterConfig() LimiterConfig { return gop.DefaultConfig() }

// Experiments lists every registered paper-reproduction experiment.
func Experiments() []Experiment { return eval.Experiments() }

// FindExperiment returns the experiment with the given ID (e.g. "fig8").
func FindExperiment(id string) (Experiment, bool) { return eval.Find(id) }
