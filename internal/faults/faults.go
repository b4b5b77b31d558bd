// Package faults is Albatross's deterministic fault-injection subsystem:
// a declarative fault Plan scheduled on the virtual-time engine against a
// Target, whose one method InjectFault applies each fault as it fires: a
// node applies the pod-level kinds, a cluster also the node-level ones.
// Faults model the failure scenarios the paper's
// containerization story is built around — pod-level crashes and gray
// upgrades (§ "Containerized gateways"), sick cores, reorder-engine stress,
// RX DMA loss, and BGP uplink flaps with BFD detection (§4.3).
//
// Everything runs on virtual time: a Plan fired against the same node
// config and seed produces byte-identical traces across repetitions, the
// same contract the eval harness established for healthy runs. The package
// deliberately does not import internal/core; the node and the cluster
// implement Target, so the dependency arrows point at faults.
package faults

import (
	"fmt"

	"albatross/internal/errs"
	"albatross/internal/sim"
)

// Kind identifies a fault type.
type Kind uint8

// Fault kinds.
const (
	// KindCoreStall multiplies one core's service times by Factor for
	// Duration (a sick core: thermal throttling, a noisy neighbor, a
	// runaway numa_balancing).
	KindCoreStall Kind = iota
	// KindCoreFail takes one core offline for Duration (or permanently if
	// Duration is 0): its queued and in-service packets are lost, the PLB
	// evicts it from the spray mask and releases its in-flight reorder
	// state.
	KindCoreFail
	// KindPodCrash kills a pod abruptly: all cores fail, reorder state is
	// flushed, and the pod's tenants are redirected to a sibling pod until
	// the pod restarts Duration later (container restart).
	KindPodCrash
	// KindPodDrain is the gray-upgrade path: the pod stops accepting new
	// packets (tenants redirect to a sibling immediately), in-flight
	// packets drain normally, and the replacement pod takes over Duration
	// later. Zero packets are lost.
	KindPodDrain
	// KindReorderStress stresses one PLB order queue for Duration: forced
	// head-of-line blocking (HoldHeads) and/or FIFO depth clamping
	// (DepthClamp) to provoke overflow drops and timeout storms.
	KindReorderStress
	// KindRxLoss drops packets on one core's RX path with probability
	// Factor for Duration (DMA/queue corruption). Lost packets leave their
	// reorder FIFO entries behind — a realistic HOL source.
	KindRxLoss
	// KindBGPFlap takes the node's BGP uplink down for Duration. BFD
	// detects after DetectMult missed probes; traffic is blackholed during
	// detection, then rides the proxy re-advertisement until the session
	// re-establishes.
	KindBGPFlap
	// KindNodeDrain gray-upgrades a whole node: its route is withdrawn
	// administratively (make-before-break — the cluster re-ECMPs its flows
	// to survivors first, zero loss), its pods drain, and the node rejoins
	// Duration later. Requires a cluster.
	KindNodeDrain
	// KindNodeCrash kills a whole node abruptly: the uplink goes down (BFD
	// detects after the probe window, blackholing in-flight arrivals), every
	// pod crashes, and the cluster re-ECMPs the node's flows to survivors.
	// The node recovers Duration later (0 = never). Requires a cluster.
	KindNodeCrash
	// KindUplinkWithdraw administratively withdraws one node's route for
	// Duration without touching its pods — the operator "drain the uplink"
	// action. Requires a cluster.
	KindUplinkWithdraw
)

// String returns the kind's wire name.
func (k Kind) String() string {
	switch k {
	case KindCoreStall:
		return "core-stall"
	case KindCoreFail:
		return "core-fail"
	case KindPodCrash:
		return "pod-crash"
	case KindPodDrain:
		return "pod-drain"
	case KindReorderStress:
		return "reorder-stress"
	case KindRxLoss:
		return "rx-loss"
	case KindBGPFlap:
		return "bgp-flap"
	case KindNodeDrain:
		return "node-drain"
	case KindNodeCrash:
		return "node-crash"
	case KindUplinkWithdraw:
		return "uplink-withdraw"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Fault is one scheduled fault. Which fields matter depends on Kind.
type Fault struct {
	Kind Kind
	// At is the injection time, relative to when the injector is armed.
	At sim.Duration
	// Duration is the fault length; for KindPodCrash/KindPodDrain it is
	// the restart/upgrade time. 0 means "use the kind's default" where a
	// default exists (pod restart) or "permanent" (core failure).
	Duration sim.Duration
	// Node indexes the target member within a cluster, for node- and
	// pod-level kinds alike. A single node ignores it.
	Node int
	// Pod indexes the target pod (in deployment order).
	Pod int
	// Core indexes the target core within the pod.
	Core int
	// Queue indexes the target PLB order queue.
	Queue int
	// Factor is the stall service-time multiplier (KindCoreStall) or the
	// loss probability (KindRxLoss).
	Factor float64
	// HoldHeads and DepthClamp select the reorder-stress effects.
	HoldHeads  bool
	DepthClamp int
}

// Plan is an ordered fault schedule. The zero value is a valid empty plan;
// the builder methods append and return the plan for chaining.
type Plan struct {
	Faults []Fault
}

// CoreStall schedules a service-time blowup: pod/core runs factor× slower
// from at until at+d.
func (p *Plan) CoreStall(at sim.Duration, pod, core int, factor float64, d sim.Duration) *Plan {
	p.Faults = append(p.Faults, Fault{Kind: KindCoreStall, At: at, Duration: d, Pod: pod, Core: core, Factor: factor})
	return p
}

// CoreFail schedules a core failure at at, recovering after d (0 = never).
func (p *Plan) CoreFail(at sim.Duration, pod, core int, d sim.Duration) *Plan {
	p.Faults = append(p.Faults, Fault{Kind: KindCoreFail, At: at, Duration: d, Pod: pod, Core: core})
	return p
}

// PodCrash schedules an abrupt pod crash at at, restarting after d
// (0 = the container StartupTime default).
func (p *Plan) PodCrash(at sim.Duration, pod int, d sim.Duration) *Plan {
	p.Faults = append(p.Faults, Fault{Kind: KindPodCrash, At: at, Duration: d, Pod: pod})
	return p
}

// BGPFlap schedules a BGP uplink flap of length d at at.
func (p *Plan) BGPFlap(at, d sim.Duration) *Plan {
	p.Faults = append(p.Faults, Fault{Kind: KindBGPFlap, At: at, Duration: d})
	return p
}

// NodeDrain schedules a node-level gray upgrade at at: node leaves the
// ECMP group (make-before-break), drains, and rejoins after d.
func (p *Plan) NodeDrain(at sim.Duration, node int, d sim.Duration) *Plan {
	p.Faults = append(p.Faults, Fault{Kind: KindNodeDrain, At: at, Duration: d, Node: node})
	return p
}

// NodeCrash schedules an abrupt node crash at at, recovering after d
// (0 = never).
func (p *Plan) NodeCrash(at sim.Duration, node int, d sim.Duration) *Plan {
	p.Faults = append(p.Faults, Fault{Kind: KindNodeCrash, At: at, Duration: d, Node: node})
	return p
}

// Validate checks the plan's static shape (indices are checked against the
// live node at fire time, since pods may be added after the plan is built).
func (p *Plan) Validate() error {
	for i, f := range p.Faults {
		if f.At < 0 {
			return fmt.Errorf("faults: fault %d (%v): negative At %v: %w", i, f.Kind, f.At, errs.BadConfig)
		}
		if f.Duration < 0 {
			return fmt.Errorf("faults: fault %d (%v): negative Duration: %w", i, f.Kind, errs.BadConfig)
		}
		if f.Node < 0 || f.Pod < 0 || f.Core < 0 || f.Queue < 0 {
			return fmt.Errorf("faults: fault %d (%v): negative target index: %w", i, f.Kind, errs.BadConfig)
		}
		switch f.Kind {
		case KindCoreStall:
			if f.Factor <= 0 {
				return fmt.Errorf("faults: fault %d: stall factor %g must be positive: %w", i, f.Factor, errs.BadConfig)
			}
			if f.Duration == 0 {
				return fmt.Errorf("faults: fault %d: stall needs a duration: %w", i, errs.BadConfig)
			}
		case KindCoreFail, KindPodCrash, KindPodDrain:
			// Duration 0 is legal (permanent / default restart).
		case KindReorderStress:
			if f.Duration == 0 {
				return fmt.Errorf("faults: fault %d: reorder stress needs a duration: %w", i, errs.BadConfig)
			}
			if !f.HoldHeads && f.DepthClamp <= 0 {
				return fmt.Errorf("faults: fault %d: reorder stress selects no effect: %w", i, errs.BadConfig)
			}
		case KindRxLoss:
			if f.Factor <= 0 || f.Factor > 1 {
				return fmt.Errorf("faults: fault %d: loss probability %g out of (0,1]: %w", i, f.Factor, errs.BadConfig)
			}
			if f.Duration == 0 {
				return fmt.Errorf("faults: fault %d: rx loss needs a duration: %w", i, errs.BadConfig)
			}
		case KindBGPFlap:
			if f.Duration == 0 {
				return fmt.Errorf("faults: fault %d: flap needs a duration: %w", i, errs.BadConfig)
			}
		case KindNodeCrash:
			// Duration 0 is legal (permanent).
		case KindNodeDrain, KindUplinkWithdraw:
			if f.Duration == 0 {
				return fmt.Errorf("faults: fault %d: %v needs a duration: %w", i, f.Kind, errs.BadConfig)
			}
		default:
			return fmt.Errorf("faults: fault %d: unknown kind %d: %w", i, uint8(f.Kind), errs.BadConfig)
		}
	}
	return nil
}

// Target is what an injector drives: internal/core's Node applies the
// pod-level kinds, internal/cluster's Cluster every kind (node-level kinds
// itself, pod-level kinds on member Fault.Node). The indirection keeps this
// package free of a core dependency.
type Target interface {
	InjectFault(Fault) error
}

// Event is one injector log entry, recorded when a fault fires.
type Event struct {
	At    sim.Time // virtual fire time
	Fault Fault
	// Err is non-nil when the target rejected the fault (e.g. the plan
	// named a pod that was never deployed).
	Err error
}

// NodeLevel reports whether k is a node-level fault kind, which only a
// cluster can apply.
func (k Kind) NodeLevel() bool {
	return k == KindNodeDrain || k == KindNodeCrash || k == KindUplinkWithdraw
}

// String renders the event for fault logs; the format is deterministic.
func (e Event) String() string {
	var s string
	if e.Fault.Kind.NodeLevel() {
		s = fmt.Sprintf("t=%v inject %v node=%d", sim.Duration(e.At), e.Fault.Kind, e.Fault.Node)
	} else {
		s = fmt.Sprintf("t=%v inject %v pod=%d core=%d", sim.Duration(e.At), e.Fault.Kind, e.Fault.Pod, e.Fault.Core)
	}
	if e.Fault.Duration > 0 {
		s += fmt.Sprintf(" for %v", e.Fault.Duration)
	}
	if e.Err != nil {
		s += " ERROR: " + e.Err.Error()
	}
	return s
}

// Injector schedules a plan's faults on the engine and hands each to the
// target when it fires.
type Injector struct {
	engine *sim.Engine
	target Target
	events []Event
}

// firing boxes one scheduled fault for the arg-form engine callback.
type firing struct {
	inj   *Injector
	fault Fault
}

// NewInjector validates the plan and arms every fault at now+Fault.At.
// Whether the target can apply a fault's kind is its own check, made when
// the fault fires (and logged as the event's error).
func NewInjector(engine *sim.Engine, target Target, plan *Plan) (*Injector, error) {
	if engine == nil || target == nil {
		return nil, fmt.Errorf("faults: nil engine or target: %w", errs.BadConfig)
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	inj := &Injector{engine: engine, target: target}
	for _, f := range plan.Faults {
		engine.AfterArg(f.At, fireFault, &firing{inj: inj, fault: f})
	}
	return inj, nil
}

func fireFault(arg any) {
	fr := arg.(*firing)
	inj := fr.inj
	err := inj.target.InjectFault(fr.fault)
	inj.events = append(inj.events, Event{At: inj.engine.Now(), Fault: fr.fault, Err: err})
}

// Log returns the fired-fault log in fire order.
func (inj *Injector) Log() []Event { return inj.events }
