package core

import (
	"fmt"

	"albatross/internal/bgp"
	"albatross/internal/errs"
	"albatross/internal/faults"
	"albatross/internal/pod"
	"albatross/internal/sim"
)

// This file implements the node's side of the fault-injection contract
// (faults.Target: InjectFault applies a pod-level kind through its Inject*
// method), the graceful-degradation responses, and the pod lifecycle.
//
// Pod lifecycle state machine:
//
//	          InjectPodCrash(graceful=false)
//	  Active ─────────────────────────────────▶ Crashed
//	    │  ▲                                      │
//	    │  └───────── restart (Duration) ─────────┘
//	    │
//	    │     InjectPodCrash(graceful=true)
//	    └────────────────────────────────────▶ Draining ──▶ Active
//	                                                (upgrade done)
//
// While Draining or Crashed, Inject redirects the pod's tenants to a
// sibling pod (the first other Active pod) or counts CrashDrops when none
// exists. The graceful crash is the one way a pod leaves service: its
// in-flight packets complete in virtual time, never inside an API call.

// podState is a PodRuntime's lifecycle state.
type podState uint8

const (
	podActive   podState = iota // processing traffic (zero value)
	podDraining                 // gray upgrade: redirecting, in-flight draining
	podCrashed                  // abrupt crash: awaiting restart
)

func (s podState) String() string {
	switch s {
	case podActive:
		return "active"
	case podDraining:
		return "draining"
	case podCrashed:
		return "crashed"
	default:
		return "invalid"
	}
}

// State returns the pod's lifecycle state name.
func (pr *PodRuntime) State() string { return pr.state.String() }

// InjectFault applies a pod-level fault through the Inject* method of its
// kind. A node-level kind needs a cluster and is rejected. Implements
// faults.Target.
func (n *Node) InjectFault(f faults.Fault) error {
	switch f.Kind {
	case faults.KindCoreStall:
		return n.InjectCoreStall(f.Pod, f.Core, f.Factor, f.Duration)
	case faults.KindCoreFail:
		return n.InjectCoreFail(f.Pod, f.Core, f.Duration)
	case faults.KindPodCrash, faults.KindPodDrain:
		return n.InjectPodCrash(f.Pod, f.Kind == faults.KindPodDrain, f.Duration)
	case faults.KindReorderStress:
		return n.InjectReorderStress(f.Pod, f.Queue, f.Duration, f.HoldHeads, f.DepthClamp)
	case faults.KindRxLoss:
		return n.InjectRxLoss(f.Pod, f.Core, f.Factor, f.Duration)
	case faults.KindBGPFlap:
		return n.InjectBGPFlap(f.Duration)
	}
	return fmt.Errorf("core: %v is not a pod-level fault: %w", f.Kind, errs.BadConfig)
}

// podAt resolves a fault plan's pod index.
func (n *Node) podAt(i int) (*PodRuntime, error) {
	if i < 0 || i >= len(n.pods) {
		return nil, fmt.Errorf("core: pod index %d out of range [0,%d): %w", i, len(n.pods), errs.BadConfig)
	}
	return n.pods[i], nil
}

// siblingOf returns the first other Active pod, the redirect target for a
// crashed or draining pod's tenants.
func (n *Node) siblingOf(pr *PodRuntime) *PodRuntime {
	for _, other := range n.pods {
		if other != pr && other.state == podActive {
			return other
		}
	}
	return nil
}

// onLost reclaims a packet context discarded by a core failure or crash:
// the loss is charged as FaultLost to the stage that held the packet, a
// split payload is released and the context returns to the pool. The
// packet's reorder FIFO entry (if any) is handled separately by
// PLB.EvictCore/Flush.
func (pr *PodRuntime) onLost(item any) {
	ctx, ok := item.(*pktCtx)
	if !ok || ctx == nil {
		return
	}
	if ctx.split {
		pr.payload.Take(ctx.payID)
	}
	pr.pipe.drop(ctx, pr.node.Engine.Now(), &pr.FaultLost)
	pr.putCtx(ctx)
}

// rxLossHit reports whether an injected RX-loss window eats the packet
// dispatched to core.
func (pr *PodRuntime) rxLossHit(core int) bool {
	if pr.rxLossUntil == nil || pr.node.Engine.Now() >= pr.rxLossUntil[core] {
		return false
	}
	return pr.rng.Float64() < pr.rxLossProb[core]
}

// InjectCoreStall makes pod/core process factor× slower for d (the sick
// core's service-time blowup).
func (n *Node) InjectCoreStall(podIdx, core int, factor float64, d sim.Duration) error {
	pr, err := n.podAt(podIdx)
	if err != nil {
		return err
	}
	if core < 0 || core >= len(pr.Cores) {
		return fmt.Errorf("core: core index %d out of range [0,%d): %w", core, len(pr.Cores), errs.BadConfig)
	}
	if factor <= 0 || d <= 0 {
		return fmt.Errorf("core: stall needs positive factor and duration: %w", errs.BadConfig)
	}
	c := pr.Cores[core]
	c.SetSlowFactor(factor)
	pr.refresh(core)
	n.Engine.After(d, func() {
		// A later overlapping stall with a different factor wins.
		if c.SlowFactor() == factor {
			c.SetSlowFactor(1)
			pr.refresh(core)
		}
	})
	return nil
}

// InjectCoreFail takes pod/core offline, losing its queued and in-service
// packets (bounded by RX queue depth + 1) and immediately evicting it from
// the PLB spray mask so its in-flight reorder entries release without
// timeout storms. The core recovers and rejoins the mask after d (d <= 0:
// permanent).
func (n *Node) InjectCoreFail(podIdx, core int, d sim.Duration) error {
	pr, err := n.podAt(podIdx)
	if err != nil {
		return err
	}
	if core < 0 || core >= len(pr.Cores) {
		return fmt.Errorf("core: core index %d out of range [0,%d): %w", core, len(pr.Cores), errs.BadConfig)
	}
	c := pr.Cores[core]
	if c.Failed() {
		return nil
	}
	pr.failCores(core, core+1)
	if pr.PLB != nil {
		pr.PLB.EvictCore(core)
	}
	if d > 0 {
		n.Engine.After(d, func() {
			c.Recover()
			if pr.PLB != nil {
				pr.PLB.RestoreCore(core)
			}
		})
	}
	return nil
}

// failCores takes cores [lo, hi) offline at the current instant; onLost
// counts every packet they held, queued or in service, as fault-lost.
// Already-failed cores hold nothing and are skipped by Fail.
func (pr *PodRuntime) failCores(lo, hi int) {
	for i := lo; i < hi; i++ {
		pr.Cores[i].Fail(pr.onLost)
		pr.refresh(i)
	}
}

// InjectPodCrash takes a pod down. graceful=false is the abrupt crash: all
// cores fail (in-flight packets lost), reorder state flushes, and tenants
// redirect to a sibling pod until the container restarts restartAfter
// later (default pod.StartupTime). graceful=true is the gray-upgrade
// drain: tenants redirect immediately, in-flight packets complete
// normally (zero loss), and the replacement takes over after restartAfter.
func (n *Node) InjectPodCrash(podIdx int, graceful bool, restartAfter sim.Duration) error {
	pr, err := n.podAt(podIdx)
	if err != nil {
		return err
	}
	if pr.state != podActive {
		return fmt.Errorf("core: pod %q is %v, not active: %w", pr.Pod.Spec.Name, pr.state, errs.BadState)
	}
	if restartAfter <= 0 {
		restartAfter = pod.StartupTime
	}
	pr.redirect = n.siblingOf(pr)
	if graceful {
		pr.state = podDraining
	} else {
		pr.state = podCrashed
		pr.failCores(0, len(pr.Cores))
		if pr.PLB != nil {
			pr.PLB.Flush(pr.onLost)
		}
	}
	n.Engine.After(restartAfter, pr.completeRestart)
	n.refreshBackendPool()
	return nil
}

// completeRestart returns a crashed or draining pod to Active.
func (pr *PodRuntime) completeRestart() {
	if pr.state != podCrashed && pr.state != podDraining {
		return
	}
	for i, c := range pr.Cores {
		c.Recover()
		if pr.PLB != nil {
			pr.PLB.RestoreCore(i)
		}
	}
	pr.state = podActive
	pr.redirect = nil
	pr.Restarts++
	pr.node.refreshBackendPool()
}

// InjectReorderStress stresses one of the pod's PLB order queues for d:
// holdHeads forces every FIFO head to wait out the reorder timeout
// (forced HOL / timeout storm); depthClamp shrinks the FIFO's effective
// capacity (overflow drops).
func (n *Node) InjectReorderStress(podIdx, queue int, d sim.Duration, holdHeads bool, depthClamp int) error {
	pr, err := n.podAt(podIdx)
	if err != nil {
		return err
	}
	if pr.PLB == nil {
		return fmt.Errorf("core: pod %q has no PLB engine: %w", pr.Pod.Spec.Name, errs.BadState)
	}
	if err := pr.PLB.StressQueue(queue, d, holdHeads, depthClamp); err != nil {
		return err
	}
	return nil
}

// InjectRxLoss drops packets dispatched to pod/core with probability prob
// until d elapses. The PLB FIFO entries of lost packets stay behind and
// release only by timeout — the degenerate HOL case the reorder engine's
// 100µs bound exists for.
func (n *Node) InjectRxLoss(podIdx, core int, prob float64, d sim.Duration) error {
	pr, err := n.podAt(podIdx)
	if err != nil {
		return err
	}
	if core < 0 || core >= len(pr.Cores) {
		return fmt.Errorf("core: core index %d out of range [0,%d): %w", core, len(pr.Cores), errs.BadConfig)
	}
	if prob <= 0 || prob > 1 || d <= 0 {
		return fmt.Errorf("core: rx loss needs prob in (0,1] and positive duration: %w", errs.BadConfig)
	}
	if pr.rxLossUntil == nil {
		pr.rxLossUntil = make([]sim.Time, len(pr.Cores))
		pr.rxLossProb = make([]float64, len(pr.Cores))
	}
	if until := n.Engine.Now().Add(d); until > pr.rxLossUntil[core] {
		pr.rxLossUntil[core] = until
	}
	pr.rxLossProb[core] = prob
	return nil
}

// InjectBGPFlap takes the node's BGP uplink down for d. The uplink model
// is armed on first use.
func (n *Node) InjectBGPFlap(d sim.Duration) error {
	if d <= 0 {
		return fmt.Errorf("core: flap needs a positive duration: %w", errs.BadConfig)
	}
	n.EnableUplink().InjectFlap(d)
	return nil
}

// EnableUplink arms the node's modeled BGP uplink session (BFD timing:
// 50ms probes, down after three lost, 1s re-establishment) and returns it.
// While the link is down or the route withdrawn, the node blackholes its
// traffic. Calling it again returns the armed session.
func (n *Node) EnableUplink() *bgp.SimSession {
	if n.uplink == nil {
		n.uplink = bgp.NewSimSession(n.Engine)
	}
	return n.uplink
}

// Uplink returns the node's BGP uplink model (nil until enabled).
func (n *Node) Uplink() *bgp.SimSession { return n.uplink }

// The reorder-loss watchdog's window and the share of a window's
// dispatches that timeout releases must reach to trip it.
const (
	autoFallbackEvery = 1 * sim.Millisecond
	autoFallbackFrac  = 0.05
)

// EnableAutoFallback arms the reorder-loss watchdog: every
// autoFallbackEvery it samples the pod's PLB counters and, when timeout
// releases (reorder loss) reach autoFallbackFrac of that window's
// dispatches, triggers FallbackToRSS — the paper's last-resort HOL
// remediation, now automatic. The watchdog disarms after firing or when
// the pod leaves PLB mode.
func (pr *PodRuntime) EnableAutoFallback() {
	if pr.PLB == nil {
		return
	}
	s := pr.PLB.Stats()
	lastTO, lastDisp := s.TimeoutReleases, s.Dispatched
	var tick func()
	tick = func() {
		if pr.mode != pod.ModePLB {
			return
		}
		s := pr.PLB.Stats()
		dTO := s.TimeoutReleases - lastTO
		dDisp := s.Dispatched - lastDisp
		lastTO, lastDisp = s.TimeoutReleases, s.Dispatched
		// Require a handful of releases so an idle pod never trips.
		if dTO >= 8 && float64(dTO) >= autoFallbackFrac*float64(dDisp+dTO) {
			pr.FallbackToRSS()
			return
		}
		pr.node.Engine.After(autoFallbackEvery, tick)
	}
	pr.node.Engine.After(autoFallbackEvery, tick)
}
