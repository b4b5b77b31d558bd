package core

import (
	"errors"
	"fmt"

	"albatross/internal/bgp"
	"albatross/internal/errs"
	"albatross/internal/faults"
	"albatross/internal/pod"
	"albatross/internal/sim"
)

// This file implements the node's side of the fault-injection contract
// (faults.Target: InjectFault applies a pod-level kind through its Inject*
// method), the graceful-degradation responses, and the pod/node lifecycle.
//
// Pod lifecycle state machine:
//
//	          InjectPodCrash(graceful=false)
//	  Active ─────────────────────────────────▶ Crashed
//	    │  ▲                                      │
//	    │  └───────── restart (Duration) ─────────┘
//	    │
//	    │     InjectPodCrash(graceful=true)
//	    ├────────────────────────────────────▶ Draining ──▶ Active
//	    │                                         │   (upgrade done)
//	    └──────────────── Stop() ◀────────────────┘
//	                        │
//	                        ▼
//	                     Stopped (terminal; server capacity released)
//
// While Draining or Crashed, Inject redirects the pod's tenants to a
// sibling pod (the first other Active pod) or counts CrashDrops when none
// exists. Stop is the operator path: it drains in virtual time, discards
// stragglers, and frees cores/VFs/reorder queues so AddPod can reuse them.
// Stopped is terminal — a stopped pod never processes traffic again.

// podState is a PodRuntime's lifecycle state.
type podState uint8

const (
	podActive   podState = iota // processing traffic (zero value)
	podDraining                 // gray upgrade or Stop: redirecting, in-flight draining
	podCrashed                  // abrupt crash: awaiting restart
	podStopped                  // terminal: resources released
)

func (s podState) String() string {
	switch s {
	case podActive:
		return "active"
	case podDraining:
		return "draining"
	case podCrashed:
		return "crashed"
	case podStopped:
		return "stopped"
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
// the loss is charged to the stage that held the packet, a split payload is
// released and the context returns to the pool. The packet's reorder FIFO
// entry (if any) is handled separately by PLB.EvictCore/Flush.
func (pr *PodRuntime) onLost(item any) {
	ctx, ok := item.(*pktCtx)
	if !ok || ctx == nil {
		return
	}
	if ctx.split {
		pr.payload.Take(ctx.payID)
	}
	pr.pipe.dropHere(ctx, pr.node.Engine.Now())
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

// noteFaultWindow records a fault activation window [now, now+d) on the
// pod's flight recorder so the TriggerFaultWindow commit trigger can match
// journeys that flew through it. d <= 0 (permanent faults) records an
// effectively unbounded window.
func (pr *PodRuntime) noteFaultWindow(d sim.Duration) {
	now := pr.node.Engine.Now()
	if d <= 0 {
		d = sim.Duration(1) << 60
	}
	pr.flight.noteFaultWindow(now, now.Add(d))
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
	pr.noteFaultWindow(d)
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
	pr.noteFaultWindow(d)
	pr.failCores(core, core+1)
	if pr.PLB != nil {
		pr.PLB.EvictCore(core)
	}
	if d > 0 {
		n.Engine.After(d, func() {
			if pr.state == podStopped {
				return
			}
			c.Recover()
			if pr.PLB != nil {
				pr.PLB.RestoreCore(core)
			}
		})
	}
	return nil
}

// failCores takes cores [lo, hi) offline at the current instant and counts
// every packet they held, queued or in service, as fault-lost. Already-failed
// cores hold nothing and are skipped by Fail.
func (pr *PodRuntime) failCores(lo, hi int) {
	for i := lo; i < hi; i++ {
		pr.FaultLost += uint64(pr.Cores[i].Fail(pr.onLost))
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
	pr.noteFaultWindow(restartAfter)
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
	pr.noteFaultWindow(d)
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
	pr.noteFaultWindow(d)
	return nil
}

// InjectBGPFlap takes the node's BGP uplink down for d. The uplink model
// (with proxy re-advertisement) is armed on first use.
func (n *Node) InjectBGPFlap(d sim.Duration) error {
	if d <= 0 {
		return fmt.Errorf("core: flap needs a positive duration: %w", errs.BadConfig)
	}
	if n.uplink == nil {
		if _, err := n.EnableUplink(true); err != nil {
			return err
		}
	}
	n.uplink.InjectFlap(d)
	// The outage is node-scoped: every pod's journeys through it are
	// fault-window candidates.
	for _, pr := range n.pods {
		pr.noteFaultWindow(d)
	}
	return nil
}

// EnableUplink arms the node's modeled BGP uplink session (default BFD
// timing: 50ms probes, DetectMult 3, 1s re-establishment). withProxy
// enables the sibling-node proxy re-advertisement: after BFD withdraws the
// route, traffic detours via the proxy instead of blackholing. Calling it
// again only updates the proxy setting.
func (n *Node) EnableUplink(withProxy bool) (*bgp.SimSession, error) {
	n.uplinkProxy = withProxy
	if n.uplink == nil {
		s, err := bgp.NewSimSession(n.Engine, bgp.SimSessionConfig{})
		if err != nil {
			return nil, err
		}
		n.uplink = s
	}
	return n.uplink, nil
}

// Uplink returns the node's BGP uplink model (nil until enabled).
func (n *Node) Uplink() *bgp.SimSession { return n.uplink }

// FaultLog returns the fired-fault log of the node's injector (nil when no
// fault plan was armed).
func (n *Node) FaultLog() []faults.Event {
	if n.injector == nil {
		return nil
	}
	return n.injector.Log()
}

// EnableAutoFallback arms the reorder-loss watchdog: every interval it
// samples the pod's PLB counters and, when timeout releases (reorder loss)
// reach frac of that window's dispatches, triggers FallbackToRSS — the
// paper's last-resort HOL remediation, now automatic. Zero arguments take
// the defaults (1ms window, 5%). The watchdog disarms after firing or when
// the pod leaves PLB mode.
func (pr *PodRuntime) EnableAutoFallback(interval sim.Duration, frac float64) {
	if pr.PLB == nil {
		return
	}
	if interval <= 0 {
		interval = 1 * sim.Millisecond
	}
	if frac <= 0 {
		frac = 0.05
	}
	s := pr.PLB.Stats()
	lastTO, lastDisp := s.TimeoutReleases, s.Dispatched
	var tick func()
	tick = func() {
		if pr.mode != pod.ModePLB || pr.state == podStopped {
			return
		}
		s := pr.PLB.Stats()
		dTO := s.TimeoutReleases - lastTO
		dDisp := s.Dispatched - lastDisp
		lastTO, lastDisp = s.TimeoutReleases, s.Dispatched
		// Require a handful of releases so an idle pod never trips.
		if dTO >= 8 && float64(dTO) >= frac*float64(dDisp+dTO) {
			_ = pr.FallbackToRSS()
			return
		}
		pr.node.Engine.After(interval, tick)
	}
	pr.node.Engine.After(interval, tick)
}

// stopDrainCap bounds how much virtual time Stop will spend draining
// before discarding stragglers.
const stopDrainCap = 100 * sim.Millisecond

// Stop drains the pod and releases its server resources (cores, VFs,
// reorder queues), after which AddPod can reuse the freed capacity. It
// advances virtual time until in-flight packets complete (capped at
// 100ms), then discards any stragglers. Stop is terminal: the pod never
// processes traffic again, and a second Stop returns ErrClosed. The
// runtime stays in Node.Pods() (stopped) so pod indices remain stable.
func (pr *PodRuntime) Stop() error {
	if pr.state == podStopped {
		return fmt.Errorf("core: pod %q already stopped: %w", pr.Pod.Spec.Name, errs.Closed)
	}
	n := pr.node
	pr.state = podDraining
	pr.redirect = n.siblingOf(pr)
	n.refreshBackendPool()
	deadline := n.Engine.Now().Add(stopDrainCap)
	for pr.live > 0 && n.Engine.Now() < deadline {
		n.Engine.RunFor(100 * sim.Microsecond)
	}
	pr.failCores(0, len(pr.Cores)) // discard stragglers
	if pr.PLB != nil {
		pr.PLB.Flush(pr.onLost)
	}
	pr.state = podStopped
	pr.redirect = nil
	return n.Server.Remove(pr.Pod)
}

// Close stops every pod (draining each) and closes the node: AddPod and a
// second Close return ErrClosed. The engine remains usable for reading
// state, but no new work should be scheduled.
func (n *Node) Close() error {
	if n.closed {
		return fmt.Errorf("core: node: %w", errs.Closed)
	}
	n.closed = true
	var errAll error
	for _, pr := range n.pods {
		if pr.state != podStopped {
			errAll = errors.Join(errAll, pr.Stop())
		}
	}
	return errAll
}
