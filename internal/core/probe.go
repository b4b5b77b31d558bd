package core

import (
	"albatross/internal/gop"
	"albatross/internal/nicsim"
	"albatross/internal/sim"
	"albatross/internal/workload"
)

// ProbeResult is the per-stage latency breakdown a telemetry probe packet
// collects on its way through the pod — the Zoonet-style proactive
// measurement the paper's pkt_dir handles as an RSS-class special (probes
// must not be PLB-sprayed, §3.2).
type ProbeResult struct {
	// NICIngress is wire-to-dispatch time (basic pipeline + DMA).
	NICIngress sim.Duration
	// QueueWait is RX-queue time before the core started the packet.
	QueueWait sim.Duration
	// Service is the gateway service processing time.
	Service sim.Duration
	// NICEgress is CPU-return-to-wire time.
	NICEgress sim.Duration
	// Total is end-to-end.
	Total sim.Duration
	// Dropped reports a probe discarded by the dataplane.
	Dropped bool
}

// probeState accumulates the stamps while the probe is in flight.
type probeState struct {
	t0         sim.Time
	dispatchAt sim.Time
	startAt    sim.Time
	cpuDoneAt  sim.Time
	done       func(ProbeResult)
}

// InjectProbe sends one telemetry probe through the pod's RSS path and
// invokes done (in virtual time) with the latency breakdown. Probes use
// flow affinity like all stateful specials, so repeated probes of one flow
// measure one core's queue.
func (pr *PodRuntime) InjectProbe(f workload.Flow, done func(ProbeResult)) {
	n := pr.node
	now := n.Engine.Now()
	pr.Rx++

	if n.Limiter != nil {
		if n.Limiter.Process(f.VNI, now) == gop.VerdictDrop {
			pr.NICDrops++
			done(ProbeResult{Dropped: true})
			return
		}
	}
	ctx := &pktCtx{
		flow: f, bytes: 128, t0: now, class: nicsim.ClassRSS,
		probe: &probeState{t0: now, done: done},
	}
	n.Engine.After(n.cfg.NIC.IngressLatency(nicsim.ClassRSS), func() { pr.probeDispatch(ctx) })
}

// probeDispatch admits the probe to its flow's core, behind whatever data
// that core already holds.
func (pr *PodRuntime) probeDispatch(ctx *pktCtx) {
	now := pr.node.Engine.Now()
	ctx.probe.dispatchAt = now
	ctx.queueAt = now
	ctx.cost, ctx.drop = pr.serviceCost(ctx)

	var q int
	if pr.RSS != nil {
		q = pr.RSS.Queue(ctx.flow.Tuple)
	} else {
		q = int(ctx.flow.Tuple.Hash() % uint32(len(pr.Cores)))
	}
	if !pr.Cores[q].Admit(ctx, ctx.cost) {
		pr.QueueDrops++
		ctx.probe.done(ProbeResult{Dropped: true})
		return
	}
	pr.admitted(q)
}

// probeDone completes the probe's CPU service at now. The service start is
// stamped as the finish less the probe's demand, so queue wait and service
// partition the CPU time.
func (pr *PodRuntime) probeDone(ctx *pktCtx, now sim.Time) {
	st := ctx.probe
	st.cpuDoneAt = now
	st.startAt = now.Add(-ctx.cost)
	if ctx.drop {
		pr.ServiceDrop++
		st.done(ProbeResult{Dropped: true})
		return
	}
	pr.queueEgress(ctx, now)
}

// report delivers the breakdown once the probe leaves the NIC at now.
func (st *probeState) report(now sim.Time) {
	st.done(ProbeResult{
		NICIngress: st.dispatchAt.Sub(st.t0),
		QueueWait:  st.startAt.Sub(st.dispatchAt),
		Service:    st.cpuDoneAt.Sub(st.startAt),
		NICEgress:  now.Sub(st.cpuDoneAt),
		Total:      now.Sub(st.t0),
	})
}
