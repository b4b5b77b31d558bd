package core

import (
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

// probeFunc is a probe packet's completion callback (nil on data packets).
type probeFunc func(ProbeResult)

// dropped completes a probe that died on the path.
func (done probeFunc) dropped() {
	if done != nil {
		done(ProbeResult{Dropped: true})
	}
}

// InjectProbe sends one telemetry probe, a 128 B RSS-class packet of flow
// f, through the pod's packet path and invokes done (in virtual time) with
// its latency breakdown, or with Dropped set if the probe dies anywhere on
// the path. Probes keep flow affinity like all RSS-class specials, so
// repeated probes of one flow measure one core's queue.
func (pr *PodRuntime) InjectProbe(f workload.Flow, done func(ProbeResult)) {
	pr.inject(f, 128, done)
}

// probeResult reads a delivered probe's breakdown at egress completion (now)
// from the stamps the path keeps: its injection (t0), its dispatch
// (queueAt), its service demand and its egress entry. The service start is
// the CPU finish — the egress entry, as RSS-class packets pass reorder
// untouched — less the demand, so queue wait and service partition the CPU
// time.
func (ctx *pktCtx) probeResult(now sim.Time) ProbeResult {
	cpuDoneAt := ctx.enterAt
	return ProbeResult{
		NICIngress: ctx.queueAt.Sub(ctx.t0),
		QueueWait:  cpuDoneAt.Add(-ctx.cost).Sub(ctx.queueAt),
		Service:    ctx.cost,
		NICEgress:  now.Sub(cpuDoneAt),
		Total:      now.Sub(ctx.t0),
	}
}
