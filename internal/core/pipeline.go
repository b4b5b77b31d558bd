package core

import (
	"albatross/internal/gop"
	"albatross/internal/nicsim"
	"albatross/internal/packet"
	"albatross/internal/sim"
	"albatross/internal/stats"
)

// This file is the pod's packet path (classify → GOP → NIC ingress →
// dispatch → CPU → reorder → NIC egress, mirroring Fig. 1). Each stage
// carries a stats.StageCounter and a residency histogram, so per-stage
// conservation (In == Out + Drops once drained) is observable and the
// residencies partition end-to-end latency.
//
// Classify, GOP and dispatch are synchronous and occupy zero virtual time.
// NIC ingress is the burst accumulator (burst.go): same-instant arrivals
// share one NIC-DMA event. The CPU, reorder and egress stages schedule no
// events of their own: cpu.Core computes when each packet finishes, and the
// pod's one timer settles CPU and egress completions at their times
// (burst.go). A packet lost inside a stage is charged to that stage by
// dropHere (see onLost in faultops.go). All per-packet state rides the
// pooled pktCtx, so the path allocates nothing.

// Stage slot indices, in path order.
const (
	stageClassify = iota
	stageGOP
	stageIngress
	stageDispatch
	stageCPU
	stageReorder
	stageEgress
	numStages
)

// stageHistSubBits is the precision of the per-stage residency histograms:
// 64 sub-buckets per magnitude, relative error <= 1/64 (~1.6%), 512 B per
// magnitude row a residency has landed in. Stage residencies span ns to ms,
// so log-linear bucketing fits, and a stage touches a handful of rows.
const stageHistSubBits = 6

// Pipeline is a pod's per-stage conservation counters and residency-time
// histograms.
type Pipeline struct {
	counters [numStages]stats.StageCounter
	// resid[i] holds stage i's residency (enter -> leave virtual time) for
	// every packet that left the stage, by any verdict. Synchronous stages
	// record zero (their modeled FPGA latency rides the NIC stages); the NIC,
	// CPU (queue + service) and reorder stages record the real time, so the
	// histograms partition the pod's end-to-end latency exactly: sum over
	// stages of resid[i].Sum() equals Latency's sum when nothing drops.
	resid [numStages]*stats.Histogram
}

// newPipeline builds the counters and histograms.
func newPipeline() Pipeline {
	var p Pipeline
	for i := range p.counters {
		p.counters[i].Name = stageNames[i]
		p.resid[i] = stats.NewHistogram(stageHistSubBits)
	}
	return p
}

// enter opens stage i for ctx at now.
func (p *Pipeline) enter(ctx *pktCtx, i int, now sim.Time) {
	ctx.stage = int8(i)
	ctx.enterAt = now
	if ctx.trace != nil {
		ctx.trace.enter(int8(i), now)
	}
	p.counters[i].In++
}

// pass completes ctx's synchronous stage: zero residency, verdict next.
func (p *Pipeline) pass(ctx *pktCtx) {
	i := ctx.stage
	p.counters[i].Out++
	p.resid[i].RecordZero()
	if ctx.trace != nil {
		ctx.trace.leave(ctx.enterAt, StepNext)
	}
}

// leave completes ctx's stage at now, recording the time it spent there.
func (p *Pipeline) leave(ctx *pktCtx, now sim.Time) {
	i := ctx.stage
	p.counters[i].Out++
	p.resid[i].Record(int64(now.Sub(ctx.enterAt)))
	if ctx.trace != nil {
		ctx.trace.leave(now, StepNext)
	}
}

// exit completes the path at ctx's stage at now (the priority shortcut and
// the egress completion): the packet finished, it was not dropped.
func (p *Pipeline) exit(ctx *pktCtx, now sim.Time) {
	i := ctx.stage
	p.counters[i].Out++
	p.resid[i].Record(int64(now.Sub(ctx.enterAt)))
	if ctx.trace != nil {
		ctx.trace.leave(now, StepExit)
		ctx.trace.completed = true
	}
}

// dropHere charges a drop to ctx's stage at now, including its residency up
// to the moment of death. The trace (if any) commits when the context
// returns to the pool.
func (p *Pipeline) dropHere(ctx *pktCtx, now sim.Time) {
	i := ctx.stage
	p.counters[i].Drops++
	p.resid[i].Record(int64(now.Sub(ctx.enterAt)))
}

// dropSync charges a drop to ctx's synchronous stage (zero residency).
func (p *Pipeline) dropSync(ctx *pktCtx) {
	i := ctx.stage
	p.counters[i].Drops++
	p.resid[i].RecordZero()
}

// Stages returns the per-stage conservation counters in path order.
func (pr *PodRuntime) Stages() []stats.StageCounter { return pr.pipe.counters[:] }

// StageResidency returns the per-stage residency histograms in path order
// (index with the same positions as Stages; labels via StageNames).
func (pr *PodRuntime) StageResidency() []*stats.Histogram { return pr.pipe.resid[:] }

// classify runs pkt_dir classification; a telemetry probe is RSS class
// whatever its flow. Priority packets (BFD, BGP) exit here: they skip
// overload protection and the data path, riding the priority queues to the
// ctrl cores. It reports whether ctx continues.
func (pr *PodRuntime) classify(ctx *pktCtx, now sim.Time) bool {
	pr.pipe.enter(ctx, stageClassify, now)
	class := nicsim.ClassRSS
	if ctx.probe == nil {
		class, _ = pr.Classifier.ClassifyFlow(ctx.flow.Tuple)
	}
	ctx.class = class
	if class == nicsim.ClassPriority {
		pr.PriorityRx++
		n := pr.node
		n.Engine.AfterArg(nicLatency.RoundTrip(nicsim.ClassPriority), priorityDoneEvent, ctx)
		return false
	}
	pr.pipe.pass(ctx)
	return true
}

// priorityDoneEvent completes a priority packet's NIC round trip.
func priorityDoneEvent(arg any) {
	ctx := arg.(*pktCtx)
	pr := ctx.pr
	now := pr.node.Engine.Now()
	pr.PriorityTx++
	pr.Latency.Record(int64(now.Sub(ctx.t0)))
	pr.pipe.exit(ctx, now)
	pr.putCtx(ctx)
}

// meter is gateway overload protection in the NIC pipeline: the two-stage
// tenant meter hierarchy drops overloading tenants' excess. It reports
// whether ctx continues.
func (pr *PodRuntime) meter(ctx *pktCtx, now sim.Time) bool {
	pr.pipe.enter(ctx, stageGOP, now)
	if l := pr.node.Limiter; l != nil && l.Process(ctx.flow.VNI, now) == gop.VerdictDrop {
		pr.NICDrops++
		pr.pipe.dropSync(ctx)
		pr.putCtx(ctx)
		return false
	}
	pr.pipe.pass(ctx)
	return true
}

// plbDispatch is plb_dispatch: compute the service cost and verdict, spray
// the packet to the next core, stamp the PLB meta trailer. It reports
// whether the packet survived; a refused packet is counted but still owns
// its context.
func (pr *PodRuntime) plbDispatch(ctx *pktCtx, now sim.Time) bool {
	ctx.cost, ctx.drop = pr.serviceCost(ctx)
	ctx.queueAt = now

	core, meta, ok := pr.PLB.Dispatch(ctx.fh)
	if !ok {
		pr.PLBDrops++
		return false
	}
	if pr.rxLossHit(core) {
		// RX DMA loss after dispatch: the FIFO entry stays behind and
		// must wait out the reorder timeout (a real HOL source).
		pr.RxLost++
		return false
	}
	if ctx.split {
		meta.Flags |= packet.MetaFlagHeaderOnly
		ctx.payID = payloadID(meta)
		pr.payload.Store(ctx.payID, ctx.bytes-headerSplitBytes)
	}
	ctx.meta = meta
	ctx.viaPLB = true
	ctx.core = int32(core)
	return true
}

// rssDispatch hashes the flow to a core: every packet of an RSS pod (the
// 1st-gen baseline), and a PLB pod's RSS-class packets, which skip the
// spray and the reorder engine.
func (pr *PodRuntime) rssDispatch(ctx *pktCtx, now sim.Time) bool {
	ctx.cost, ctx.drop = pr.serviceCost(ctx)
	ctx.queueAt = now

	var q int
	if pr.RSS != nil {
		q = pr.RSS.Queue(ctx.flow.Tuple)
	} else {
		q = int(ctx.fh % uint32(len(pr.Cores)))
	}
	if pr.rxLossHit(q) {
		pr.RxLost++
		return false
	}
	ctx.core = int32(q)
	return true
}
