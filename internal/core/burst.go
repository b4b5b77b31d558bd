package core

import (
	"albatross/internal/nicsim"
	"albatross/internal/packet"
	"albatross/internal/plb"
	"albatross/internal/pod"
	"albatross/internal/sim"
)

// Burst-batched dispatch: when NodeConfig.Burst > 1 the pod replaces the
// per-packet NIC-ingress event with a burst accumulator. Packets injected
// back-to-back at the same virtual instant (and same traffic class) share ONE
// arrival event; the CPU stage admits them arithmetically (cpu.Core.Admit
// computes start/finish times in place of per-packet queue/service events)
// and ONE per-pod drain event retires everything whose computed finish time
// has passed.
//
// Every observable — counters, histograms, PLB return times, end-to-end
// latency — is a pure function of the computed times, never of the engine
// clock at processing, so outcomes are invariant in the burst size: B=2 and
// B=32 produce byte-identical metrics for the same packet sequence. Burst <= 1
// leaves the legacy per-packet path untouched (that is the byte-identity
// anchor against the unbatched build).
//
// Member state is struct-of-arrays per core (corePend): a core serializes its
// admissions, so each core's finish times are already sorted and the drain is
// a K-way merge over core heads — no sort, no allocation on the hot path.
//
// Known modeling caveat (documented in DESIGN.md §13): completions are
// deferred from their logical finish time to the drain event, so a PLB
// reorder timeout whose deadline lands inside that deferral window fires in
// burst mode where the unbatched path would have seen the return first. None
// of the committed workloads cross that boundary; burst-size invariance is
// validated by test, not claimed as a theorem. The flight recorder is forced
// off in burst mode (per-packet journeys assume per-packet events).

// burst accumulates same-instant, same-class injections into one arrival.
type burst struct {
	pr      *PodRuntime
	class   nicsim.Class
	t0      sim.Time
	mark    uint64 // engine SchedSeq right after the arrival was scheduled
	members []*pktCtx
}

// burstIngressStage replaces ingressStage when Burst > 1: identical PCIe
// accounting, but the NIC-DMA hop is one shared event per burst.
type burstIngressStage struct{}

func (burstIngressStage) Name() string { return "nic-ingress" }

func (burstIngressStage) Process(pr *PodRuntime, ctx *pktCtx) StageVerdict {
	n := pr.node
	if pr.payload != nil && ctx.class == nicsim.ClassPLB && ctx.bytes > headerSplitBytes {
		ctx.split = true
		pr.nextPay++
		ctx.payID = pr.nextPay
		pr.PCIeRxBytes += headerSplitBytes
	} else {
		pr.PCIeRxBytes += uint64(ctx.bytes) + packet.MetaLen
	}
	now := n.Engine.Now()
	b := pr.openBurst[ctx.class]
	// Join the open burst only when nothing else was scheduled since it was
	// opened (SchedSeq unchanged): a source that schedules its next injection
	// between packets breaks the run, so scenario traffic degrades to
	// singleton bursts and keeps its exact legacy event interleaving.
	if b != nil && b.t0 == now && len(b.members) < pr.burst &&
		n.Engine.SchedSeq() == b.mark {
		b.members = append(b.members, ctx)
		return StageConsumed
	}
	b = pr.getBurst()
	b.class = ctx.class
	b.t0 = now
	b.members = append(b.members, ctx)
	n.Engine.AfterArg(n.cfg.NIC.IngressLatency(ctx.class), burstArrivalEvent, b)
	b.mark = n.Engine.SchedSeq()
	pr.openBurst[ctx.class] = b
	return StageConsumed
}

// getBurst takes a burst accumulator from the pod's pool.
func (pr *PodRuntime) getBurst() *burst {
	if n := len(pr.burstFree); n > 0 {
		b := pr.burstFree[n-1]
		pr.burstFree[n-1] = nil
		pr.burstFree = pr.burstFree[:n-1]
		return b
	}
	return &burst{pr: pr, members: make([]*pktCtx, 0, pr.burst)}
}

// burstArrivalEvent fires when the burst's shared NIC-DMA hop completes: the
// whole burst lands in host memory at once and runs dispatch + arithmetic
// CPU admission member by member, in injection order.
func burstArrivalEvent(arg any) {
	b := arg.(*burst)
	pr := b.pr
	if pr.openBurst[b.class] == b {
		pr.openBurst[b.class] = nil
	}
	now := pr.node.Engine.Now()
	n := uint64(len(b.members))

	// Complete the ingress stage for the whole burst: every member entered at
	// b.t0 and shares the same residency. The dispatch stage's In count and
	// zero residency are also per-member-invariant (every verdict records
	// zero), so they batch here; Out/Drops stay per member.
	pr.pipe.counters[stageIngress].Out += n
	pr.pipe.resid[stageIngress].RecordN(int64(now.Sub(b.t0)), n)
	pr.pipe.counters[stageDispatch].In += n
	pr.pipe.resid[stageDispatch].RecordN(0, n)

	// Software-pipelined dispatch: hash + probe-head loads issue two members
	// ahead, the dependent reads of the cache model's tag sets (128 B per
	// entry or LPM line touched) one ahead, so each member's host cache
	// misses resolve while its predecessor computes — the batching
	// win the per-packet path structurally cannot have. Warm passes touch no
	// model state; outcomes are bit-identical with or without them.
	members := b.members
	svc := pr.Svc
	for i, ctx := range members {
		if svc != nil {
			if j := i + 2; j < len(members) {
				c := members[j]
				c.fh = c.flow.Tuple.Hash()
				c.fhOK = true
				svc.WarmProbes(c.fh)
			}
			if j := i + 1; j < len(members) {
				c := members[j]
				if !c.fhOK {
					c.fh = c.flow.Tuple.Hash()
					c.fhOK = true
				}
				svc.Warm(c.flow.Tuple, c.fh)
			}
		}
		b.members[i] = nil
		pr.burstDispatch(ctx, now)
	}
	b.members = b.members[:0]
	pr.burstFree = append(pr.burstFree, b)
}

// burstDispatch runs one burst member through the dispatch stage and the
// arithmetic CPU admission, mirroring the legacy chain's accounting exactly
// (the dispatch In/residency were batched by the arrival event).
func (pr *PodRuntime) burstDispatch(ctx *pktCtx, now sim.Time) {
	pipe := &pr.pipe
	ctx.stage = stageDispatch
	ctx.enterAt = now
	var v StageVerdict
	if pr.mode == pod.ModePLB {
		// Devirtualized common case; fallback pods go through the chain slot.
		v = plbDispatchStage{}.Process(pr, ctx)
	} else {
		v = pipe.stages[stageDispatch].Process(pr, ctx)
	}
	switch v {
	case StageDrop:
		pipe.counters[stageDispatch].Drops++
		return
	case StageNext:
		pipe.counters[stageDispatch].Out++
	case StageConsumed:
		return // dispatch stages never consume; defensive
	}

	ctx.stage = stageCPU
	ctx.enterAt = now
	pipe.counters[stageCPU].In++
	c := pr.Cores[ctx.core]
	start, finish, ok := c.Admit(ctx.cost)
	if !ok {
		// RX queue overflow (or failed core), same as cpuStage: the PLB FIFO
		// entry stays behind until its timeout.
		pr.QueueDrops++
		pipe.counters[stageCPU].Drops++
		pipe.resid[stageCPU].RecordZero()
		pr.putCtx(ctx)
		return
	}
	// The CPU-return latency is a computed quantity; record it at admission.
	pr.CPULatency.Record(int64(finish.Sub(ctx.queueAt)))

	cp := &pr.pend[ctx.core]
	cp.ctx = append(cp.ctx, ctx)
	cp.start = append(cp.start, start)
	cp.finish = append(cp.finish, finish)
	cp.seq = append(cp.seq, pr.admitSeq)
	if len(cp.finish)-cp.head == 1 {
		// The core was idle: this member is its new merge head. (A non-empty
		// core never changes heads on admit — finishes append in order.)
		pr.headF[ctx.core] = finish
		pr.headSeq[ctx.core] = pr.admitSeq
	}
	pr.admitSeq++
	pr.pending++
	if !pr.drain.Active() {
		pr.drain = pr.node.Engine.AfterArg(finish.Sub(now), podDrainEvent, pr)
	}
}

// podDrainEvent retires every pending member whose computed finish time has
// passed, in (finish, admission) order — the order the unbatched path's
// completion events would have fired — then re-arms at the latest remaining
// finish so a wave of admissions costs O(1) drain events.
func podDrainEvent(arg any) {
	pr := arg.(*PodRuntime)
	pr.drainPendingThrough(pr.node.Engine.Now(), true)
}

// drainPendingThrough completes members with finish <= now in global
// (finish, admission-seq) order — a K-way merge over the per-core queues,
// whose finish times each core's serial admission keeps sorted. rearm
// re-arms the drain event for the remainder; failCores passes false and
// re-arms itself once the failed cores are swept.
func (pr *PodRuntime) drainPendingThrough(now sim.Time, rearm bool) {
	heads := pr.headF
	for pr.pending > 0 {
		// Pick the earliest (finish, seq) head from the compact head cache —
		// one cache line for 8 cores, no pointer chase into the queues.
		best := 0
		bestF := heads[0]
		for c := 1; c < len(heads); c++ {
			if f := heads[c]; f < bestF ||
				(f == bestF && pr.headSeq[c] < pr.headSeq[best]) {
				best, bestF = c, f
			}
		}
		if bestF > now { // sim.TimeMax when every core is idle
			break
		}
		cp := &pr.pend[best]
		h := cp.head
		ctx, start := cp.ctx[h], cp.start[h]
		cp.ctx[h] = nil
		cp.head = h + 1
		if cp.head == len(cp.finish) {
			cp.ctx = cp.ctx[:0]
			cp.start = cp.start[:0]
			cp.finish = cp.finish[:0]
			cp.seq = cp.seq[:0]
			cp.head = 0
			heads[best] = sim.TimeMax
		} else {
			heads[best] = cp.finish[cp.head]
			pr.headSeq[best] = cp.seq[cp.head]
		}
		pr.pending--
		pr.completeMember(ctx, start, bestF)
	}
	if rearm && !pr.drain.Active() {
		pr.armDrain(now)
	}
}

// armDrain schedules the drain event at the latest remaining finish (each
// core's tail is its max) so a wave of admissions costs O(1) drain events.
func (pr *PodRuntime) armDrain(now sim.Time) {
	if pr.pending == 0 {
		return
	}
	var maxF sim.Time
	for c := range pr.pend {
		cp := &pr.pend[c]
		if n := len(cp.finish); n > cp.head && cp.finish[n-1] > maxF {
			maxF = cp.finish[n-1]
		}
	}
	pr.drain = pr.node.Engine.AfterArg(maxF.Sub(now), podDrainEvent, pr)
}

// failPending settles core's admitted-but-unfinished members as lost at the
// fail instant now — the burst counterpart of cpu.Core.Fail's queue sweep +
// onLost. Leaving them queued until their computed finish would break the
// per-core sorted order once the recovered core admits again: its backlog
// restarts at now, ahead of the stale (possibly stall-slowed) finishes.
func (pr *PodRuntime) failPending(core int, now sim.Time) {
	if pr.pend == nil {
		return
	}
	cp := &pr.pend[core]
	c := pr.Cores[core]
	pipe := &pr.pipe
	for h := cp.head; h < len(cp.finish); h++ {
		ctx := cp.ctx[h]
		cp.ctx[h] = nil
		pr.FaultLost++
		c.ArithLost(cp.start[h], cp.finish[h])
		pipe.counters[stageCPU].Drops++
		pipe.resid[stageCPU].Record(int64(now.Sub(ctx.enterAt)))
		if ctx.split {
			pr.payload.Take(ctx.payID)
		}
		pr.putCtx(ctx)
		pr.pending--
	}
	cp.ctx = cp.ctx[:0]
	cp.start = cp.start[:0]
	cp.finish = cp.finish[:0]
	cp.seq = cp.seq[:0]
	cp.head = 0
	pr.headF[core] = sim.TimeMax
}

// completeMember is the burst equivalent of onCPUDone + the reorder/egress
// continuation, with every timestamp taken from the computed finish time.
func (pr *PodRuntime) completeMember(ctx *pktCtx, start, finish sim.Time) {
	pipe := &pr.pipe
	if ctx.drop {
		pr.ServiceDrop++
		pipe.counters[stageCPU].Drops++
		pipe.resid[stageCPU].Record(int64(finish.Sub(ctx.enterAt)))
		if ctx.viaPLB {
			if ctx.split {
				pr.payload.Take(ctx.payID)
			}
			if pr.cfg.DropFlagDisabled {
				pr.putCtx(ctx)
				return
			}
			meta := ctx.meta
			meta.Flags |= packet.MetaFlagDrop
			pr.putCtx(ctx)
			pr.PLB.ReturnAt(nil, meta, finish)
			return
		}
		pr.putCtx(ctx)
		return
	}
	pipe.counters[stageCPU].Out++
	pipe.resid[stageCPU].Record(int64(finish.Sub(ctx.enterAt)))
	pr.Cores[ctx.core].ArithDone()

	ctx.stage = stageReorder
	ctx.enterAt = finish
	pipe.counters[stageReorder].In++
	if ctx.viaPLB {
		pr.PLB.ReturnAt(ctx, ctx.meta, finish)
		return
	}
	pipe.counters[stageReorder].Out++
	pipe.resid[stageReorder].RecordZero()
	pr.burstEgress(ctx, finish)
}

// burstEmission completes the reorder stage for a PLB member using the
// emission's logical time (the engine clock sits at the drain event, which
// may be later).
func (pr *PodRuntime) burstEmission(ctx *pktCtx, em plb.Emission) {
	pipe := &pr.pipe
	if ctx.split {
		if !pr.payload.Take(ctx.payID) {
			pr.HeaderDrops++
			pipe.counters[stageReorder].Drops++
			pipe.resid[stageReorder].Record(int64(em.Time.Sub(ctx.enterAt)))
			pr.putCtx(ctx)
			return
		}
	}
	pipe.counters[stageReorder].Out++
	pipe.resid[stageReorder].Record(int64(em.Time.Sub(ctx.enterAt)))
	pr.burstEgress(ctx, em.Time)
}

// burstEgress retires a member through the egress stage arithmetically: PCIe
// TX accounting at `at`, completion at `at + egress latency`.
func (pr *PodRuntime) burstEgress(ctx *pktCtx, at sim.Time) {
	pipe := &pr.pipe
	ctx.stage = stageEgress
	ctx.enterAt = at
	pipe.counters[stageEgress].In++
	class := nicsim.ClassRSS
	if ctx.viaPLB {
		class = nicsim.ClassPLB
	}
	if ctx.split {
		pr.PCIeTxBytes += headerSplitBytes
	} else {
		pr.PCIeTxBytes += uint64(ctx.bytes) + packet.MetaLen
	}
	lat := pr.node.cfg.NIC.EgressLatency(class)
	pr.Tx++
	pr.TxPerTenant[ctx.flow.VNI]++
	pr.Latency.Record(int64(at.Add(lat).Sub(ctx.t0)))
	pipe.counters[stageEgress].Out++
	pipe.resid[stageEgress].Record(int64(lat))
	pr.putCtx(ctx)
}

// corePend is one core's struct-of-arrays queue of arithmetically admitted
// members. A core serializes its service, so finish (and seq) are appended
// in increasing order; head marks the next member to retire.
type corePend struct {
	ctx    []*pktCtx
	start  []sim.Time
	finish []sim.Time
	seq    []uint64
	head   int
}
