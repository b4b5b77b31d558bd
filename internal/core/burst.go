package core

import (
	"math/bits"

	"albatross/internal/nicsim"
	"albatross/internal/packet"
	"albatross/internal/plb"
	"albatross/internal/pod"
	"albatross/internal/sim"
)

// The data path after classification and metering, as batches and computed
// times rather than per-packet events.
//
// NIC ingress: packets injected back-to-back at one virtual instant (and of
// one traffic class) share one NIC-DMA arrival event, up to NodeConfig.Burst
// of them; Burst 1 is a burst of one. At arrival each member is dispatched
// and admitted to its core (cpu.Core.Admit), which computes when it will
// finish.
//
// Completion: a CPU completion or an egress completion is not an event but
// a (time, engine sequence number) pair: the sequence number is reserved
// (sim.Engine.Reserve) when an event walk would have scheduled the
// completion — when its packet starts service, or enters egress. The pod
// keeps each source's next pair (its cores, then its egress queues) in a
// winner tree whose root is the earliest, and one timer,
// armed at that pair. When it fires it completes that one, and goes on
// through the next ones for as long as each would also be the engine's next
// event, moving the clock to it; then it re-arms. Completions therefore
// interleave with arrivals, PLB timeouts, faults and stress windows exactly
// as per-packet events would, the flight recorder stamps every step from
// the engine clock, and Burst only changes how many events run, never what
// the run reports.

// burst accumulates same-instant, same-class injections into one arrival.
type burst struct {
	pr      *PodRuntime
	class   nicsim.Class
	t0      sim.Time
	mark    uint64 // engine SchedSeq right after the arrival was scheduled
	members []*pktCtx
}

// ingress is the NIC ingress stage: header-payload split accounting, then
// the packet joins the open burst of its class or opens one, whose arrival
// event fires after the class's ingress latency. Only a packet the PLB
// will spray is split: plbDispatch parks its payload, and rssDispatch has
// nowhere to park one.
func (pr *PodRuntime) ingress(ctx *pktCtx, now sim.Time) {
	n := pr.node
	pr.pipe.enter(ctx, stageIngress, now)
	if pr.payload != nil && pr.sprays(ctx.class) && ctx.bytes > headerSplitBytes {
		ctx.split = true
		pr.PCIeRxBytes += headerSplitBytes
	} else {
		pr.PCIeRxBytes += uint64(ctx.bytes) + packet.MetaLen
	}
	b := pr.openBurst[ctx.class]
	// Join the open burst only when nothing else was scheduled since it was
	// opened (SchedSeq unchanged): a source that schedules its next injection
	// between packets breaks the run, so its traffic arrives in singleton
	// bursts with the event interleaving of one arrival per packet.
	if b != nil && b.t0 == now && len(b.members) < pr.burst &&
		n.Engine.SchedSeq() == b.mark {
		b.members = append(b.members, ctx)
		return
	}
	b = pr.getBurst()
	b.class = ctx.class
	b.t0 = now
	b.members = append(b.members, ctx)
	n.Engine.AfterArg(nicLatency.IngressLatency(ctx.class), arrivalEvent, b)
	b.mark = n.Engine.SchedSeq()
	pr.openBurst[ctx.class] = b
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

// arrivalEvent fires when the burst's shared NIC-DMA hop completes: the
// whole burst lands in host memory at once and runs dispatch and CPU
// admission member by member, in injection order.
func arrivalEvent(arg any) {
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
	// ahead, the dependent reads of the cache model's tag sets (one set per
	// entry or LPM line touched) one ahead, so each member's host cache
	// misses resolve while its predecessor computes. Warm passes touch no
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
		pr.dispatch(ctx, now)
	}
	b.members = b.members[:0]
	pr.burstFree = append(pr.burstFree, b)
}

// sprays reports whether the dispatch stage sends a packet of class through
// the PLB: a PLB pod's PLB-class traffic, until FallbackToRSS.
func (pr *PodRuntime) sprays(class nicsim.Class) bool {
	return pr.mode == pod.ModePLB && class == nicsim.ClassPLB
}

// dispatch runs one arrived member through the dispatch stage (whose In and
// residency the arrival batched) and admits it to its core.
func (pr *PodRuntime) dispatch(ctx *pktCtx, now sim.Time) {
	pipe := &pr.pipe
	ctx.stage = stageDispatch
	ctx.enterAt = now
	if ctx.trace != nil {
		ctx.trace.leave(now, StepNext)
		ctx.trace.enter(stageDispatch, now)
	}
	var ok bool
	if pr.sprays(ctx.class) {
		ok = pr.plbDispatch(ctx, now)
	} else {
		if ctx.split {
			// The pod fell back to RSS after the packet's ingress: the
			// payload it left behind crosses PCIe now.
			ctx.split = false
			pr.PCIeRxBytes += uint64(ctx.bytes) + packet.MetaLen - headerSplitBytes
		}
		ok = pr.rssDispatch(ctx, now)
	}
	if !ok {
		pr.putCtx(ctx)
		return
	}
	pipe.counters[stageDispatch].Out++
	if ctx.trace != nil {
		ctx.trace.leave(now, StepNext)
	}

	pipe.enter(ctx, stageCPU, now)
	if !pr.Cores[ctx.core].Admit(ctx, ctx.cost) {
		// RX queue overflow (or a failed core): the CPU never sees the
		// packet; its FIFO entry (if PLB-dispatched) stays until the 100µs
		// timeout — a real HOL source.
		pipe.drop(ctx, now, &pr.QueueDrops)
		pr.putCtx(ctx)
		return
	}
	pr.admitted(int(ctx.core))
}

// admitted notes a packet core just queued: if it is the core's only one,
// its completion is the core's next.
func (pr *PodRuntime) admitted(core int) {
	if pr.Cores[core].Pending() == 1 {
		pr.refresh(core)
	}
}

// completion is when one of the pod's completions is due: its time and
// engine sequence number.
type completion struct {
	at  sim.Time
	seq uint64
}

// refresh re-reads core i's next completion into the pod's winner tree and
// moves the pod timer to it if it comes first.
func (pr *PodRuntime) refresh(i int) {
	at, seq := pr.Cores[i].Next()
	pr.setHead(i, completion{at, seq})
	pr.wake(at, seq)
}

// setHead records source i's next completion in its leaf of the winner
// tree and replays the leaf's path: each node on the way to the root takes
// the earlier of the path's winner and the winner its sibling holds. Two
// sources' keys tie only when both are idle (at sim.TimeMax), so a tie
// never decides which completion runs next.
func (pr *PodRuntime) setHead(i int, h completion) {
	t := pr.tree
	k := len(t)/2 + i
	w := headNode{h, int32(i)}
	t[k] = w
	for ; k > 1; k >>= 1 {
		if s := &t[k^1]; s.at < w.at || (s.at == w.at && s.seq < w.seq) {
			w = *s
		}
		t[k>>1] = w
	}
}

// wake moves the pod timer to the completion (at, seq) if that comes before
// the one it is armed for (at is sim.TimeMax for none). Completions made
// while the timer settles are covered by the re-arm at its end.
func (pr *PodRuntime) wake(at sim.Time, seq uint64) {
	if pr.settling || at == sim.TimeMax || at > pr.timerAt || (at == pr.timerAt && seq >= pr.timerSeq) {
		return
	}
	pr.timer.Stop()
	pr.arm(at, seq)
}

// arm schedules the pod timer at the completion (at, seq).
func (pr *PodRuntime) arm(at sim.Time, seq uint64) {
	pr.timerAt, pr.timerSeq = at, seq
	pr.timer = pr.node.Engine.AtArgSeq(at, seq, podTimerEvent, pr)
}

// podTimerEvent settles the pod's due completions.
func podTimerEvent(arg any) { arg.(*PodRuntime).settle() }

// settle runs the pod's completions in order for as long as the next one
// would also be the engine's next event (sim.Engine.Advance moves the clock
// to it), then re-arms the timer at the first one that is not. A stall or a
// failure may have moved or removed what the timer was armed for; such a
// firing only re-arms.
func (pr *PodRuntime) settle() {
	e := pr.node.Engine
	pr.settling = true
	src, at, seq := pr.nextDue()
	for ; at != sim.TimeMax && e.Advance(at, seq); src, at, seq = pr.nextDue() {
		if src < len(pr.Cores) {
			pr.Cores[src].Retire(pr.cpuDone)
			pr.refresh(src)
		} else {
			q := &pr.egress[src-len(pr.Cores)]
			ctx := q.pop()
			pr.setHead(src, q.next())
			pr.egressDone(ctx, at)
		}
	}
	pr.settling = false
	pr.timerAt = sim.TimeMax
	if at != sim.TimeMax {
		pr.arm(at, seq)
	}
}

// nextDue returns the source, time and sequence number of the pod's next
// completion (time sim.TimeMax when none is pending): the winner tree's
// root. A Stall (the NUMA balancer stalls cores directly) can leave a
// core's leaf early, never late, so it re-reads the core it picks.
func (pr *PodRuntime) nextDue() (int, sim.Time, uint64) {
	for {
		w := pr.tree[1]
		if w.at == sim.TimeMax {
			return -1, sim.TimeMax, 0
		}
		best := int(w.src)
		if best >= len(pr.Cores) {
			return best, w.at, w.seq
		}
		at, seq := pr.Cores[best].Next()
		if at == w.at && seq == w.seq {
			return best, at, seq
		}
		pr.setHead(best, completion{at, seq})
	}
}

// headNode is a node of the winner tree over a pod's completion sources:
// the completion that wins there and its source.
type headNode struct {
	completion
	src int32
}

// initHeads builds the winner tree for sources sources, all idle. Its n
// leaves are the sources (the cores, then the egress queues) padded to a
// power of two: pr.tree[n+i] holds source i's next completion, and
// pr.tree[k] for 1 <= k < n the earlier of pr.tree[2k] and pr.tree[2k+1],
// so pr.tree[1] is the earliest.
func (pr *PodRuntime) initHeads(sources int) {
	n := 1 << bits.Len(uint(sources-1))
	pr.tree = make([]headNode, 2*n)
	for k := range pr.tree {
		pr.tree[k].at = sim.TimeMax
	}
	for j := range n {
		pr.tree[n+j].src = int32(j)
	}
	for k := n - 1; k > 0; k-- {
		pr.tree[k] = pr.tree[2*k]
	}
}

// cpuDone completes a packet's CPU service at now. A service-verdict drop
// releases its reorder FIFO entry through the active drop flag (unless the
// Fig. 12 ablation disables it, leaking the entry until its timeout);
// otherwise the packet enters plb_reorder, which RSS packets pass straight
// through to egress.
func (pr *PodRuntime) cpuDone(item any) {
	ctx := item.(*pktCtx)
	now := pr.node.Engine.Now()
	pipe := &pr.pipe
	if ctx.drop {
		pipe.drop(ctx, now, &pr.ServiceDrop)
		if !ctx.viaPLB {
			pr.putCtx(ctx)
			return
		}
		if ctx.split {
			pr.payload.Take(ctx.payID) // release the parked payload
		}
		if pr.cfg.DropFlagDisabled {
			pr.putCtx(ctx)
			return
		}
		meta := ctx.meta
		meta.Flags |= packet.MetaFlagDrop
		pr.putCtx(ctx)
		pr.PLB.Return(nil, meta)
		return
	}
	pipe.leave(ctx, now)
	pipe.enter(ctx, stageReorder, now)
	if ctx.viaPLB {
		pr.PLB.Return(ctx, ctx.meta)
		return
	}
	pipe.pass(ctx)
	pr.egressStart(ctx, now)
}

// onEmission handles packets leaving plb_reorder: it completes their
// reorder stage, or drops a header whose payload is gone.
func (pr *PodRuntime) onEmission(em plb.Emission) {
	ctx, ok := em.Item.(*pktCtx)
	if !ok || ctx == nil {
		return
	}
	if !em.InOrder && ctx.trace != nil {
		// The reorder engine gave up waiting and released this packet
		// best-effort — flag its journey for the flight recorder.
		ctx.trace.timeout = true
	}
	if ctx.split && !pr.payload.Take(ctx.payID) {
		// Egress reassembly, the one place a header is dropped: the payload
		// buffer evicted this packet's payload while it was away, whether it
		// leaves in order or best-effort after the legal check failed.
		pr.pipe.drop(ctx, em.Time, &pr.HeaderDrops)
		pr.putCtx(ctx)
		return
	}
	pr.pipe.leave(ctx, em.Time)
	pr.egressStart(ctx, em.Time)
}

// egressStart is the egress NIC pipeline: PCIe TX DMA (headers only in
// split mode), then the class-dependent egress latency.
func (pr *PodRuntime) egressStart(ctx *pktCtx, now sim.Time) {
	pr.pipe.enter(ctx, stageEgress, now)
	if ctx.split {
		pr.PCIeTxBytes += headerSplitBytes
	} else {
		pr.PCIeTxBytes += uint64(ctx.bytes) + packet.MetaLen
	}
	pr.queueEgress(ctx, now)
}

// queueEgress puts ctx into the NIC egress pipeline of its class at now.
func (pr *PodRuntime) queueEgress(ctx *pktCtx, now sim.Time) {
	class, k := nicsim.ClassRSS, 0
	if ctx.viaPLB {
		class, k = nicsim.ClassPLB, 1
	}
	ctx.due = completion{now.Add(nicLatency.EgressLatency(class)), pr.node.Engine.Reserve()}
	q := &pr.egress[k]
	if q.head == nil {
		pr.setHead(len(pr.Cores)+k, ctx.due)
		pr.wake(ctx.due.at, ctx.due.seq)
	}
	q.push(ctx)
}

// egressDone completes a packet's egress NIC traversal at now.
func (pr *PodRuntime) egressDone(ctx *pktCtx, now sim.Time) {
	pr.Tx++
	pr.countTenantTx(ctx.flow.VNI)
	pr.Latency.Record(int64(now.Sub(ctx.t0)))
	pr.pipe.exit(ctx, now)
	pr.putCtx(ctx)
}

// egressQueue is one class's egress pipeline, a FIFO of contexts linked
// through pktCtx.next. The class's latency is constant and packets enter in
// time order, so they leave in FIFO order.
type egressQueue struct {
	head, tail *pktCtx
}

func (q *egressQueue) push(ctx *pktCtx) {
	if q.tail == nil {
		q.head = ctx
	} else {
		q.tail.next = ctx
	}
	q.tail = ctx
}

func (q *egressQueue) pop() *pktCtx {
	ctx := q.head
	q.head = ctx.next
	if q.head == nil {
		q.tail = nil
	}
	ctx.next = nil
	return ctx
}

// next returns when the oldest entry leaves (time sim.TimeMax when none).
func (q *egressQueue) next() completion {
	if q.head == nil {
		return completion{at: sim.TimeMax}
	}
	return q.head.due
}
