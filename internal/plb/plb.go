// Package plb implements Albatross's packet-level load balancing: the
// plb_dispatch ingress spray and the plb_reorder egress reordering engine
// (paper §4.1).
//
// Dispatch sprays packets round-robin across a GW pod's CPU cores. Because
// packets of one flow are processed by different cores with different
// latencies, the egress must restore per-flow order. Reordering is done per
// *group of flows*: each pod owns 1–8 order-preserving queues (flow→queue
// by 5-tuple hash), each with three structures of 4K entries:
//
//   - FIFO: reorder info (PSN + ingress timestamp), appended at dispatch.
//     A packet may be transmitted only when its info reaches the head.
//   - BUF:  returned packets, indexed by psn[11:0].
//   - BITMAP: a light mirror of BUF (valid bit + PSN) for O(1) head checks.
//
// The legal check validates returned packets by testing psn[11:0] against
// the [head, tail) window — intentionally allowing rare aliasing of stale
// packets, which the reorder check's PSN comparison (case 3) later catches.
// The reorder check at the FIFO head implements the paper's four cases:
// timeout release (1), busy-wait (2), stale-PSN best-effort send (3), and
// in-order transmit (4). A drop flag in the returned meta releases reorder
// resources immediately, avoiding head-of-line blocking on CPU-side drops.
package plb

import (
	"fmt"
	"math/bits"

	"albatross/internal/errs"
	"albatross/internal/packet"
	"albatross/internal/sim"
)

// Config parameterizes a pod's PLB unit.
type Config struct {
	// NumOrderQueues is the number of order-preserving queues (paper: 1-8,
	// proportional to the pod's core count).
	NumOrderQueues int
	// QueueDepth is entries per queue; power of two, paper value 4096
	// (buffers 100µs at 40Mpps per queue).
	QueueDepth int
	// Timeout releases a blocked FIFO head (paper: 100µs; most services
	// finish under 50µs).
	Timeout sim.Duration
	// HOLThreshold classifies a head wait as a head-of-line blocking event
	// for Fig. 12 accounting. Default 10µs.
	HOLThreshold sim.Duration
	// NumCores is the number of RX data queues/cores to spray across.
	NumCores int
	// PodID tags emitted meta headers.
	PodID uint16
	// PayloadRetained, if set, is consulted when a header-only packet fails
	// the legal check: if the NIC payload buffer no longer retains the
	// payload, the header is dropped instead of sent (paper §4.1). nil
	// means payloads are always retained.
	PayloadRetained func(m packet.Meta, now sim.Time) bool
}

// DefaultConfig returns the paper's production parameters for a pod with
// the given core count: one order queue per ~10 cores (min 1, max 8),
// matching the proportionality rule of internal/pod.
func DefaultConfig(podID uint16, cores int) Config {
	q := (cores + 5) / 10
	if q < 1 {
		q = 1
	}
	if q > 8 {
		q = 8
	}
	return Config{
		NumOrderQueues: q,
		QueueDepth:     4096,
		Timeout:        100 * sim.Microsecond,
		HOLThreshold:   10 * sim.Microsecond,
		NumCores:       cores,
		PodID:          podID,
	}
}

// Emission is a packet leaving the egress pipeline.
type Emission struct {
	Item any
	// Meta is the header the packet left with. A packet the legal check
	// sent straight out keeps the meta it returned with; one released from
	// BUF carries only its PSN, order queue and pod, which is all the reorder
	// engine keeps of it.
	Meta packet.Meta
	Time sim.Time
	// InOrder is true for case-4 transmissions; false for best-effort
	// (legal-check failure or case-3 stale PSN).
	InOrder bool
}

// Stats are PLB counters. All are cumulative.
type Stats struct {
	Dispatched        uint64 // packets sprayed to cores
	DispatchDrops     uint64 // FIFO full at dispatch (heavy hitter overrun)
	EmittedInOrder    uint64 // case 4
	EmittedBestEffort uint64 // legal-check fail or case 3 (disordered)
	HeaderDrops       uint64 // header-only packet whose payload was gone
	DropFlagReleases  uint64 // resources freed by the active drop flag
	TimeoutReleases   uint64 // case 1: head released after Timeout
	HOLEvents         uint64 // head waits exceeding HOLThreshold
	StaleEmissions    uint64 // case 3 occurrences specifically
	EvictedReleases   uint64 // FIFO entries released by EvictCore (failed core)
	Flushed           uint64 // entries discarded by Flush (pod crash)
	MaskDrops         uint64 // dispatch with every core evicted
}

// DisorderRate returns disordered emissions / all emissions.
func (s *Stats) DisorderRate() float64 {
	total := s.EmittedInOrder + s.EmittedBestEffort
	if total == 0 {
		return 0
	}
	return float64(s.EmittedBestEffort) / float64(total)
}

type reorderInfo struct {
	psn uint16
	// core records which RX queue the packet was sprayed to, so EvictCore
	// can release exactly the entries whose packets died with a core.
	core uint8
	// evicted marks an entry whose core failed before the packet returned:
	// the reorder check releases it immediately instead of waiting out the
	// 100µs timeout (the core-failure degradation path).
	evicted bool
	enq     sim.Time
}

// bufSlot is one BUF entry. It holds no copy of the returned meta: an
// emission from BUF rebuilds the header from psn and the queue index.
type bufSlot struct {
	valid   bool
	dropped bool // drop flag set by the GW pod
	psn     uint16
	item    any
}

// ordQueue is one order-preserving queue: FIFO + BUF + BITMAP. The BITMAP
// of the paper (valid bit + PSN per slot) is folded into bufSlot's valid/psn
// fields; hardware splits them only to keep the comparison memory tiny.
//
// Each queue owns at most one pending engine timer. Head deadlines are
// monotone (FIFO enqueue times, monotone head pointer), so a pending timer
// is never cancelled: it either fires on the head's deadline or fires early
// for an already-advanced head, in which case drain re-arms. timerAt records
// the armed deadline so Dispatch can skip redundant re-arms entirely.
type ordQueue struct {
	head, tail uint16 // free-running PSN pointers; in-flight = tail-head
	info       []reorderInfo
	buf        []bufSlot
	armed      bool
	timerAt    sim.Time
	ref        *queueRef // boxed once at New for allocation-free scheduling

	// Fault-injection stress knobs (see StressQueue). Zero values = healthy.
	holdUntil  sim.Time // while now < holdUntil, heads release only by timeout
	clampUntil sim.Time // while now < clampUntil, effective depth = depthClamp
	depthClamp uint16
}

// queueRef is the engine-callback argument identifying one queue.
type queueRef struct {
	p  *PLB
	qi uint8
}

// queueTimerFire is the engine callback for a queue's head timeout.
func queueTimerFire(arg any) {
	r := arg.(*queueRef)
	r.p.queues[r.qi].armed = false
	r.p.drain(r.qi)
}

// PLB is one GW pod's packet-level load balancing unit.
type PLB struct {
	cfg    Config
	engine *sim.Engine
	emit   func(Emission)
	queues []ordQueue
	mask   uint16
	qmask  uint32 // len(queues)-1 when a power of two, else 0
	qpow2  bool
	rr     int // round-robin core cursor
	// coreUp is the spray mask: Dispatch skips evicted cores. upCount
	// caches the number of true entries.
	coreUp  []bool
	upCount int
	stats   Stats
	// headWait records how long FIFO heads waited before release; feeds the
	// Fig. 11/12 analyses.
	headWait *waitAgg
}

// waitAgg is a tiny mean/max aggregate of FIFO-head wait durations.
type waitAgg struct {
	count uint64
	sum   sim.Duration
	max   sim.Duration
}

func (h *waitAgg) add(d sim.Duration) {
	h.count++
	h.sum += d
	if d > h.max {
		h.max = d
	}
}

// New creates a PLB unit. emit is invoked (synchronously, in virtual time)
// for every packet leaving the egress.
func New(engine *sim.Engine, cfg Config, emit func(Emission)) (*PLB, error) {
	if cfg.NumOrderQueues < 1 || cfg.NumOrderQueues > 64 {
		return nil, fmt.Errorf("plb: NumOrderQueues %d out of [1,64]: %w", cfg.NumOrderQueues, errs.BadConfig)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4096
	}
	if cfg.QueueDepth&(cfg.QueueDepth-1) != 0 || cfg.QueueDepth > 1<<15 {
		return nil, fmt.Errorf("plb: QueueDepth %d must be a power of two <= 32768: %w", cfg.QueueDepth, errs.BadConfig)
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 100 * sim.Microsecond
	}
	if cfg.HOLThreshold <= 0 {
		cfg.HOLThreshold = 10 * sim.Microsecond
	}
	if cfg.NumCores <= 0 || cfg.NumCores > 256 {
		return nil, fmt.Errorf("plb: NumCores %d out of [1,256]: %w", cfg.NumCores, errs.BadConfig)
	}
	p := &PLB{
		cfg:      cfg,
		engine:   engine,
		emit:     emit,
		queues:   make([]ordQueue, cfg.NumOrderQueues),
		mask:     uint16(cfg.QueueDepth - 1),
		qpow2:    cfg.NumOrderQueues&(cfg.NumOrderQueues-1) == 0,
		coreUp:   make([]bool, cfg.NumCores),
		upCount:  cfg.NumCores,
		headWait: &waitAgg{},
	}
	for i := range p.coreUp {
		p.coreUp[i] = true
	}
	if p.qpow2 {
		p.qmask = uint32(cfg.NumOrderQueues - 1)
	}
	for i := range p.queues {
		p.queues[i].info = make([]reorderInfo, cfg.QueueDepth)
		p.queues[i].buf = make([]bufSlot, cfg.QueueDepth)
		p.queues[i].ref = &queueRef{p: p, qi: uint8(i)}
	}
	return p, nil
}

// Stats returns a snapshot of the counters.
func (p *PLB) Stats() Stats { return p.stats }

// windowBits is log2(QueueDepth): the number of PSN bits the legal check
// compares (12 at the paper's 4K depth).
func (p *PLB) windowBits() int { return bits.TrailingZeros16(p.mask + 1) }

// OrdQueueFor returns the order queue index for a flow hash (get_ordq_idx).
// Power-of-two queue counts (the common case, and what hardware uses) take
// the division-free mask path; other counts keep the exact `%` mapping.
func (p *PLB) OrdQueueFor(flowHash uint32) uint8 {
	if p.qpow2 {
		return uint8(flowHash & p.qmask)
	}
	return uint8(flowHash % uint32(len(p.queues)))
}

// Dispatch admits a packet into PLB: it selects the order queue by flow
// hash, assigns the PSN, appends reorder info to the FIFO, and picks the
// next core round-robin. It returns the target core and the meta header to
// attach. ok=false means the FIFO was full and the packet must be dropped
// (the heavy-hitter overrun case, paper constraint C1).
func (p *PLB) Dispatch(flowHash uint32) (core int, meta packet.Meta, ok bool) {
	now := p.engine.Now()
	qi := p.OrdQueueFor(flowHash)
	q := &p.queues[qi]
	depth := uint16(p.cfg.QueueDepth)
	if now < q.clampUntil && q.depthClamp < depth {
		// Reorder-queue stress: the FIFO behaves as if shallower.
		depth = q.depthClamp
	}
	if q.tail-q.head >= depth {
		p.stats.DispatchDrops++
		return 0, packet.Meta{}, false
	}
	if p.upCount == 0 {
		// Every core evicted from the spray mask: nowhere to send.
		p.stats.MaskDrops++
		return 0, packet.Meta{}, false
	}
	psn := q.tail
	q.tail++
	idx := psn & p.mask
	// A fresh FIFO entry must not see a stale BUF slot from 4K PSNs ago.
	q.buf[idx].valid = false
	q.buf[idx].dropped = false

	// Round-robin over the spray mask. With all cores up this consumes the
	// cursor exactly like the unmasked path (one increment per dispatch).
	for {
		core = p.rr
		p.rr++
		if p.rr >= p.cfg.NumCores {
			p.rr = 0
		}
		if p.coreUp[core] {
			break
		}
	}
	q.info[idx] = reorderInfo{psn: psn, core: uint8(core), enq: now}
	p.stats.Dispatched++

	meta = packet.Meta{
		PSN:       psn,
		OrdQ:      qi,
		PodID:     p.cfg.PodID,
		IngressNS: int64(now),
	}
	// The first packet of an idle queue arms the head timer; a non-empty
	// queue already has one pending (its head entry did not change).
	if !q.armed {
		p.armTimer(qi)
	}
	return core, meta, true
}

// inWindow is the legal check: psn's low windowBits bits against [head,
// tail) in modulo-depth arithmetic. head/tail are free-running 16-bit
// counters with tail-head <= depth.
func (p *PLB) inWindow(psn, head, tail uint16) bool {
	inflight := tail - head
	if inflight == 0 {
		return false
	}
	if int(inflight) >= p.cfg.QueueDepth {
		// Full FIFO: every low-bit value aliases into the window.
		return true
	}
	m := p.mask
	pp, h, t := psn&m, head&m, tail&m
	if h < t {
		return pp >= h && pp < t
	}
	return pp >= h || pp < t
}

// Return hands a processed packet back from a CPU core (the TX data queue
// path). The legal check either admits it into BUF/BITMAP or transmits it
// best-effort; then the reorder check drains the FIFO head.
func (p *PLB) Return(item any, meta packet.Meta) {
	now := p.engine.Now()
	if int(meta.OrdQ) >= len(p.queues) {
		// Corrupt meta: treat as best-effort.
		p.emitBestEffort(item, meta, now)
		return
	}
	q := &p.queues[meta.OrdQ]
	if !p.inWindow(meta.PSN, q.head, q.tail) {
		// Legal-check failure: a timed-out packet. Best-effort transmit,
		// except header-only packets whose payload is gone.
		if meta.Flags&packet.MetaFlagHeaderOnly != 0 && p.cfg.PayloadRetained != nil &&
			!p.cfg.PayloadRetained(meta, now) {
			p.stats.HeaderDrops++
			return
		}
		if meta.Flags&packet.MetaFlagDrop != 0 {
			// Dropped by the pod and already timed out: nothing to free.
			return
		}
		p.emitBestEffort(item, meta, now)
		p.drain(meta.OrdQ)
		return
	}
	idx := meta.PSN & p.mask
	slot := &q.buf[idx]
	slot.valid = true
	slot.psn = meta.PSN
	slot.item = item
	slot.dropped = meta.Flags&packet.MetaFlagDrop != 0
	p.drain(meta.OrdQ)
}

// slotMeta rebuilds the header of a packet buffered in queue qi.
func (p *PLB) slotMeta(slot *bufSlot, qi uint8) packet.Meta {
	return packet.Meta{PSN: slot.psn, OrdQ: qi, PodID: p.cfg.PodID}
}

func (p *PLB) emitBestEffort(item any, meta packet.Meta, now sim.Time) {
	p.stats.EmittedBestEffort++
	if p.emit != nil {
		p.emit(Emission{Item: item, Meta: meta, Time: now, InOrder: false})
	}
}

// drain runs the reorder check at queue qi's FIFO head until it blocks.
func (p *PLB) drain(qi uint8) {
	now := p.engine.Now()
	q := &p.queues[qi]
	for q.head != q.tail {
		idx := q.head & p.mask
		info := q.info[idx]
		slot := &q.buf[idx]
		age := now.Sub(info.enq)

		if now < q.holdUntil {
			// Forced HOL stress (StressQueue): heads release only via the
			// timeout path while the hold window is active. A packet that
			// did return leaves best-effort — its ordering guarantee is
			// already lost.
			if age < p.cfg.Timeout {
				p.armTimer(qi)
				return
			}
			p.noteHeadWait(age)
			p.stats.TimeoutReleases++
			if slot.valid {
				if !slot.dropped {
					p.emitBestEffort(slot.item, p.slotMeta(slot, qi), now)
				}
				slot.valid = false
				slot.item = nil
			}
			q.head++
			continue
		}

		switch {
		case slot.valid && slot.psn == info.psn:
			// Case 4 (or a drop-flag release).
			p.noteHeadWait(age)
			if slot.dropped {
				p.stats.DropFlagReleases++
			} else {
				p.stats.EmittedInOrder++
				if p.emit != nil {
					p.emit(Emission{Item: slot.item, Meta: p.slotMeta(slot, qi), Time: now, InOrder: true})
				}
			}
			slot.valid = false
			slot.item = nil
			q.head++
		case slot.valid && slot.psn != info.psn:
			// Case 3: a stale (timed-out) packet aliased through the legal
			// check. Send it best-effort; keep waiting for the real head.
			p.stats.StaleEmissions++
			p.emitBestEffort(slot.item, p.slotMeta(slot, qi), now)
			slot.valid = false
			slot.item = nil
			if info.evicted {
				// The true packet died with its core: nothing to wait for.
				p.stats.EvictedReleases++
				q.head++
				continue
			}
			// Do not advance head: the true packet may still arrive.
			if age >= p.cfg.Timeout {
				p.noteHeadWait(age)
				p.stats.TimeoutReleases++
				q.head++
				continue
			}
			p.armTimer(qi)
			return
		default:
			if info.evicted {
				// The spray core failed holding this packet: its return will
				// never come. Release immediately instead of waiting out the
				// 100µs timeout, so a core failure does not become a
				// timeout storm for every tenant sharing the queue.
				p.stats.EvictedReleases++
				q.head++
				continue
			}
			// Case 2: not yet returned.
			if age >= p.cfg.Timeout {
				// Case 1: release the head.
				p.noteHeadWait(age)
				p.stats.TimeoutReleases++
				q.head++
				continue
			}
			p.armTimer(qi)
			return
		}
	}
	// Queue drained: any still-pending timer fires as a harmless no-op on
	// the empty queue, so nothing to cancel.
}

// armTimer schedules the head-timeout event for queue qi. Head deadlines
// are monotone, so an already-armed timer (necessarily at an earlier or
// equal deadline) is kept: it fires, finds the head not yet expired, and
// this function re-arms at the true deadline. Timers are therefore never
// cancelled and Dispatch never reschedules one per packet.
func (p *PLB) armTimer(qi uint8) {
	q := &p.queues[qi]
	if q.head == q.tail || q.armed {
		return
	}
	idx := q.head & p.mask
	deadline := q.info[idx].enq.Add(p.cfg.Timeout)
	now := p.engine.Now()
	if deadline < now {
		deadline = now
	}
	q.armed = true
	q.timerAt = deadline
	p.engine.AtArg(deadline, queueTimerFire, q.ref)
}

func (p *PLB) noteHeadWait(d sim.Duration) {
	p.headWait.add(d)
	if d > p.cfg.HOLThreshold {
		p.stats.HOLEvents++
	}
}

// HeadWaitMean returns the mean FIFO-head wait.
func (p *PLB) HeadWaitMean() sim.Duration {
	if p.headWait.count == 0 {
		return 0
	}
	return p.headWait.sum / sim.Duration(p.headWait.count)
}

// HeadWaitMax returns the maximum observed FIFO-head wait.
func (p *PLB) HeadWaitMax() sim.Duration { return p.headWait.max }

// EvictCore removes core from the spray mask (Dispatch stops selecting it)
// and immediately releases the reorder state of its un-returned in-flight
// packets, so tenants sharing an order queue with a dead core see bounded
// extra disorder instead of a 100µs timeout per lost packet. It returns the
// number of FIFO entries marked lost, bounded by the core's RX queue depth
// plus one (the in-service packet). Evicting an already-evicted or unknown
// core is a no-op.
func (p *PLB) EvictCore(core int) int {
	if core < 0 || core >= len(p.coreUp) || !p.coreUp[core] {
		return 0
	}
	p.coreUp[core] = false
	p.upCount--
	marked := 0
	for qi := range p.queues {
		q := &p.queues[qi]
		for psn := q.head; psn != q.tail; psn++ {
			idx := psn & p.mask
			if q.info[idx].core == uint8(core) && !q.buf[idx].valid && !q.info[idx].evicted {
				q.info[idx].evicted = true
				marked++
			}
		}
		p.drain(uint8(qi))
	}
	return marked
}

// RestoreCore returns an evicted core to the spray mask (the recovery half
// of EvictCore). Restoring a live or unknown core is a no-op.
func (p *PLB) RestoreCore(core int) {
	if core < 0 || core >= len(p.coreUp) || p.coreUp[core] {
		return
	}
	p.coreUp[core] = true
	p.upCount++
}

// CoreUp reports whether core is in the spray mask.
func (p *PLB) CoreUp(core int) bool {
	return core >= 0 && core < len(p.coreUp) && p.coreUp[core]
}

// StressQueue applies reorder-engine stress to order queue q for duration d
// (fault injection). holdHeads forces every FIFO head to wait out the full
// reorder timeout before release (forced HOL / timeout storm); depthClamp,
// when in (0, QueueDepth), shrinks the FIFO's effective capacity so
// dispatches overflow (FIFO-full drops). Both effects expire on their own
// at now+d.
func (p *PLB) StressQueue(q int, d sim.Duration, holdHeads bool, depthClamp int) error {
	if q < 0 || q >= len(p.queues) {
		return fmt.Errorf("plb: stress queue %d out of range [0,%d): %w", q, len(p.queues), errs.BadConfig)
	}
	if d <= 0 {
		return fmt.Errorf("plb: stress duration %v must be positive: %w", d, errs.BadConfig)
	}
	oq := &p.queues[q]
	until := p.engine.Now().Add(d)
	if holdHeads && until > oq.holdUntil {
		oq.holdUntil = until
	}
	if depthClamp > 0 && depthClamp < p.cfg.QueueDepth {
		if until > oq.clampUntil {
			oq.clampUntil = until
		}
		oq.depthClamp = uint16(depthClamp)
	}
	return nil
}

// Flush abandons all reorder state (the abrupt pod-crash path): buffered
// packets that carry no drop flag are handed to onItem for resource
// reclamation instead of being emitted, every FIFO resets to empty, and
// stress windows clear. It returns the number of FIFO entries discarded.
// Pending queue timers fire as no-ops on the emptied queues.
func (p *PLB) Flush(onItem func(item any)) int {
	flushed := 0
	for qi := range p.queues {
		q := &p.queues[qi]
		for psn := q.head; psn != q.tail; psn++ {
			idx := psn & p.mask
			slot := &q.buf[idx]
			if slot.valid {
				if onItem != nil && !slot.dropped {
					onItem(slot.item)
				}
				slot.valid = false
				slot.item = nil
			}
			flushed++
		}
		q.head = q.tail
		q.holdUntil = 0
		q.clampUntil = 0
		q.depthClamp = 0
	}
	p.stats.Flushed += uint64(flushed)
	return flushed
}
