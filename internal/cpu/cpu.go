// Package cpu models the server side of an Albatross node: CPU cores with
// bounded RX queues serving packets under virtual time, per-core
// utilization tracking, the dual-NUMA topology, and the numa_balancing
// perturbation behind the paper's Fig. 17 latency bursts.
//
// Cores are single servers: one packet in service at a time, FIFO queue in
// front, drops on queue overflow. Service times are supplied by the caller
// (the gateway service cost model); the core adds queueing delay and
// occasional stalls.
package cpu

import (
	"fmt"

	"albatross/internal/sim"
)

// work is one queued packet.
type work struct {
	item    any
	service sim.Duration
	done    func(item any)
}

// Core is a simulated CPU core with a bounded FIFO RX queue.
type Core struct {
	ID     int
	engine *sim.Engine

	queue      []work
	queueDepth int
	busy       bool
	current    work
	completion sim.Timer
	finishAt   sim.Time

	stallUntil sim.Time
	failed     bool

	// Arithmetic admission state (burst mode): instead of a completion event
	// per packet, Admit computes start/finish times in place. arithFree is
	// when the arithmetically-admitted backlog ends; arithRing holds the
	// start times of admitted-but-not-yet-started packets (the virtual RX
	// queue) so the depth bound still applies.
	arithFree sim.Time
	arithRing []sim.Time
	arithHead int
	arithLen  int
	// slow multiplies service demands while > 0 and != 1 (the fault layer's
	// service-time blowup). It applies to packets started after it is set;
	// an in-service packet keeps its original completion.
	slow float64

	// busyNS accumulates time spent serving (including stall extensions).
	busyNS sim.Duration

	// Stats
	Processed uint64
	Drops     uint64
	Stalls    uint64
	// Lost counts packets discarded by Fail (queued or in service).
	Lost uint64
}

// NewCore creates a core with the given RX queue depth (packets waiting,
// excluding the one in service).
func NewCore(engine *sim.Engine, id, queueDepth int) *Core {
	if queueDepth <= 0 {
		queueDepth = 1024
	}
	return &Core{ID: id, engine: engine, queueDepth: queueDepth}
}

// BusyTime returns cumulative service time.
func (c *Core) BusyTime() sim.Duration { return c.busyNS }

// Enqueue admits a packet with the given service demand; done is invoked
// when processing completes. It returns false (and counts a drop) when the
// RX queue is full.
func (c *Core) Enqueue(item any, service sim.Duration, done func(any)) bool {
	if c.failed {
		c.Drops++
		return false
	}
	if service < 0 {
		service = 0
	}
	w := work{item: item, service: service, done: done}
	if c.busy || c.engine.Now() < c.stallUntil {
		if len(c.queue) >= c.queueDepth {
			c.Drops++
			return false
		}
		c.queue = append(c.queue, w)
		if !c.busy {
			// Core idle but stalled: ensure a wake-up is scheduled.
			c.scheduleWake()
		}
		return true
	}
	c.start(w)
	return true
}

// Admit is the burst-mode counterpart of Enqueue: it applies the same
// admission rules (offline refusal, stall, bounded queue, slow factor) but
// computes the packet's start and finish times arithmetically instead of
// scheduling a completion event. The caller records the finish time and
// settles the packet later with ArithDone or ArithLost.
//
// Fidelity caveats vs Enqueue, by construction: the slow factor and stall
// state are sampled at admission (a SetSlowFactor/Stall landing inside the
// already-computed window does not stretch it), and Processed/busyNS move at
// admission/settle time rather than at the exact service instants.
func (c *Core) Admit(service sim.Duration) (start, finish sim.Time, ok bool) {
	if c.failed {
		c.Drops++
		return 0, 0, false
	}
	if service < 0 {
		service = 0
	}
	if c.slow > 0 && c.slow != 1 {
		service = sim.Duration(float64(service) * c.slow)
	}
	now := c.engine.Now()
	for c.arithLen > 0 && c.arithRing[c.arithHead] <= now {
		c.arithHead++
		if c.arithHead == len(c.arithRing) {
			c.arithHead = 0
		}
		c.arithLen--
	}
	if c.arithFree > now || now < c.stallUntil {
		if c.arithLen >= c.queueDepth {
			c.Drops++
			return 0, 0, false
		}
	}
	start = now
	if c.arithFree > start {
		start = c.arithFree
	}
	if c.stallUntil > start {
		start = c.stallUntil
	}
	finish = start.Add(service)
	c.arithFree = finish
	c.busyNS += service
	if start > now {
		if c.arithRing == nil {
			c.arithRing = make([]sim.Time, c.queueDepth+1)
		}
		tail := c.arithHead + c.arithLen
		if tail >= len(c.arithRing) {
			tail -= len(c.arithRing)
		}
		c.arithRing[tail] = start
		c.arithLen++
	}
	return start, finish, true
}

// ArithDone settles a successfully drained arithmetic admission.
func (c *Core) ArithDone() { c.Processed++ }

// ArithLost settles, at the instant the core fails, an arithmetic admission
// whose finish still lies ahead: the un-served part of its busy time is
// refunded (all of it if the packet has not started) and it counts as Lost,
// the same accounting Fail applies to evented packets.
func (c *Core) ArithLost(start, finish sim.Time) {
	if now := c.engine.Now(); now > start {
		start = now
	}
	if refund := finish.Sub(start); refund > 0 {
		c.busyNS -= refund
	}
	c.Lost++
}

// coreWake and coreFinish are the engine callbacks in arg form, so
// scheduling them reuses pooled events without a per-call closure.
func coreWake(arg any) {
	c := arg.(*Core)
	if !c.busy && c.engine.Now() >= c.stallUntil {
		c.next()
	}
}

func coreFinish(arg any) { arg.(*Core).finish() }

// scheduleWake arms a timer to begin work when the stall ends.
func (c *Core) scheduleWake() {
	c.engine.AtArg(c.stallUntil, coreWake, c)
}

func (c *Core) start(w work) {
	if c.slow > 0 && c.slow != 1 {
		w.service = sim.Duration(float64(w.service) * c.slow)
	}
	c.busy = true
	c.current = w
	c.busyNS += w.service
	c.finishAt = c.engine.Now().Add(w.service)
	c.completion = c.engine.AtArg(c.finishAt, coreFinish, c)
}

func (c *Core) finish() {
	c.completion = sim.Timer{}
	c.busy = false
	c.Processed++
	w := c.current
	c.current = work{}
	if w.done != nil {
		w.done(w.item)
	}
	c.next()
}

func (c *Core) next() {
	if c.busy || c.failed || len(c.queue) == 0 {
		return
	}
	if now := c.engine.Now(); now < c.stallUntil {
		c.scheduleWake()
		return
	}
	w := c.queue[0]
	// Shift without retaining references.
	copy(c.queue, c.queue[1:])
	c.queue[len(c.queue)-1] = work{}
	c.queue = c.queue[:len(c.queue)-1]
	c.start(w)
}

// Stall freezes the core for d (e.g. a numa_balancing task migration). If a
// packet is in service, its completion is postponed by d; queued packets
// wait correspondingly.
func (c *Core) Stall(d sim.Duration) {
	if d <= 0 {
		return
	}
	c.Stalls++
	now := c.engine.Now()
	end := now.Add(d)
	if end > c.stallUntil {
		c.stallUntil = end
	}
	if c.busy {
		// Extend the in-flight completion.
		c.completion.Stop()
		c.finishAt = c.finishAt.Add(d)
		c.busyNS += d
		c.completion = c.engine.AtArg(c.finishAt, coreFinish, c)
	} else if len(c.queue) > 0 {
		c.scheduleWake()
	}
}

// Fail takes the core offline immediately: the in-service packet and every
// queued packet are discarded (onLost is invoked for each, so callers can
// reclaim per-packet state), Enqueue refuses new work, and the completion
// timer is cancelled. It returns the number of packets lost, which is
// bounded by QueueDepth+1. Fail on an already-failed core is a no-op.
func (c *Core) Fail(onLost func(item any)) int {
	if c.failed {
		return 0
	}
	c.failed = true
	// Arithmetic admissions are settled by their owner right after Fail (via
	// ArithLost); here we just stop treating them as backlog.
	c.arithFree = c.engine.Now()
	c.arithHead, c.arithLen = 0, 0
	lost := 0
	if c.busy {
		c.completion.Stop()
		c.completion = sim.Timer{}
		c.busy = false
		// Un-account the service time the packet will never finish.
		c.busyNS -= c.finishAt.Sub(c.engine.Now())
		if onLost != nil {
			onLost(c.current.item)
		}
		c.current = work{}
		lost++
	}
	for i := range c.queue {
		if onLost != nil {
			onLost(c.queue[i].item)
		}
		c.queue[i] = work{}
		lost++
	}
	c.queue = c.queue[:0]
	c.Lost += uint64(lost)
	return lost
}

// Recover brings a failed core back online with an empty queue. It also
// clears any pending stall so the core is immediately schedulable.
func (c *Core) Recover() {
	if !c.failed {
		return
	}
	c.failed = false
	c.stallUntil = 0
}

// Failed reports whether the core is offline.
func (c *Core) Failed() bool { return c.failed }

// SetSlowFactor scales the service time of packets started from now on
// (the fault layer's service-time blowup). factor <= 0 or 1 restores
// normal speed. The in-service packet keeps its original completion time.
func (c *Core) SetSlowFactor(factor float64) {
	if factor <= 0 {
		factor = 1
	}
	c.slow = factor
}

// SlowFactor returns the active service-time multiplier (1 = healthy).
func (c *Core) SlowFactor() float64 {
	if c.slow <= 0 {
		return 1
	}
	return c.slow
}

// UtilSampler converts a core's cumulative busy time into windowed
// utilization samples.
type UtilSampler struct {
	core     *Core
	lastBusy sim.Duration
	lastTime sim.Time
}

// NewUtilSampler starts sampling core from the current virtual time.
func NewUtilSampler(core *Core) *UtilSampler {
	return &UtilSampler{core: core, lastBusy: core.BusyTime(), lastTime: core.engine.Now()}
}

// Sample returns the core's utilization (0..1+) since the previous Sample
// call. Values slightly above 1 can occur when service completions
// straddle window edges.
func (u *UtilSampler) Sample() float64 {
	now := u.core.engine.Now()
	window := now.Sub(u.lastTime)
	if window <= 0 {
		return 0
	}
	busy := u.core.BusyTime() - u.lastBusy
	u.lastBusy = u.core.BusyTime()
	u.lastTime = now
	util := float64(busy) / float64(window)
	if util < 0 {
		util = 0
	}
	return util
}

// Topology is the server's NUMA layout. Albatross production servers are
// dual-NUMA with 48 cores per node (paper §3.2).
type Topology struct {
	Nodes        int
	CoresPerNode int
}

// DefaultTopology returns the paper's dual-NUMA, 48-cores-per-node server.
func DefaultTopology() Topology { return Topology{Nodes: 2, CoresPerNode: 48} }

// TotalCores returns the core count across nodes.
func (t Topology) TotalCores() int { return t.Nodes * t.CoresPerNode }

// NodeOf returns the NUMA node that owns a core ID.
func (t Topology) NodeOf(core int) int {
	if t.CoresPerNode <= 0 {
		return 0
	}
	return core / t.CoresPerNode % t.Nodes
}

// Validate checks the topology.
func (t Topology) Validate() error {
	if t.Nodes <= 0 || t.CoresPerNode <= 0 {
		return fmt.Errorf("cpu: invalid topology %+v", t)
	}
	return nil
}

// Penalties model NUMA placement costs, calibrated to the paper's Fig. 16:
// cross-NUMA degrades VPC-VPC (memory-heavy) by ~14% and an empty service
// by ~3%.
type Penalties struct {
	// CrossMemory multiplies memory-access latency for remote allocations.
	CrossMemory float64
	// CrossCompute multiplies instruction-path time (scheduling, coherence).
	CrossCompute float64
}

// DefaultPenalties returns penalties matching the paper's observations.
func DefaultPenalties() Penalties {
	return Penalties{CrossMemory: 1.30, CrossCompute: 1.03}
}

// Balancer models the kernel's automatic NUMA balancing (Fig. 17): under
// high load it migrates tasks/pages, stalling cores at random intervals.
// Disabling it (the paper's fix) removes the stalls.
type Balancer struct {
	engine  *sim.Engine
	cores   []*Core
	rng     *sim.Rand
	enabled bool

	// Interval is the mean time between migration attempts per core.
	Interval sim.Duration
	// StallMin/StallMax bound each migration stall.
	StallMin, StallMax sim.Duration
	// LoadThreshold: only cores above this utilization are disturbed
	// (balancing triggers on busy tasks).
	LoadThreshold float64

	samplers []*UtilSampler
}

// NewBalancer creates a balancer over the given cores. Call Start to arm it.
func NewBalancer(engine *sim.Engine, cores []*Core, seed uint64) *Balancer {
	b := &Balancer{
		engine:        engine,
		cores:         cores,
		rng:           sim.NewRand(seed),
		Interval:      50 * sim.Millisecond,
		StallMin:      200 * sim.Microsecond,
		StallMax:      2 * sim.Millisecond,
		LoadThreshold: 0.8,
	}
	for _, c := range cores {
		b.samplers = append(b.samplers, NewUtilSampler(c))
	}
	return b
}

// Start enables balancing and schedules the first disturbance.
func (b *Balancer) Start() {
	b.enabled = true
	b.scheduleNext()
}

func (b *Balancer) scheduleNext() {
	if !b.enabled {
		return
	}
	delay := b.rng.Exp(b.Interval)
	b.engine.After(delay, func() {
		if !b.enabled {
			return
		}
		i := b.rng.Intn(len(b.cores))
		util := b.samplers[i].Sample()
		if util >= b.LoadThreshold {
			span := float64(b.StallMax - b.StallMin)
			stall := b.StallMin + sim.Duration(b.rng.Float64()*span)
			b.cores[i].Stall(stall)
		}
		b.scheduleNext()
	})
}
