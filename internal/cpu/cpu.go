// Package cpu models the server side of an Albatross node: CPU cores with
// bounded RX queues serving packets under virtual time, per-core
// utilization tracking, the dual-NUMA topology, and the numa_balancing
// perturbation behind the paper's Fig. 17 latency bursts.
//
// Cores are single servers: one packet in service at a time, FIFO queue in
// front, drops on queue overflow. Service times are supplied by the caller
// (the gateway service cost model); the core adds queueing delay and
// occasional stalls.
//
// A core schedules no events. It computes when each admitted packet starts
// and finishes, and its owner retires packets at their finish times (Next,
// Retire). Stall and SetSlowFactor re-time the packets that have not
// started and extend the one in service. Each completion carries an engine
// sequence number (sim.Engine.Reserve), taken when a core that scheduled
// its completions as events would have scheduled it, so an owner that
// retires in (time, sequence) order interleaves completions with the
// engine's own events exactly as such a core would.
package cpu

import (
	"fmt"

	"albatross/internal/sim"
)

// member is one admitted packet. service is its demand before the slow
// factor, kept so a later SetSlowFactor can re-time it.
type member struct {
	item    any
	service sim.Duration
	start   sim.Time
	finish  sim.Time
}

// Core is a simulated CPU core with a bounded FIFO RX queue.
type Core struct {
	ID     int
	engine *sim.Engine

	queueDepth int
	// ring holds the admitted, not yet retired packets in FIFO order at the
	// absolute positions [head, tail); slot = position & (len(ring)-1). Only
	// the head can be in service: it is once its start time has come. seq
	// orders the head's completion among the engine's events.
	ring       []member
	head, tail int
	seq        uint64

	stallUntil sim.Time
	failed     bool
	// slow multiplies the service demand of packets that start while it is
	// > 0 and != 1 (the fault layer's service-time blowup).
	slow float64

	// busyNS is the service time of retired and lost packets (including
	// stall extensions); BusyTime adds the packet in service.
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

// at returns the member at absolute position i.
func (c *Core) at(i int) *member { return &c.ring[i&(len(c.ring)-1)] }

// serving returns the packet in service at now, or nil.
func (c *Core) serving(now sim.Time) *member {
	if c.head == c.tail {
		return nil
	}
	if m := c.at(c.head); m.start <= now {
		return m
	}
	return nil
}

// scaled applies the slow factor to a service demand.
func (c *Core) scaled(service sim.Duration) sim.Duration {
	if c.slow > 0 && c.slow != 1 {
		return sim.Duration(float64(service) * c.slow)
	}
	return service
}

// BusyTime returns cumulative service time: a packet counts in full from
// the instant it starts, stall extensions included.
func (c *Core) BusyTime() sim.Duration {
	busy := c.busyNS
	if m := c.serving(c.engine.Now()); m != nil {
		busy += m.finish.Sub(m.start)
	}
	return busy
}

// Admit queues item with the given service demand. It starts when the
// packet ahead of it finishes, or now if the core is idle, but not before a
// stall ends. It returns false (and counts a drop) when the core is offline
// or the packet would wait behind a full RX queue.
func (c *Core) Admit(item any, service sim.Duration) bool {
	if c.failed {
		c.Drops++
		return false
	}
	if service < 0 {
		service = 0
	}
	now := c.engine.Now()
	start := now
	if c.head < c.tail || now < c.stallUntil {
		// Busy or stalled: the packet waits.
		waiting := c.tail - c.head
		if c.serving(now) != nil {
			waiting--
		}
		if waiting >= c.queueDepth {
			c.Drops++
			return false
		}
		if c.head < c.tail {
			start = c.at(c.tail - 1).finish
		}
		if c.stallUntil > start {
			start = c.stallUntil
		}
	}
	if c.tail-c.head == len(c.ring) {
		c.grow()
	}
	*c.at(c.tail) = member{item: item, service: service, start: start, finish: start.Add(c.scaled(service))}
	c.tail++
	if c.tail-c.head == 1 {
		c.seq = c.engine.Reserve()
	}
	return true
}

// grow doubles the ring, keeping every member at its absolute position.
func (c *Core) grow() {
	old := c.ring
	n := 2 * len(old)
	if n == 0 {
		n = 4
	}
	c.ring = make([]member, n)
	for i := c.head; i < c.tail; i++ {
		c.ring[i&(n-1)] = old[i&(len(old)-1)]
	}
}

// Pending returns the number of admitted packets not yet retired.
func (c *Core) Pending() int { return c.tail - c.head }

// Next returns the finish time and engine sequence number of the oldest
// admitted packet's completion, or sim.TimeMax when none is pending.
func (c *Core) Next() (sim.Time, uint64) {
	if c.head == c.tail {
		return sim.TimeMax, 0
	}
	return c.at(c.head).finish, c.seq
}

// Retire completes the oldest admitted packet, which finishes now: it is
// counted processed and handed to done, and then the next packet starts,
// so its completion is ordered after whatever done scheduled.
func (c *Core) Retire(done func(item any)) {
	m := c.at(c.head)
	item := m.item
	c.busyNS += m.finish.Sub(m.start)
	*m = member{}
	c.head++
	c.Processed++
	next := c.head < c.tail
	done(item)
	if next {
		c.seq = c.engine.Reserve()
	}
}

// retime recomputes start and finish of every packet not in service at
// now: each starts when its predecessor finishes, but not before the stall
// ends, and runs at the current slow factor.
func (c *Core) retime(now sim.Time) {
	i, prev := c.head, now
	if m := c.serving(now); m != nil {
		i, prev = i+1, m.finish
	}
	for ; i < c.tail; i++ {
		m := c.at(i)
		m.start = prev
		if c.stallUntil > m.start {
			m.start = c.stallUntil
		}
		m.finish = m.start.Add(c.scaled(m.service))
		prev = m.finish
	}
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
	if end := now.Add(d); end > c.stallUntil {
		c.stallUntil = end
	}
	if m := c.serving(now); m != nil {
		m.finish = m.finish.Add(d)
		c.seq = c.engine.Reserve() // the completion moves: it re-enters the order now
	}
	c.retime(now)
}

// Fail takes the core offline immediately: the in-service packet and every
// queued packet are discarded (onLost is invoked for each, oldest first, so
// callers can reclaim per-packet state) and Admit refuses new work. It
// returns the number of packets lost, which is bounded by QueueDepth+1. Fail
// on an already-failed core is a no-op.
func (c *Core) Fail(onLost func(item any)) int {
	if c.failed {
		return 0
	}
	c.failed = true
	now := c.engine.Now()
	if m := c.serving(now); m != nil {
		// Only the part served before the failure counts as busy.
		c.busyNS += min(m.finish, now).Sub(m.start)
	}
	lost := c.tail - c.head
	for ; c.head < c.tail; c.head++ {
		m := c.at(c.head)
		item := m.item
		*m = member{}
		if onLost != nil {
			onLost(item)
		}
	}
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
// (the fault layer's service-time blowup): queued packets are re-timed, the
// in-service packet keeps its completion time. factor <= 0 or 1 restores
// normal speed.
func (c *Core) SetSlowFactor(factor float64) {
	if factor <= 0 {
		factor = 1
	}
	c.slow = factor
	c.retime(c.engine.Now())
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
