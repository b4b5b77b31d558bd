package cluster

// The engine protocol, at every worker count: each cluster member runs on
// its own lane — member i owns lane i of a sim.ShardedEngine, one engine
// per member — and k ≥ 1 workers advance the lanes at each epoch barrier,
// worker j taking members j, j+k, … one at a time. Everything that couples
// members — the workload arrival process, the fault injector, the ECMP
// spray decision — runs on the control engine.
//
// Members interact with the rest of the cluster at exactly two points, and
// both already flow through the control plane:
//
//   - The ECMP ring reads each member's route eligibility (BGP RouteUp
//     plus the administrative adminUntil threshold) when an arrival is
//     sprayed. RouteUp only changes inside lane-local BFD probe and
//     re-advertisement events, and each session exposes a conservative
//     lower bound on its next possible change (bgp.SimSession.
//     NextTransition). The minimum over members is the cluster's lookahead
//     horizon: arrivals strictly below it can be routed on the control
//     engine without advancing any lane, which is what lets thousands of
//     routing decisions amortize one epoch barrier.
//   - Packet delivery into the owning member's ingress pod. Deliveries are
//     value-typed entries in the member's own mailbox (no boxing, no
//     per-packet allocation) consumed by its worker in (timestamp, control
//     order) — a deterministic merge, since the control engine is the only
//     producer and it runs single-threaded.
//
// Node-granularity faults mutate lane-owned state (uplink sessions, pod
// lifecycles), so they first bring every lane to the control clock
// (SyncShards), which also invalidates the cached horizon — the only way a
// session's bound moves earlier is InjectFlap, and it only runs here.
// Everything else — ECMP counters, member lifecycle bookkeeping, recovery
// timers — is control-plane state and never races a worker: workers are
// quiescent (parked at the epoch barrier) whenever control events run.

import (
	"albatross/internal/sim"
	"albatross/internal/workload"
)

// mailEntry is one buffered control→lane packet delivery.
type mailEntry struct {
	at    sim.Time
	bytes int32
	flow  workload.Flow
}

// mailbox buffers control→lane deliveries to one member between epoch
// barriers. The control goroutine appends while the member's worker is
// parked; the worker consumes while the control goroutine waits at the
// barrier — the spawn/join edges of each epoch order the two. The backing
// array is recycled once fully drained.
type mailbox struct {
	queue []mailEntry
	next  int
}

// post buffers a delivery for member m at the current control time.
func (c *Cluster) post(m *Member, f workload.Flow, bytes int) {
	mb := &c.mail[m.Index]
	if mb.next > 0 && mb.next == len(mb.queue) {
		mb.queue = mb.queue[:0]
		mb.next = 0
	}
	mb.queue = append(mb.queue, mailEntry{
		at:    c.Engine.Now(),
		bytes: int32(bytes),
		flow:  f,
	})
}

// advanceLane is the ShardedEngine advance hook: move member lane's engine
// to target, interleaving its mailbox with its event loop. Each delivery
// lands after every lane-local event at or before its timestamp: the
// pipeline and probe timers racing an arrival were armed earlier. Runs on
// the member's worker at the epoch barrier (or on the control goroutine
// inside a SyncShards).
func (c *Cluster) advanceLane(lane int, target sim.Time) {
	mb := &c.mail[lane]
	eng := c.sharded.Lane(lane)
	for mb.next < len(mb.queue) {
		e := &mb.queue[mb.next]
		if e.at > target {
			break
		}
		mb.next++
		eng.RunUntil(e.at)
		c.members[lane].Node.Ingress(e.flow, int(e.bytes))
	}
	eng.RunUntil(target)
}

// nextBoundary is the ShardedEngine lookahead hook: the earliest future
// virtual time at which any member's route eligibility could change. The
// engine caches the result, so this O(members) walk runs per transition, not
// per epoch.
func (c *Cluster) nextBoundary() sim.Time {
	b := sim.TimeMax
	for _, m := range c.members {
		if t := m.Node.Uplink().NextTransition(); t < b {
			b = t
		}
	}
	return b
}
