package sim

import (
	"fmt"
	"sync"
)

// ShardedEngine runs one control engine plus one engine per lane under a
// conservative parallel discrete-event protocol, advancing the lanes on k
// worker goroutines and producing byte-identical results at any worker
// count.
//
// The model: the owner gives each independent simulated component (a
// cluster member) its own lane, so a lane's events never touch another
// lane's state. Everything that *couples* lanes — workload arrival
// processes, fault injectors, cross-lane routing decisions — lives on the
// control engine. Execution proceeds in epochs:
//
//  1. Compute the lookahead horizon: the earliest future virtual time at
//     which any lane could change state visible to the control plane (the
//     owner's boundary function — for a cluster, the next possible BGP
//     route transition). Lane state is frozen below that horizon, so
//     control events strictly before it may read it without advancing the
//     lanes.
//  2. Batch-execute control events up to the epoch target (min of horizon,
//     deadline, and a chunk cap that bounds mailbox growth). A control
//     event that must touch lane state directly (a fault injection) calls
//     SyncShards first, which serially advances every lane to the control
//     clock and invalidates the cached boundary.
//  3. Advance every lane to the epoch target. Worker j advances lanes j,
//     j+k, j+2k, … one at a time in index order; one worker runs on the
//     calling goroutine. The owner's advance function interleaves a lane's
//     mailbox of buffered cross-lane injections with its event loop in
//     deterministic (timestamp, control order) merge order.
//
// Lane-major order is exact: a lane's events depend only on its own state
// and its own mailbox, so running one lane to the target before the next
// starts executes every lane's events in the order one shared engine would
// have given them — only the interleaving across lanes differs, and nothing
// observes it.
//
// Tie order at the epoch boundary: lane events at time T run before a
// control-plane injection at T — the order one engine would give them,
// since lane events at T were armed at least one probe/service interval
// earlier than the injection was posted.
//
// The boundary is cached: the owner's function (a walk over every component)
// is called again only once the horizon has reached the cached value or
// SyncShards has invalidated it. That is sound when lane-local events only
// ever move the bound later and anything that can move it earlier runs in
// control context after SyncShards — the contract SetBoundary states.
type ShardedEngine struct {
	control *Engine
	lanes   []*Engine
	// workers is the goroutine count that advances the lanes per epoch.
	workers int

	// advance moves lane i to target, draining its mailbox in merge order.
	advance func(lane int, target Time)
	// boundary returns the earliest future cross-visible lane transition.
	boundary func() Time
	// chunk caps an epoch's length so mailboxes stay bounded even when the
	// horizon is far away (an all-healthy fleet has no upcoming transition).
	chunk Duration

	// horizon is the virtual time every lane has reached.
	horizon Time
	// bound caches the owner's boundary; it is stale once the horizon has
	// reached it. SyncShards zeroes it: a control event may have mutated
	// lane state and moved the boundary earlier.
	bound Time
}

// DefaultShardChunk caps epoch length (and so per-epoch mailbox growth)
// when no cross-lane transition is on the horizon.
const DefaultShardChunk = 5 * Millisecond

// NewShardedEngine creates a control engine whose lanes (added with
// AddLane) advance on the given number of workers. Every engine publishes
// its pending count, so progress is observable from any goroutine mid-run.
func NewShardedEngine(workers int) *ShardedEngine {
	if workers < 1 {
		panic(fmt.Sprintf("sim: ShardedEngine needs at least 1 worker, got %d", workers))
	}
	g := &ShardedEngine{
		control: NewEngine(),
		workers: workers,
		chunk:   DefaultShardChunk,
	}
	g.control.markShared()
	return g
}

// Control returns the control engine: the clock the owner's coordinator
// state lives on (workload sources, fault schedules, cross-lane routing).
func (g *ShardedEngine) Control() *Engine { return g.control }

// AddLane appends a lane and returns its engine, its clock at the horizon.
// Mid-run, call it from control context after SyncShards, so the lane
// starts at the control clock like every other lane.
func (g *ShardedEngine) AddLane() *Engine {
	e := NewEngine()
	e.now = g.horizon
	e.markShared()
	g.lanes = append(g.lanes, e)
	return e
}

// Lane returns lane i's engine.
func (g *ShardedEngine) Lane(i int) *Engine { return g.lanes[i] }

// Pending sums live queued events across the control and lane engines. It
// reads the counts each engine publishes: once per lane per epoch, once
// per batch of control events, and on every change while an engine is at
// rest. So it is safe from any goroutine mid-run, where it trails by at
// most an epoch, and exact for the control goroutine between runs.
func (g *ShardedEngine) Pending() int {
	n := g.control.published()
	for _, e := range g.lanes {
		n += e.published()
	}
	return n
}

// SetAdvance installs the owner's lane-advance function. It is called once
// per lane per epoch — concurrently across workers, never concurrently for
// one worker's lanes — and must (a) deliver every buffered cross-lane
// injection with timestamp <= target in merge order, interleaved with
// RunUntil to the injection's timestamp, and (b) finish with
// RunUntil(target). Without one, lanes advance with a bare RunUntil.
func (g *ShardedEngine) SetAdvance(fn func(lane int, target Time)) { g.advance = fn }

// SetBoundary installs the owner's lookahead-horizon function: the earliest
// future virtual time at which any lane's control-visible state could
// change (TimeMax when none). Its result is kept until the horizon reaches
// it, so lane-local events may only move the bound later; a mutation that
// can move it earlier must follow a SyncShards. Without a function the
// horizon is unbounded and epochs are paced by the chunk cap alone.
func (g *ShardedEngine) SetBoundary(fn func() Time) { g.boundary = fn }

// SyncShards serially advances every lane to the control clock and
// invalidates the cached boundary. A control event must call it before
// reading or mutating lane-owned state (node fault injection, pod lifecycle
// ops), so the mutation lands at exactly the control time with every earlier
// lane-local event already executed.
func (g *ShardedEngine) SyncShards() {
	now := g.control.Now()
	if now < g.horizon {
		panic(fmt.Sprintf("sim: control clock %v behind lane horizon %v", now, g.horizon))
	}
	g.advanceAll(now, false)
	g.bound = 0
}

// nextBoundary returns the lookahead horizon, asking the owner only when the
// cached value is stale, and asserts progress: a boundary at or before the
// horizon would stall the epoch loop, and since every lane has already
// executed its events through the horizon it can only be a stale value — a
// bug in the owner's boundary function.
func (g *ShardedEngine) nextBoundary() Time {
	if g.boundary == nil {
		return TimeMax
	}
	if g.bound <= g.horizon {
		g.bound = g.boundary()
		if g.bound <= g.horizon {
			panic(fmt.Sprintf("sim: boundary %v not ahead of lane horizon %v", g.bound, g.horizon))
		}
	}
	return g.bound
}

// advanceAll moves every lane to target — on the workers at the epoch
// barrier, serially inside SyncShards (rare, and the control event needs the
// lanes quiescent immediately after). target == horizon still drains
// mailboxes: control events processed at the horizon may have posted
// same-timestamp injections.
func (g *ShardedEngine) advanceAll(target Time, parallel bool) {
	if parallel && g.workers > 1 {
		var wg sync.WaitGroup
		wg.Add(g.workers - 1)
		for w := 1; w < g.workers; w++ {
			go func(w int) {
				defer wg.Done()
				g.advanceWorker(w, target)
			}(w)
		}
		g.advanceWorker(0, target)
		wg.Wait()
	} else {
		for i := range g.lanes {
			g.advanceLane(i, target)
		}
	}
	if target > g.horizon {
		g.horizon = target
	}
}

// advanceWorker moves worker w's lanes — w, w+k, w+2k, … — to target, one
// lane at a time.
func (g *ShardedEngine) advanceWorker(w int, target Time) {
	for i := w; i < len(g.lanes); i += g.workers {
		g.advanceLane(i, target)
	}
}

// advanceLane moves lane i to target with its per-event mirror off, then
// publishes its count once.
func (g *ShardedEngine) advanceLane(i int, target Time) {
	e := g.lanes[i]
	e.mirror = false
	if g.advance != nil {
		g.advance(i, target)
	} else {
		e.RunUntil(target)
	}
	e.mirror = true
	e.publish()
}

// RunUntil advances the whole system — control engine and all lanes — to
// the deadline under the epoch protocol. Results are byte-identical at any
// worker count.
func (g *ShardedEngine) RunUntil(deadline Time) {
	// The control engine publishes once per batch, not per event.
	g.control.mirror = false
	defer g.control.markShared()
	for g.horizon < deadline {
		bound := g.nextBoundary()
		target := deadline
		if bound < target {
			target = bound
		}
		if g.chunk > 0 {
			if ce := g.horizon.Add(g.chunk); ce < target {
				target = ce
			}
		}
		// Batch control events up to the target. Events exactly at the
		// boundary wait for the next epoch: the lane transition at the
		// boundary executes first (its timer was armed earlier).
		for {
			t, ok := g.control.NextEventTime()
			if !ok || t > target || t >= bound {
				break
			}
			g.control.Step()
			if g.bound <= g.horizon {
				// The event called SyncShards (fault injection): the
				// boundary may have moved closer. Re-shrink the target; all
				// events already executed are at or before the sync point,
				// so they remain valid.
				bound = g.nextBoundary()
				if bound < target {
					target = bound
				}
			}
		}
		g.control.publish()
		g.advanceAll(target, true)
	}
	// Control events exactly at the deadline (deadline == boundary case)
	// run after the lanes arrive, then any same-timestamp injections they
	// posted are delivered: RunUntil is inclusive, like Engine.RunUntil.
	g.control.RunUntil(deadline)
	g.advanceAll(deadline, true)
}
