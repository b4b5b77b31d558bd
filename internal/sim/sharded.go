package sim

import (
	"fmt"
	"sync"
)

// ShardedEngine runs one control engine plus N shard engines under a
// conservative parallel discrete-event protocol, producing byte-identical
// results at any shard count.
//
// The model: the owner partitions its simulated components across the shard
// engines so that shard-internal events never touch another shard's state.
// Everything that *couples* shards — workload arrival processes, fault
// injectors, cross-shard routing decisions — lives on the control engine.
// Execution proceeds in epochs:
//
//  1. Compute the lookahead horizon: the earliest future virtual time at
//     which any shard could change state visible to the control plane (the
//     owner's boundary function — for a cluster, the next possible BGP
//     route transition). Shard state is frozen below that horizon, so
//     control events strictly before it may read it without advancing the
//     shards.
//  2. Batch-execute control events up to the epoch target (min of horizon,
//     deadline, and a chunk cap that bounds mailbox growth). A control
//     event that must touch shard state directly (a fault injection) calls
//     SyncShards first, which serially advances every shard to the control
//     clock and invalidates the cached boundary.
//  3. Advance all shards in parallel to the epoch target. The owner's
//     advance function interleaves each shard's mailbox of buffered
//     cross-shard injections with its event loop in deterministic
//     (timestamp, control order) merge order.
//
// Tie order at the epoch boundary: shard-internal events at time T run
// before a control-plane injection at T — the order one engine would give
// them, since shard events at T were armed at least one probe/service
// interval earlier than the injection was posted.
//
// The boundary is cached: the owner's function (a walk over every component)
// is called again only once the horizon has reached the cached value or
// SyncShards has invalidated it. That is sound when shard-local events only
// ever move the bound later and anything that can move it earlier runs in
// control context after SyncShards — the contract SetBoundary states.
type ShardedEngine struct {
	control *Engine
	shards  []*Engine

	// advance moves shard i to target, draining its mailbox in merge order.
	advance func(shard int, target Time)
	// boundary returns the earliest future cross-visible shard transition.
	boundary func() Time
	// chunk caps an epoch's length so mailboxes stay bounded even when the
	// horizon is far away (an all-healthy fleet has no upcoming transition).
	chunk Duration

	// horizon is the virtual time every shard has reached.
	horizon Time
	// bound caches the owner's boundary; it is stale once the horizon has
	// reached it. SyncShards zeroes it: a control event may have mutated
	// shard state and moved the boundary earlier.
	bound Time
}

// DefaultShardChunk caps epoch length (and so per-epoch mailbox growth)
// when no cross-shard transition is on the horizon.
const DefaultShardChunk = 5 * Millisecond

// NewShardedEngine creates a control engine plus n shard engines. All n+1
// engines report Pending through atomic mirrors so progress is observable
// from any goroutine mid-run.
func NewShardedEngine(n int) *ShardedEngine {
	if n < 1 {
		panic(fmt.Sprintf("sim: ShardedEngine needs at least 1 shard, got %d", n))
	}
	g := &ShardedEngine{
		control: NewEngine(),
		shards:  make([]*Engine, n),
		chunk:   DefaultShardChunk,
	}
	g.control.markShared()
	for i := range g.shards {
		g.shards[i] = NewEngine()
		g.shards[i].markShared()
	}
	return g
}

// Control returns the control engine: the clock the owner's coordinator
// state lives on (workload sources, fault schedules, cross-shard routing).
func (g *ShardedEngine) Control() *Engine { return g.control }

// NumShards returns the shard count.
func (g *ShardedEngine) NumShards() int { return len(g.shards) }

// Shard returns shard i's engine.
func (g *ShardedEngine) Shard(i int) *Engine { return g.shards[i] }

// Pending sums live queued events across the control and shard engines. It
// reads atomic mirrors, so it is safe from any goroutine mid-run.
func (g *ShardedEngine) Pending() int {
	n := g.control.Pending()
	for _, s := range g.shards {
		n += s.Pending()
	}
	return n
}

// SetAdvance installs the owner's shard-advance function. It is called once
// per shard per epoch — concurrently across shards, never concurrently for
// one shard — and must (a) deliver every buffered cross-shard injection
// with timestamp <= target in merge order, interleaved with RunUntil to the
// injection's timestamp, and (b) finish with RunUntil(target). Without one,
// shards advance with a bare RunUntil.
func (g *ShardedEngine) SetAdvance(fn func(shard int, target Time)) { g.advance = fn }

// SetBoundary installs the owner's lookahead-horizon function: the earliest
// future virtual time at which any shard's control-visible state could
// change (TimeMax when none). Its result is kept until the horizon reaches
// it, so shard-local events may only move the bound later; a mutation that
// can move it earlier must follow a SyncShards. Without a function the
// horizon is unbounded and epochs are paced by the chunk cap alone.
func (g *ShardedEngine) SetBoundary(fn func() Time) { g.boundary = fn }

// SyncShards serially advances every shard to the control clock and
// invalidates the cached boundary. A control event must call it before
// reading or mutating shard-owned state (node fault injection, pod lifecycle
// ops), so the mutation lands at exactly the control time with every earlier
// shard-local event already executed.
func (g *ShardedEngine) SyncShards() {
	now := g.control.Now()
	if now < g.horizon {
		panic(fmt.Sprintf("sim: control clock %v behind shard horizon %v", now, g.horizon))
	}
	g.advanceAll(now, false)
	g.bound = 0
}

// nextBoundary returns the lookahead horizon, asking the owner only when the
// cached value is stale, and asserts progress: a boundary at or before the
// horizon would stall the epoch loop, and since every shard has already
// executed its events through the horizon it can only be a stale value — a
// bug in the owner's boundary function.
func (g *ShardedEngine) nextBoundary() Time {
	if g.boundary == nil {
		return TimeMax
	}
	if g.bound <= g.horizon {
		g.bound = g.boundary()
		if g.bound <= g.horizon {
			panic(fmt.Sprintf("sim: boundary %v not ahead of shard horizon %v", g.bound, g.horizon))
		}
	}
	return g.bound
}

// advanceAll moves every shard to target — in parallel at the epoch barrier,
// serially inside SyncShards (rare, and the control event needs the shards
// quiescent immediately after). target == horizon still drains mailboxes:
// control events processed at the horizon may have posted same-timestamp
// injections.
func (g *ShardedEngine) advanceAll(target Time, parallel bool) {
	if parallel && len(g.shards) > 1 {
		var wg sync.WaitGroup
		wg.Add(len(g.shards))
		for i := range g.shards {
			go func(i int) {
				defer wg.Done()
				g.advanceShard(i, target)
			}(i)
		}
		wg.Wait()
	} else {
		for i := range g.shards {
			g.advanceShard(i, target)
		}
	}
	if target > g.horizon {
		g.horizon = target
	}
}

func (g *ShardedEngine) advanceShard(i int, target Time) {
	if g.advance != nil {
		g.advance(i, target)
		return
	}
	g.shards[i].RunUntil(target)
}

// RunUntil advances the whole system — control engine and all shards — to
// the deadline under the epoch protocol. Results are byte-identical at any
// shard count.
func (g *ShardedEngine) RunUntil(deadline Time) {
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
		// boundary wait for the next epoch: the shard transition at the
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
		g.advanceAll(target, true)
	}
	// Control events exactly at the deadline (deadline == boundary case)
	// run after the shards arrive, then any same-timestamp injections they
	// posted are delivered: RunUntil is inclusive, like Engine.RunUntil.
	g.control.RunUntil(deadline)
	g.advanceAll(deadline, true)
}
