package sim

import (
	"fmt"
	"sync"
	"testing"
)

// shardedHarness models the smallest owner: each lane holds one periodic
// timer (the stand-in for a node's probe grid), the control engine holds an
// arrival process, and arrivals are posted into per-lane mailboxes drained
// by an advance hook — the same protocol the cluster layer uses. Every
// execution is logged as "kind@t/lane" so runs can be compared exactly.
type shardedHarness struct {
	g    *ShardedEngine
	mail [][]Time
	next []int

	mu  sync.Mutex
	log []string
}

func newShardedHarness(workers, lanes int, period Duration) *shardedHarness {
	h := &shardedHarness{
		g:    NewShardedEngine(workers),
		mail: make([][]Time, lanes),
		next: make([]int, lanes),
	}
	for i := 0; i < lanes; i++ {
		i := i
		eng := h.g.AddLane()
		var tick func(any)
		tick = func(any) {
			h.record(fmt.Sprintf("tick@%d/%d", eng.Now(), i))
			eng.AfterArg(period, tick, nil)
		}
		eng.AfterArg(period, tick, nil)
	}
	h.g.SetAdvance(func(lane int, target Time) {
		eng := h.g.Lane(lane)
		for h.next[lane] < len(h.mail[lane]) {
			at := h.mail[lane][h.next[lane]]
			if at > target {
				break
			}
			h.next[lane]++
			eng.RunUntil(at)
			h.record(fmt.Sprintf("mail@%d/%d", at, lane))
		}
		eng.RunUntil(target)
	})
	return h
}

func (h *shardedHarness) record(s string) {
	h.mu.Lock()
	h.log = append(h.log, s)
	h.mu.Unlock()
}

func (h *shardedHarness) post(lane int, at Time) {
	h.mail[lane] = append(h.mail[lane], at)
}

// laneLog filters the interleaved log down to one lane's entries — the
// per-lane order is what determinism guarantees; the cross-lane
// interleaving in the slice is arbitrary (workers run in parallel).
func (h *shardedHarness) laneLog(lane int) []string {
	var out []string
	suffix := fmt.Sprintf("/%d", lane)
	for _, s := range h.log {
		if len(s) > len(suffix) && s[len(s)-len(suffix):] == suffix {
			out = append(out, s)
		}
	}
	return out
}

// TestShardedMailMergeOrder checks the core delivery invariant: each mailbox
// entry lands after every lane-local event at or before its timestamp, and
// entries with equal timestamps keep posting order.
func TestShardedMailMergeOrder(t *testing.T) {
	h := newShardedHarness(2, 2, 100)
	// Control process: every 30ns post an arrival to lane 0 at control time.
	src := h.g.Control()
	var emit func(any)
	n := 0
	emit = func(any) {
		h.post(0, src.Now())
		n++
		if n < 10 {
			src.AfterArg(30, emit, nil)
		}
	}
	src.AfterArg(30, emit, nil)

	h.g.RunUntil(400)

	want := []string{
		"mail@30/0", "mail@60/0", "mail@90/0",
		"tick@100/0",
		"mail@120/0", "mail@150/0", "mail@180/0",
		"tick@200/0",
		"mail@210/0", "mail@240/0", "mail@270/0",
		"tick@300/0",
		"mail@300/0", // posted at t=300 by a control event: after the tick
		"tick@400/0",
	}
	got := h.laneLog(0)
	if len(got) != len(want) {
		t.Fatalf("lane 0 log = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("lane 0 log[%d] = %q, want %q (full: %v)", i, got[i], want[i], got)
		}
	}
	// Lane 1 got no mail: just its probe grid.
	if got := h.laneLog(1); len(got) != 4 {
		t.Fatalf("lane 1 log = %v, want 4 ticks", got)
	}
	if h.g.control.Now() != 400 {
		t.Fatalf("control clock = %v, want 400", h.g.control.Now())
	}
}

// TestShardedBoundaryTieOrder pins the epoch tie rule: a control event
// exactly at the boundary runs after the lane transition at that time (the
// lane timer was armed earlier).
func TestShardedBoundaryTieOrder(t *testing.T) {
	h := newShardedHarness(1, 1, 100)
	h.g.SetBoundary(func() Time {
		// Next tick of the period-100 grid, computed from the horizon (the
		// time every lane has reached — the real owner derives this from
		// lane state, which is frozen at the horizon).
		return (h.g.horizon/100 + 1) * 100
	})
	src := h.g.Control()
	src.AtArg(100, func(any) { h.post(0, src.Now()) }, nil)
	h.g.RunUntil(150)

	want := []string{"tick@100/0", "mail@100/0"}
	got := h.laneLog(0)
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("boundary tie order = %v, want %v", got, want)
	}
}

// TestShardedDeterministicAcrossShardCounts runs the same four lanes on
// 1, 2, 3 and 4 workers and requires every lane's execution trace to be
// identical: a lane's events depend only on the lane and its mailbox, so
// which worker advances it, and which lanes it shares that worker with,
// cannot change them.
func TestShardedDeterministicAcrossShardCounts(t *testing.T) {
	const lanes = 4
	run := func(workers int) [][]string {
		h := newShardedHarness(workers, lanes, 70)
		src := h.g.Control()
		n := 0
		var emit func(any)
		emit = func(any) {
			h.post(n%lanes, src.Now())
			n++
			if n < 200 {
				src.AfterArg(13, emit, nil)
			}
		}
		src.AfterArg(13, emit, nil)
		h.g.chunk = 500
		h.g.RunUntil(3000)
		out := make([][]string, lanes)
		for i := range out {
			out[i] = h.laneLog(i)
		}
		return out
	}
	base := run(1)
	mails := 0
	for i, log := range base {
		ticks := 0
		for _, s := range log {
			if s[0] == 'm' {
				mails++
			} else {
				ticks++
			}
		}
		if ticks != 42 {
			t.Fatalf("lane %d ran %d ticks, want 42", i, ticks)
		}
	}
	if mails != 200 {
		t.Fatalf("delivered %d of 200 mails", mails)
	}
	for _, k := range []int{2, 3, 4} {
		got := run(k)
		for i := range base {
			if fmt.Sprint(got[i]) != fmt.Sprint(base[i]) {
				t.Fatalf("workers=%d lane %d log = %v, want %v", k, i, got[i], base[i])
			}
		}
	}
}

// TestShardedWorkerLanes pins the lane→worker rule: worker w advances lanes
// w, w+k, w+2k, … in index order and no other lane.
func TestShardedWorkerLanes(t *testing.T) {
	g := NewShardedEngine(3)
	for i := 0; i < 7; i++ {
		g.AddLane()
	}
	var order []int
	g.SetAdvance(func(lane int, target Time) {
		order = append(order, lane)
		g.Lane(lane).RunUntil(target)
	})
	g.advanceWorker(1, 50)
	if fmt.Sprint(order) != "[1 4]" {
		t.Fatalf("worker 1 advanced lanes %v, want [1 4]", order)
	}
	for i := 0; i < 7; i++ {
		want := Time(0)
		if i%3 == 1 {
			want = 50
		}
		if got := g.Lane(i).Now(); got != want {
			t.Fatalf("lane %d at %v after worker 1's advance, want %v", i, got, want)
		}
	}
}

// TestShardedAddLaneAtHorizon checks a lane added mid-run: it starts at the
// horizon, so what it arms relative to now lands at the control clock's
// offsets, and the next epochs advance it with the others.
func TestShardedAddLaneAtHorizon(t *testing.T) {
	h := newShardedHarness(2, 2, 100)
	var added *Engine
	var fired Time
	ctl := h.g.Control()
	ctl.AtArg(250, func(any) {
		h.g.SyncShards()
		added = h.g.AddLane()
		h.mail = append(h.mail, nil)
		h.next = append(h.next, 0)
		added.AfterArg(30, func(any) { fired = added.Now() }, nil)
	}, nil)
	h.g.RunUntil(400)
	if added == nil {
		t.Fatal("control event did not run")
	}
	if fired != 280 {
		t.Fatalf("event armed 30ns after adding the lane at 250 fired at %v, want 280", fired)
	}
	if got := added.Now(); got != 400 {
		t.Fatalf("added lane at %v after RunUntil(400), want 400", got)
	}
}

// TestShardedSyncShards checks that SyncShards brings every lane exactly to
// the control clock (with pending mail delivered) and that the next epoch
// resumes cleanly.
func TestShardedSyncShards(t *testing.T) {
	h := newShardedHarness(2, 2, 100)
	src := h.g.Control()
	src.AtArg(50, func(any) { h.post(1, src.Now()) }, nil)
	src.AtArg(130, func(any) {
		h.g.SyncShards()
		if got := h.g.Lane(0).Now(); got != 130 {
			t.Errorf("lane 0 clock after sync = %v, want 130", got)
		}
		if got := h.g.Lane(1).Now(); got != 130 {
			t.Errorf("lane 1 clock after sync = %v, want 130", got)
		}
	}, nil)
	h.g.RunUntil(250)

	want := []string{"mail@50/1", "tick@100/1", "tick@200/1"}
	got := h.laneLog(1)
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("lane 1 log = %v, want %v", got, want)
	}
}

// TestShardedStaleBoundaryPanics pins the protocol assertion: a boundary at
// or before the horizon means the owner's lookahead function went stale,
// which would stall the epoch loop forever — fail loudly instead.
func TestShardedStaleBoundaryPanics(t *testing.T) {
	g := NewShardedEngine(1)
	g.SetBoundary(func() Time { return 10 })
	g.RunUntil(10) // first epoch: boundary 10 > horizon 0, fine
	defer func() {
		if recover() == nil {
			t.Fatal("stale boundary did not panic")
		}
	}()
	g.RunUntil(20) // boundary 10 <= horizon 10: must panic
}

// TestShardedBoundaryCached pins the boundary-cache invariant: the owner's
// boundary function is asked again only once the horizon has reached the
// bound it last returned, or after SyncShards — and a transition a control
// event introduces through SyncShards mid-epoch still shortens that epoch.
func TestShardedBoundaryCached(t *testing.T) {
	g := NewShardedEngine(2)
	g.AddLane()
	g.AddLane()
	g.chunk = 10
	calls := 0
	flap := Time(0) // a transition the owner only learns of mid-run
	g.SetBoundary(func() Time {
		calls++
		if flap > g.horizon {
			return flap
		}
		return (g.horizon/1000 + 1) * 1000
	})

	g.RunUntil(500) // 50 chunk-capped epochs, all below the bound of 1000
	if calls != 1 {
		t.Fatalf("boundary asked %d times over 50 epochs below it, want 1", calls)
	}
	g.RunUntil(1500) // the horizon reaches 1000 once
	if calls != 2 {
		t.Fatalf("boundary asked %d times after the horizon passed it once, want 2", calls)
	}

	// Inside the epoch [1500, 1510] a control event syncs the lanes and
	// moves the boundary to 1507: the event at 1508 must find the lanes
	// advanced through 1507, not parked at the sync point.
	ctl := g.Control()
	ctl.AtArg(1503, func(any) {
		g.SyncShards()
		flap = 1507
	}, nil)
	var laneAt Time
	ctl.AtArg(1508, func(any) { laneAt = g.Lane(0).Now() }, nil)
	g.RunUntil(1510)
	if laneAt != 1507 {
		t.Fatalf("control event past the new boundary saw lane 0 at %v, want 1507", laneAt)
	}
	// Once for the sync, once when the horizon reached 1507.
	if calls != 4 {
		t.Fatalf("boundary asked %d times, want 4", calls)
	}
}

// TestShardedPendingConcurrent hammers Pending from a spectator goroutine
// while the epoch loop runs — the satellite-1 fix. Under -race this fails
// loudly if Pending still reads engine internals unsynchronized.
func TestShardedPendingConcurrent(t *testing.T) {
	h := newShardedHarness(2, 4, 50)
	src := h.g.Control()
	n := 0
	var emit func(any)
	emit = func(any) {
		h.post(n%4, src.Now())
		n++
		if n < 5000 {
			src.AfterArg(7, emit, nil)
		}
	}
	src.AfterArg(7, emit, nil)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if h.g.Pending() < 0 {
					t.Error("negative pending count")
					return
				}
			}
		}
	}()
	h.g.RunUntil(50000)
	close(stop)
	wg.Wait()
	// All 4 probe grids stay armed forever: at least 4 live timers remain.
	if p := h.g.Pending(); p < 4 {
		t.Fatalf("pending after run = %d, want >= 4", p)
	}
}

// TestEngineNextEventTime covers the peek used by the epoch batch loop,
// including lazy-cancelled heap heads.
func TestEngineNextEventTime(t *testing.T) {
	e := NewEngine()
	if _, ok := e.NextEventTime(); ok {
		t.Fatal("empty engine reported a next event")
	}
	tm := e.AfterArg(10, func(any) {}, nil)
	e.AfterArg(20, func(any) {}, nil)
	if at, ok := e.NextEventTime(); !ok || at != 10 {
		t.Fatalf("next = %v,%v, want 10,true", at, ok)
	}
	tm.Stop()
	if at, ok := e.NextEventTime(); !ok || at != 20 {
		t.Fatalf("next after cancel = %v,%v, want 20,true", at, ok)
	}
	e.Step()
	if _, ok := e.NextEventTime(); ok {
		t.Fatal("drained engine reported a next event")
	}
}

// TestEnginePendingAtomicMirror checks the shared-mode mirror tracks the
// live count through schedule, cancel, and execution.
func TestEnginePendingAtomicMirror(t *testing.T) {
	e := NewEngine()
	a := e.AfterArg(10, func(any) {}, nil)
	e.markShared()
	if got := e.Pending(); got != 1 {
		t.Fatalf("pending after markShared = %d, want 1", got)
	}
	b := e.AfterArg(20, func(any) {}, nil)
	if got := e.Pending(); got != 2 {
		t.Fatalf("pending = %d, want 2", got)
	}
	a.Stop()
	if got := e.Pending(); got != 1 {
		t.Fatalf("pending after stop = %d, want 1", got)
	}
	e.Run()
	if got := e.Pending(); got != 0 {
		t.Fatalf("pending after run = %d, want 0", got)
	}
	_ = b
}
