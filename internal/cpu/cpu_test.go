package cpu

import (
	"math"
	"testing"

	"albatross/internal/sim"
)

// owner retires a core's packets the way a pod does: one timer, armed at
// the (time, sequence) of the core's next completion, so completions
// interleave with the engine's events as a per-packet event walk's would.
// done (optional) sees each retired packet with its start time.
type owner struct {
	c        *Core
	timer    sim.Timer
	at       sim.Time
	seq      uint64
	start    sim.Time
	done     func(item any, start sim.Time)
	retireFn func(item any)
}

func newOwner(c *Core, done func(item any, start sim.Time)) *owner {
	o := &owner{c: c, at: sim.TimeMax, done: done}
	o.retireFn = func(item any) {}
	if done != nil {
		o.retireFn = func(item any) { o.done(item, o.start) }
	}
	return o
}

func ownerFire(arg any) {
	o := arg.(*owner)
	o.at = sim.TimeMax
	for {
		at, seq := o.c.Next()
		if at > o.c.engine.Now() || !o.c.engine.Precedes(at, seq) {
			break
		}
		o.start = o.c.at(o.c.head).start
		o.c.Retire(o.retireFn)
	}
	o.arm()
}

// admit admits item and re-arms the timer if item completes first.
func (o *owner) admit(item any, service sim.Duration) bool {
	ok := o.c.Admit(item, service)
	o.arm()
	return ok
}

// arm keeps the timer at the core's next completion.
func (o *owner) arm() {
	at, seq := o.c.Next()
	if at == sim.TimeMax || (at == o.at && seq == o.seq) {
		return
	}
	o.timer.Stop()
	o.at, o.seq = at, seq
	o.timer = o.c.engine.AtArgSeq(at, seq, ownerFire, o)
}

func TestCoreProcessesFIFO(t *testing.T) {
	e := sim.NewEngine()
	c := NewCore(e, 0, 16)
	var done []int
	o := newOwner(c, func(item any, _ sim.Time) { done = append(done, item.(int)) })
	for i := 0; i < 5; i++ {
		if !o.admit(i, 1000) {
			t.Fatal("admit failed")
		}
	}
	e.Run()
	if len(done) != 5 {
		t.Fatalf("processed %d", len(done))
	}
	for i, v := range done {
		if v != i {
			t.Fatalf("order broken: %v", done)
		}
	}
	if e.Now() != 5000 {
		t.Fatalf("finish time = %v, want 5000 (serialized)", e.Now())
	}
	if c.Processed != 5 {
		t.Fatalf("processed counter = %d", c.Processed)
	}
}

func TestCoreQueueOverflowDrops(t *testing.T) {
	e := sim.NewEngine()
	c := NewCore(e, 0, 2)
	o := newOwner(c, nil)
	ok1 := o.admit("a", 1000) // in service
	ok2 := o.admit("b", 1000) // queued
	ok3 := o.admit("c", 1000) // queued
	ok4 := o.admit("d", 1000) // dropped
	if !ok1 || !ok2 || !ok3 || ok4 {
		t.Fatalf("admission = %v %v %v %v", ok1, ok2, ok3, ok4)
	}
	if c.Drops != 1 {
		t.Fatalf("drops = %d", c.Drops)
	}
	if c.Pending() != 3 || c.serving(e.Now()) == nil {
		t.Fatalf("pending=%d, want one in service and two queued", c.Pending())
	}
	e.Run()
	if c.Processed != 3 {
		t.Fatalf("processed = %d", c.Processed)
	}
}

func TestCoreDefaultQueueDepth(t *testing.T) {
	c := NewCore(sim.NewEngine(), 0, 0)
	if c.queueDepth != 1024 {
		t.Fatalf("default depth = %d", c.queueDepth)
	}
}

func TestCoreZeroServiceTime(t *testing.T) {
	e := sim.NewEngine()
	c := NewCore(e, 0, 4)
	n := 0
	o := newOwner(c, func(any, sim.Time) { n++ })
	o.admit(nil, 0)
	o.admit(nil, -5)
	e.Run()
	if n != 2 {
		t.Fatalf("processed %d", n)
	}
	if e.Now() != 0 {
		t.Fatalf("time advanced to %v for zero-cost work", e.Now())
	}
}

func TestCoreBusyTime(t *testing.T) {
	e := sim.NewEngine()
	c := NewCore(e, 0, 16)
	o := newOwner(c, nil)
	o.admit(nil, 3000)
	o.admit(nil, 2000)
	e.Run()
	if c.BusyTime() != 5000 {
		t.Fatalf("busy = %v", c.BusyTime())
	}
}

func TestCoreStallExtendsInService(t *testing.T) {
	e := sim.NewEngine()
	c := NewCore(e, 0, 16)
	var finished sim.Time
	o := newOwner(c, func(any, sim.Time) { finished = e.Now() })
	o.admit(nil, 1000)
	e.At(500, func() { c.Stall(2000) })
	e.Run()
	if finished != 3000 {
		t.Fatalf("finished at %v, want 3000 (1000 + 2000 stall)", finished)
	}
	if c.Stalls != 1 {
		t.Fatalf("stalls = %d", c.Stalls)
	}
}

func TestCoreStallWhileIdleDelaysNextWork(t *testing.T) {
	e := sim.NewEngine()
	c := NewCore(e, 0, 16)
	e.At(100, func() { c.Stall(1000) })
	var finished sim.Time
	o := newOwner(c, func(any, sim.Time) { finished = e.Now() })
	e.At(200, func() { o.admit(nil, 500) })
	e.Run()
	if finished != 1600 {
		t.Fatalf("finished at %v, want 1600 (wait till 1100, then 500)", finished)
	}
}

func TestCoreStallNoopOnNonPositive(t *testing.T) {
	e := sim.NewEngine()
	c := NewCore(e, 0, 16)
	c.Stall(0)
	c.Stall(-5)
	if c.Stalls != 0 {
		t.Fatal("non-positive stalls counted")
	}
}

func TestUtilSampler(t *testing.T) {
	e := sim.NewEngine()
	c := NewCore(e, 0, 1024)
	o := newOwner(c, nil)
	s := NewUtilSampler(c)
	// 50% duty cycle: 1µs work every 2µs.
	for i := 0; i < 100; i++ {
		at := sim.Time(i) * 2000
		e.At(at, func() { o.admit(nil, 1000) })
	}
	e.RunUntil(200_000)
	util := s.Sample()
	if math.Abs(util-0.5) > 0.02 {
		t.Fatalf("utilization = %v, want ~0.5", util)
	}
	// Idle window: zero.
	e.RunUntil(300_000)
	if u := s.Sample(); u != 0 {
		t.Fatalf("idle utilization = %v", u)
	}
	// Degenerate zero-width window.
	if u := s.Sample(); u != 0 {
		t.Fatalf("zero-window utilization = %v", u)
	}
}

func TestTopology(t *testing.T) {
	top := DefaultTopology()
	if err := top.Validate(); err != nil {
		t.Fatal(err)
	}
	if top.TotalCores() != 96 {
		t.Fatalf("total = %d", top.TotalCores())
	}
	if top.NodeOf(0) != 0 || top.NodeOf(47) != 0 || top.NodeOf(48) != 1 || top.NodeOf(95) != 1 {
		t.Fatal("NodeOf mapping wrong")
	}
	bad := Topology{Nodes: 0, CoresPerNode: 4}
	if bad.Validate() == nil {
		t.Fatal("invalid topology accepted")
	}
	if (Topology{}).NodeOf(5) != 0 {
		t.Fatal("degenerate NodeOf should be 0")
	}
}

func TestDefaultPenalties(t *testing.T) {
	p := DefaultPenalties()
	if p.CrossMemory <= 1 || p.CrossCompute <= 1 {
		t.Fatalf("penalties must exceed 1: %+v", p)
	}
}

func TestBalancerStallsLoadedCores(t *testing.T) {
	e := sim.NewEngine()
	core := NewCore(e, 0, 1<<16)
	o := newOwner(core, nil)
	// Saturate the core: service 1µs, arrivals every 1µs for 1 virtual s.
	var feed func()
	n := 0
	feed = func() {
		if n >= 20000 {
			return
		}
		n++
		o.admit(nil, 10*sim.Microsecond)
		e.After(10*sim.Microsecond, feed)
	}
	feed()
	b := NewBalancer(e, []*Core{core}, 7)
	b.Interval = 2 * sim.Millisecond
	b.Start()
	e.RunUntil(sim.Time(150 * sim.Millisecond))
	if core.Stalls == 0 {
		t.Fatal("balancer never stalled a saturated core")
	}
	stallsAt := core.Stalls
	b.enabled = false // numa_balancing=0
	e.RunUntil(sim.Time(400 * sim.Millisecond))
	if core.Stalls != stallsAt {
		t.Fatal("balancer stalled after Stop")
	}
}

func TestBalancerSparesIdleCores(t *testing.T) {
	e := sim.NewEngine()
	core := NewCore(e, 0, 1024)
	o := newOwner(core, nil)
	// ~5% load.
	for i := 0; i < 100; i++ {
		at := sim.Time(i) * sim.Time(sim.Millisecond)
		e.At(at, func() { o.admit(nil, 50*sim.Microsecond) })
	}
	b := NewBalancer(e, []*Core{core}, 7)
	b.Interval = 5 * sim.Millisecond
	b.Start()
	e.RunUntil(sim.Time(100 * sim.Millisecond))
	b.enabled = false // numa_balancing=0
	if core.Stalls != 0 {
		t.Fatalf("idle core stalled %d times", core.Stalls)
	}
}

func BenchmarkCoreAdmitRetire(b *testing.B) {
	e := sim.NewEngine()
	c := NewCore(e, 0, 1<<20)
	o := newOwner(c, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.admit(nil, 1000)
		if i%1024 == 1023 {
			e.Run()
		}
	}
	e.Run()
}
