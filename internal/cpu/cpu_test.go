package cpu

import (
	"math"
	"testing"

	"albatross/internal/sim"
)

func TestCoreProcessesFIFO(t *testing.T) {
	e := sim.NewEngine()
	c := NewCore(e, 0, 16)
	var done []int
	for i := 0; i < 5; i++ {
		i := i
		if !c.Enqueue(i, 1000, func(any) { done = append(done, i) }) {
			t.Fatal("enqueue failed")
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
	ok1 := c.Enqueue("a", 1000, nil) // in service
	ok2 := c.Enqueue("b", 1000, nil) // queued
	ok3 := c.Enqueue("c", 1000, nil) // queued
	ok4 := c.Enqueue("d", 1000, nil) // dropped
	if !ok1 || !ok2 || !ok3 || ok4 {
		t.Fatalf("admission = %v %v %v %v", ok1, ok2, ok3, ok4)
	}
	if c.Drops != 1 {
		t.Fatalf("drops = %d", c.Drops)
	}
	if len(c.queue)+c.arithLen != 2 || !c.busy {
		t.Fatalf("queue=%d busy=%v", len(c.queue)+c.arithLen, c.busy)
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
	c.Enqueue(nil, 0, func(any) { n++ })
	c.Enqueue(nil, -5, func(any) { n++ })
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
	c.Enqueue(nil, 3000, nil)
	c.Enqueue(nil, 2000, nil)
	e.Run()
	if c.BusyTime() != 5000 {
		t.Fatalf("busy = %v", c.BusyTime())
	}
}

func TestCoreStallExtendsInService(t *testing.T) {
	e := sim.NewEngine()
	c := NewCore(e, 0, 16)
	var finished sim.Time
	c.Enqueue(nil, 1000, func(any) { finished = e.Now() })
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
	e.At(200, func() {
		c.Enqueue(nil, 500, func(any) { finished = e.Now() })
	})
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
	s := NewUtilSampler(c)
	// 50% duty cycle: 1µs work every 2µs.
	for i := 0; i < 100; i++ {
		at := sim.Time(i) * 2000
		e.At(at, func() { c.Enqueue(nil, 1000, nil) })
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
	// Saturate the core: service 1µs, arrivals every 1µs for 1 virtual s.
	var feed func()
	n := 0
	feed = func() {
		if n >= 20000 {
			return
		}
		n++
		core.Enqueue(nil, 10*sim.Microsecond, nil)
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
	// ~5% load.
	for i := 0; i < 100; i++ {
		at := sim.Time(i) * sim.Time(sim.Millisecond)
		e.At(at, func() { core.Enqueue(nil, 50*sim.Microsecond, nil) })
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

func BenchmarkCoreEnqueueProcess(b *testing.B) {
	e := sim.NewEngine()
	c := NewCore(e, 0, 1<<20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Enqueue(nil, 1000, nil)
		if i%1024 == 1023 {
			e.Run()
		}
	}
	e.Run()
}
