package cpu

import (
	"fmt"
	"testing"

	"albatross/internal/sim"
)

// refCore is the core model Core replaced, kept as its oracle: every packet
// start and completion is an engine event, a stall re-schedules the
// completion in flight and arms a wake-up, and the slow factor is read when
// a packet starts. Core computes the same times without events.
type refCore struct {
	engine *sim.Engine

	queue      []refWork
	queueDepth int
	busy       bool
	current    refWork
	completion sim.Timer
	finishAt   sim.Time

	stallUntil sim.Time
	failed     bool
	slow       float64
	busyNS     sim.Duration

	// started is called with each packet as its service begins.
	started func(item any)
}

type refWork struct {
	item    any
	service sim.Duration
	done    func(item any)
}

func newRefCore(engine *sim.Engine, queueDepth int) *refCore {
	if queueDepth <= 0 {
		queueDepth = 1024
	}
	return &refCore{engine: engine, queueDepth: queueDepth}
}

func (c *refCore) Enqueue(item any, service sim.Duration, done func(any)) bool {
	if c.failed {
		return false
	}
	if service < 0 {
		service = 0
	}
	w := refWork{item: item, service: service, done: done}
	if c.busy || c.engine.Now() < c.stallUntil {
		if len(c.queue) >= c.queueDepth {
			return false
		}
		c.queue = append(c.queue, w)
		if !c.busy {
			c.scheduleWake()
		}
		return true
	}
	c.start(w)
	return true
}

func refWake(arg any) {
	c := arg.(*refCore)
	if !c.busy && c.engine.Now() >= c.stallUntil {
		c.next()
	}
}

func refFinish(arg any) { arg.(*refCore).finish() }

func (c *refCore) scheduleWake() { c.engine.AtArg(c.stallUntil, refWake, c) }

func (c *refCore) start(w refWork) {
	if c.slow > 0 && c.slow != 1 {
		w.service = sim.Duration(float64(w.service) * c.slow)
	}
	if c.started != nil {
		c.started(w.item)
	}
	c.busy = true
	c.current = w
	c.busyNS += w.service
	c.finishAt = c.engine.Now().Add(w.service)
	c.completion = c.engine.AtArg(c.finishAt, refFinish, c)
}

func (c *refCore) finish() {
	c.completion = sim.Timer{}
	c.busy = false
	w := c.current
	c.current = refWork{}
	if w.done != nil {
		w.done(w.item)
	}
	c.next()
}

func (c *refCore) next() {
	if c.busy || c.failed || len(c.queue) == 0 {
		return
	}
	if c.engine.Now() < c.stallUntil {
		c.scheduleWake()
		return
	}
	w := c.queue[0]
	copy(c.queue, c.queue[1:])
	c.queue[len(c.queue)-1] = refWork{}
	c.queue = c.queue[:len(c.queue)-1]
	c.start(w)
}

func (c *refCore) Stall(d sim.Duration) {
	if d <= 0 {
		return
	}
	end := c.engine.Now().Add(d)
	if end > c.stallUntil {
		c.stallUntil = end
	}
	if c.busy {
		c.completion.Stop()
		c.finishAt = c.finishAt.Add(d)
		c.busyNS += d
		c.completion = c.engine.AtArg(c.finishAt, refFinish, c)
	} else if len(c.queue) > 0 {
		c.scheduleWake()
	}
}

func (c *refCore) Fail(onLost func(item any)) {
	if c.failed {
		return
	}
	c.failed = true
	if c.busy {
		c.completion.Stop()
		c.completion = sim.Timer{}
		c.busy = false
		c.busyNS -= c.finishAt.Sub(c.engine.Now())
		if onLost != nil {
			onLost(c.current.item)
		}
		c.current = refWork{}
	}
	for i := range c.queue {
		if onLost != nil {
			onLost(c.queue[i].item)
		}
		c.queue[i] = refWork{}
	}
	c.queue = c.queue[:0]
}

func (c *refCore) Recover() {
	if !c.failed {
		return
	}
	c.failed = false
	c.stallUntil = 0
}

func (c *refCore) SetSlowFactor(factor float64) {
	if factor <= 0 {
		factor = 1
	}
	c.slow = factor
}

// coreOpKind is one step of a differential run.
type coreOpKind uint8

const (
	opAdmit coreOpKind = iota // admit a burst of packets at one instant
	opStall
	opSlow
	opFail
	opRecover
	opRead // compare tallies
)

// coreOp happens gap ns after the previous op. An admit carries one service
// demand per packet of its burst. Demands are at least 2 ns, so no slow
// factor the generators pick makes a packet finish the instant it starts.
// Gaps are even and stalls odd, so no op lands exactly where a stall ends:
// there the reference starts a newly admitted packet ahead of the one the
// stall held back, if its wake-up event happens to run after the op.
type coreOp struct {
	kind     coreOpKind
	gap      sim.Duration
	services []sim.Duration
	stall    sim.Duration
	factor   float64
}

// pktFate is what happened to one admitted packet.
type pktFate struct {
	dropped, lost bool
	start, finish sim.Time
}

// tally is what the owner of a core counts from the model's own answers:
// admissions refused (Admit's result), packets retired (the Retire
// callback) and packets lost (the Fail callback).
type tally struct {
	processed, drops, lost uint64
}

// coreReading is the tallies and the busy time at one instant.
type coreReading struct {
	at sim.Time
	tally
	busy sim.Duration
}

// coreRun is everything a differential run observes.
type coreRun struct {
	fates    []pktFate
	readings []coreReading
	tally
}

// opOrder is where an op runs among the completions that share its instant.
type opOrder int

const (
	// opsFirst schedules every op up front, so an op runs before them.
	opsFirst opOrder = iota
	// opsLast re-schedules each op from an outer event at its own instant,
	// so it runs after every completion already due then.
	opsLast
	// opsChained has each op schedule the next one before taking effect, so
	// the next op runs after completions scheduled before this op and
	// before those this op schedules.
	opsChained
)

// schedule arms ops at their instants in the given order.
func schedule(e *sim.Engine, ops []coreOp, order opOrder, apply func(coreOp)) {
	var t sim.Time
	if order == opsChained {
		var at func(i int, t sim.Time)
		at = func(i int, t sim.Time) {
			t = t.Add(ops[i].gap)
			e.At(t, func() {
				if i+1 < len(ops) {
					at(i+1, t)
				}
				apply(ops[i])
			})
		}
		if len(ops) > 0 {
			at(0, 0)
		}
		return
	}
	for _, op := range ops {
		op := op
		t = t.Add(op.gap)
		if order == opsLast {
			e.At(t, func() { e.At(e.Now(), func() { apply(op) }) })
		} else {
			e.At(t, func() { apply(op) })
		}
	}
}

// runRef drives the reference model through ops.
func runRef(depth int, ops []coreOp, order opOrder) coreRun {
	e := sim.NewEngine()
	c := newRefCore(e, depth)
	var run coreRun
	c.started = func(item any) { run.fates[item.(int)].start = e.Now() }
	done := func(item any) {
		run.fates[item.(int)].finish = e.Now()
		run.processed++
	}
	lost := func(item any) {
		run.fates[item.(int)] = pktFate{lost: true}
		run.lost++
	}
	read := func() {
		run.readings = append(run.readings, coreReading{e.Now(), run.tally, c.busyNS})
	}
	schedule(e, ops, order, func(op coreOp) {
		switch op.kind {
		case opAdmit:
			for _, s := range op.services {
				id := len(run.fates)
				run.fates = append(run.fates, pktFate{})
				if !c.Enqueue(id, s, done) {
					run.fates[id].dropped = true
					run.drops++
				}
			}
		case opStall:
			c.Stall(op.stall)
		case opSlow:
			c.SetSlowFactor(op.factor)
		case opFail:
			c.Fail(lost)
		case opRecover:
			c.Recover()
		}
		read()
	})
	e.Run()
	final(&run, c.busyNS)
	return run
}

// final appends the tallies once the engine ran dry. Its instant is not
// compared: a stale timer may run on after the last packet.
func final(run *coreRun, busy sim.Duration) {
	run.readings = append(run.readings, coreReading{0, run.tally, busy})
}

// runCore drives Core through ops, retiring packets at their finish times
// the way a pod does.
func runCore(depth int, ops []coreOp, order opOrder) coreRun {
	e := sim.NewEngine()
	c := NewCore(e, 0, depth)
	var run coreRun
	o := newOwner(c, func(item any, start sim.Time) {
		f := &run.fates[item.(int)]
		f.start, f.finish = start, e.Now()
		run.processed++
	})
	lost := func(item any) {
		run.fates[item.(int)].lost = true
		run.lost++
	}
	read := func() {
		run.readings = append(run.readings, coreReading{e.Now(), run.tally, c.BusyTime()})
	}
	schedule(e, ops, order, func(op coreOp) {
		switch op.kind {
		case opAdmit:
			for _, s := range op.services {
				id := len(run.fates)
				run.fates = append(run.fates, pktFate{})
				if !o.admit(id, s) {
					run.fates[id].dropped = true
					run.drops++
				}
			}
		case opStall:
			c.Stall(op.stall)
		case opSlow:
			c.SetSlowFactor(op.factor)
		case opFail:
			c.Fail(lost)
		case opRecover:
			c.Recover()
		}
		o.arm()
		read()
	})
	e.Run()
	final(&run, c.BusyTime())
	return run
}

// checkAgainstReference runs ops through both models, with ops running
// ahead of and behind completions at shared instants (or in the orders
// given), and requires every packet's fate and every reading of the
// tallies and the busy time to agree.
func checkAgainstReference(t *testing.T, depth int, ops []coreOp, orders ...opOrder) {
	t.Helper()
	if len(orders) == 0 {
		orders = []opOrder{opsFirst, opsLast}
	}
	for _, order := range orders {
		want, got := runRef(depth, ops, order), runCore(depth, ops, order)
		if len(got.fates) != len(want.fates) {
			t.Fatalf("order %d: %d packets, reference %d", order, len(got.fates), len(want.fates))
		}
		for i := range want.fates {
			if got.fates[i] != want.fates[i] {
				t.Fatalf("order %d: packet %d: %+v, reference %+v", order, i, got.fates[i], want.fates[i])
			}
		}
		for i := range want.readings {
			if got.readings[i] != want.readings[i] {
				t.Fatalf("order %d: reading %d: %+v, reference %+v", order, i, got.readings[i], want.readings[i])
			}
		}
	}
}

// slowFactors are the factors the generators pick from: healthy, the
// "restore" encodings, speed-ups and blowups.
var slowFactors = []float64{1, 0, -1, 0.5, 1.7, 3, 8, 100}

// randomOps generates n ops over one core: bursts of admissions, stalls
// while busy or idle, slow factors set and reset mid-backlog, failures and
// recoveries, and tally reads, with gaps that land inside service times.
func randomOps(r *sim.Rand, n int) []coreOp {
	ops := make([]coreOp, 0, n)
	for len(ops) < n {
		op := coreOp{gap: sim.Duration(2 * r.Intn(2000))}
		switch k := r.Intn(20); {
		case k < 11:
			op.kind = opAdmit
			for b := 1 + r.Intn(6); b > 0; b-- {
				op.services = append(op.services, sim.Duration(2+r.Intn(2500)))
			}
		case k < 14:
			op.kind = opStall
			op.stall = sim.Duration(2*r.Intn(3000) - 499)
		case k < 17:
			op.kind = opSlow
			op.factor = slowFactors[r.Intn(len(slowFactors))]
		case k == 17:
			op.kind = opFail
		case k == 18:
			op.kind = opRecover
		default:
			op.kind = opRead
		}
		ops = append(ops, op)
	}
	return ops
}

// TestCoreMatchesReference holds Core to the event-driven reference on
// hand-built cases and on random op sequences at several queue depths.
func TestCoreMatchesReference(t *testing.T) {
	admit := func(gap sim.Duration, services ...sim.Duration) coreOp {
		return coreOp{kind: opAdmit, gap: gap, services: services}
	}
	cases := map[string][]coreOp{
		"burst then drain": {admit(0, 100, 200, 300, 400, 500), {kind: opRead, gap: 350}},
		"slow mid-backlog": {
			admit(0, 1000, 1000, 1000, 1000), {kind: opSlow, gap: 500, factor: 4},
			{kind: opRead, gap: 2000}, {kind: opSlow, gap: 3000, factor: 1}, admit(10, 700),
		},
		"stall while busy": {admit(0, 1000, 1000), {kind: opStall, gap: 400, stall: 2501}, {kind: opRead, gap: 100}},
		"stall while idle": {{kind: opStall, gap: 100, stall: 1001}, admit(100, 500, 500), {kind: opStall, gap: 300, stall: 2001}},
		"overflow":         {admit(0, 800, 800, 800, 800, 800, 800, 800), admit(100, 50, 50, 50)},
		"fail and recover": {
			admit(0, 900, 900, 900), {kind: opStall, gap: 100, stall: 301},
			{kind: opFail, gap: 1200}, admit(10, 5), {kind: opRecover, gap: 10}, admit(10, 40, 40),
		},
		"slow then stall then fail": {
			admit(0, 400, 400, 400, 400), {kind: opSlow, gap: 100, factor: 8},
			{kind: opStall, gap: 700, stall: 901}, {kind: opFail, gap: 2500},
		},
	}
	for name, ops := range cases {
		t.Run(name, func(t *testing.T) { checkAgainstReference(t, 4, ops) })
	}
	// Ops on the instants packets finish: an admission against a full queue,
	// a stall and a failure, each decided by whether the completion ran first.
	t.Run("ops at completions", func(t *testing.T) {
		checkAgainstReference(t, 1, []coreOp{
			admit(0, 1000, 1000), admit(1000, 300),
			{kind: opStall, gap: 1000, stall: 501}, {kind: opFail, gap: 1300},
		})
	})
	// A stall moves the completion in service behind everything scheduled
	// before it: the failure, scheduled by the stall's own event, lands on
	// the postponed finish and must find the packet still in service.
	t.Run("stall re-orders the completion", func(t *testing.T) {
		checkAgainstReference(t, 4, []coreOp{
			admit(0, 1000), {kind: opStall, gap: 500, stall: 301}, {kind: opFail, gap: 801},
		}, opsFirst, opsLast, opsChained)
	})
	r := sim.NewRand(27)
	for i := 0; i < 300; i++ {
		depth := 1 + r.Intn(8)
		ops := randomOps(r, 40)
		t.Run(fmt.Sprintf("random-%d", i), func(t *testing.T) { checkAgainstReference(t, depth, ops) })
	}
}

// FuzzCoreMatchesReference decodes data into ops, four bytes each: kind and
// burst size, gap, and two argument bytes.
func FuzzCoreMatchesReference(f *testing.F) {
	f.Add(uint8(2), []byte("\x00\x10\x01\x00\x20\x05\x02\x00\x40\x01\x03\x10\x07\x02\x08\x00"))
	f.Add(uint8(0), []byte("\x18\x00\x0f\xa0\x02\x04\x03\x00\x05\x30\x00\x00\x06\x01\x00\x00\x08\x01\x01\x01"))
	f.Fuzz(func(t *testing.T, depth uint8, data []byte) {
		var ops []coreOp
		for ; len(data) >= 4; data = data[4:] {
			kind, gap, a, b := data[0], data[1], int(data[2]), int(data[3])
			op := coreOp{gap: sim.Duration(gap) * 38}
			switch kind & 7 {
			case 0, 1, 2:
				op.kind = opAdmit
				for i := 0; i <= int(kind>>3)&7; i++ {
					op.services = append(op.services, sim.Duration(2+(a*(i+1)*131+b*7)%3000))
				}
			case 3:
				op.kind = opStall
				op.stall = sim.Duration(2*((a<<8|b)%3000) - 499)
			case 4:
				op.kind = opSlow
				op.factor = slowFactors[a%len(slowFactors)]
			case 5:
				op.kind = opFail
			case 6:
				op.kind = opRecover
			default:
				op.kind = opRead
			}
			ops = append(ops, op)
		}
		checkAgainstReference(t, 1+int(depth%8), ops)
	})
}
