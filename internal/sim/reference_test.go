package sim

import (
	"fmt"
	"testing"
)

// refEngine is the engine before the FIFO: every event goes on the 4-ary
// heap. It is kept as Engine's oracle: both must run the same events in the
// same order and answer every query alike.
type refEngine struct {
	now      Time
	seq      uint64
	heap     []*refEvent
	free     []*refEvent
	live     int
	dead     int
	limit    Time
	executed uint64
}

type refEvent struct {
	at   Time
	seq  uint64
	fn   func(any)
	arg  any
	gen  uint32
	dead bool
}

type refTimer struct {
	e   *refEngine
	ev  *refEvent
	gen uint32
}

func (t refTimer) Stop() bool {
	if t.ev == nil || t.ev.gen != t.gen || t.ev.dead {
		return false
	}
	t.ev.dead = true
	t.ev.fn = nil
	t.ev.arg = nil
	t.e.live--
	t.e.dead++
	t.e.maybeCompact()
	return true
}

func (e *refEngine) alloc() *refEvent {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free = e.free[:n-1]
		return ev
	}
	return &refEvent{}
}

func (e *refEngine) recycle(ev *refEvent) {
	ev.gen++
	ev.fn = nil
	ev.arg = nil
	ev.dead = false
	e.free = append(e.free, ev)
}

func (e *refEngine) Now() Time        { return e.now }
func (e *refEngine) Executed() uint64 { return e.executed }
func (e *refEngine) SchedSeq() uint64 { return e.seq }
func (e *refEngine) Pending() int     { return e.live }

func (e *refEngine) Reserve() uint64 {
	s := e.seq
	e.seq++
	return s
}

func (e *refEngine) AtArgSeq(at Time, seq uint64, fn func(any), arg any) stopper {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	ev := e.alloc()
	ev.at, ev.seq, ev.fn, ev.arg = at, seq, fn, arg
	e.heap = append(e.heap, ev)
	e.siftUp(len(e.heap) - 1)
	e.live++
	return refTimer{e: e, ev: ev, gen: ev.gen}
}

func (e *refEngine) AfterArg(d Duration, fn func(any), arg any) stopper {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.AtArgSeq(e.now.Add(d), e.Reserve(), fn, arg)
}

func refLess(a, b *refEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *refEngine) siftUp(i int) {
	h := e.heap
	ev := h[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !refLess(ev, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
}

func (e *refEngine) siftDown(i int) {
	h := e.heap
	n := len(h)
	ev := h[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		min := c
		for j := c + 1; j < c+4 && j < n; j++ {
			if refLess(h[j], h[min]) {
				min = j
			}
		}
		if !refLess(h[min], ev) {
			break
		}
		h[i] = h[min]
		i = min
	}
	h[i] = ev
}

func (e *refEngine) pop() *refEvent {
	h := e.heap
	ev := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	e.heap = h[:n]
	if n > 1 {
		e.siftDown(0)
	}
	return ev
}

func (e *refEngine) maybeCompact() {
	if e.dead <= 64 || e.dead <= e.live {
		return
	}
	w := 0
	for _, ev := range e.heap {
		if ev.dead {
			e.recycle(ev)
			continue
		}
		e.heap[w] = ev
		w++
	}
	clear(e.heap[w:])
	e.heap = e.heap[:w]
	e.dead = 0
	for i := (w - 2) >> 2; i >= 0; i-- {
		e.siftDown(i)
	}
}

func (e *refEngine) Step() bool {
	for len(e.heap) > 0 {
		ev := e.pop()
		if ev.dead {
			e.dead--
			e.recycle(ev)
			continue
		}
		e.live--
		e.now = ev.at
		e.executed++
		fn, arg := ev.fn, ev.arg
		e.recycle(ev)
		fn(arg)
		return true
	}
	return false
}

func (e *refEngine) Run() {
	prev := e.limit
	e.limit = TimeMax
	for e.Step() {
	}
	e.limit = prev
}

func (e *refEngine) RunUntil(deadline Time) {
	prev := e.limit
	e.limit = deadline
	for len(e.heap) > 0 {
		next := e.heap[0]
		if next.dead {
			e.dead--
			e.recycle(e.pop())
			continue
		}
		if next.at > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
	e.limit = prev
}

func (e *refEngine) peek() *refEvent {
	for len(e.heap) > 0 {
		if ev := e.heap[0]; !ev.dead {
			return ev
		}
		e.dead--
		e.recycle(e.pop())
	}
	return nil
}

func (e *refEngine) NextEventTime() (Time, bool) {
	if ev := e.peek(); ev != nil {
		return ev.at, true
	}
	return 0, false
}

func (e *refEngine) Advance(at Time, seq uint64) bool {
	if at < e.now || at > e.limit || !e.Precedes(at, seq) {
		return false
	}
	e.now = at
	return true
}

func (e *refEngine) Precedes(at Time, seq uint64) bool {
	ev := e.peek()
	return ev == nil || at < ev.at || (at == ev.at && seq < ev.seq)
}

func (e *refEngine) audit() bool {
	dead := 0
	for _, ev := range e.heap {
		if ev.dead {
			dead++
		}
	}
	return dead == e.dead && len(e.heap)-dead == e.live
}

// stopper is what a program keeps of a scheduled event.
type stopper interface{ Stop() bool }

// queue is the API an engine program drives: Engine (through engineQueue)
// and refEngine.
type queue interface {
	Now() Time
	Executed() uint64
	SchedSeq() uint64
	Pending() int
	Reserve() uint64
	AtArgSeq(at Time, seq uint64, fn func(any), arg any) stopper
	AfterArg(d Duration, fn func(any), arg any) stopper
	Step() bool
	Run()
	RunUntil(deadline Time)
	NextEventTime() (Time, bool)
	Advance(at Time, seq uint64) bool
	Precedes(at Time, seq uint64) bool
	// audit reports whether the live and dead counts match what is queued
	// (and, for Engine, whether the FIFO is in order under the head and
	// tail keys it keeps).
	audit() bool
}

// engineQueue adapts Engine to queue and, when cover is set, notes which
// of the FIFO's cases a program reached.
type engineQueue struct {
	*Engine
	cover *engineCover
	used  bool // the FIFO has held an event
}

// engineCover counts the FIFO cases a program passed through.
type engineCover struct {
	refills     int // an event joined an empty FIFO that had held events
	compactBoth int // a compaction swept dead events out of heap and FIFO
	olderAtTail int // AtArgSeq at the FIFO tail's time with an older seq
	advances    int // Advance moved the clock from inside an event
	precedes    int // Precedes asked from inside an event
}

func (q *engineQueue) AtArgSeq(at Time, seq uint64, fn func(any), arg any) stopper {
	if c := q.cover; c != nil {
		if q.count == 0 && q.used {
			c.refills++
		}
		if q.count > 0 {
			tail := q.fifo[(q.head+q.count-1)&(len(q.fifo)-1)]
			if at == tail.at && seq < tail.seq {
				c.olderAtTail++
			}
		}
	}
	t := q.Engine.AtArgSeq(at, seq, fn, arg)
	q.used = q.used || q.count > 0
	return coveredTimer{t, q}
}

func (q *engineQueue) AfterArg(d Duration, fn func(any), arg any) stopper {
	return q.AtArgSeq(q.now.Add(d), q.Reserve(), fn, arg)
}

func (q *engineQueue) audit() bool {
	dead := 0
	for _, ev := range q.heap {
		if ev.dead {
			dead++
		}
	}
	mask := len(q.fifo) - 1
	for i := range q.count {
		ev := q.fifo[(q.head+i)&mask]
		if ev.dead {
			dead++
		}
		if i > 0 && !less(q.fifo[(q.head+i-1)&mask], ev) {
			return false
		}
	}
	if q.count > 0 {
		f, l := q.fifo[q.head], q.fifo[(q.head+q.count-1)&mask]
		if q.headKey != (key{f.at, f.seq}) || q.tailKey != (key{l.at, l.seq}) {
			return false
		}
	}
	return dead == q.dead && len(q.heap)+q.count-dead == q.live
}

// coveredTimer is a Timer whose Stop notes a compaction that found dead
// events in both structures.
type coveredTimer struct {
	Timer
	q *engineQueue
}

func (t coveredTimer) Stop() bool {
	q := t.q
	if q.cover == nil || t.ev == nil || t.ev.gen != t.gen || t.ev.dead {
		return t.Timer.Stop()
	}
	// The dead events a sweep inside this Stop would find, per structure:
	// those already dead and the one being stopped.
	deadHeap, deadFIFO := 0, 0
	for _, ev := range q.heap {
		if ev.dead || ev == t.ev {
			deadHeap++
		}
	}
	for i := range q.count {
		if ev := q.fifo[(q.head+i)&(len(q.fifo)-1)]; ev.dead || ev == t.ev {
			deadFIFO++
		}
	}
	ok := t.Timer.Stop()
	if q.dead == 0 && deadHeap > 0 && deadFIFO > 0 {
		q.cover.compactBoth++
	}
	return ok
}

// Engine program ops, three bytes each: op (taken mod engineOps), a, b.
const (
	engAfter    = iota // AfterArg(delay(a)), event action b
	engTrain           // b%32+1 events AfterArg(delay(a)), no action
	engReserve         // reserve a%4+1 sequence numbers
	engAtSeq           // AtArgSeq with the oldest reserved seq: at the last scheduled time if a is odd, else now+delay(a>>1); action b
	engStop            // stop event (a<<8|b) mod events
	engStorm           // stop the last a+1 events, latest first; Pending and audit
	engStep            // Step
	engRunUntil        // RunUntil(now+delay(a))
	engQuery           // Pending, NextEventTime, Executed, SchedSeq, Precedes(now+delay(a), b), audit
	engineOps
)

// Event actions, by the action byte mod 6 (p is the byte / 6).
const (
	actNone     = iota
	actFollow   // AfterArg(delay(byte)), no action
	actAdvance  // p%4+1 Advances by p%8 ns with reserved seqs, as a pod settles
	actPrecedes // Precedes at now and now+p%8
	actStop     // stop event (id*7+p) mod events
	actTrain    // p%8+1 follow-ups at delay(byte)
)

// engineProgramEvents caps the events one program schedules.
const engineProgramEvents = 4096

// engineDelay spreads a byte over four scales: ns ties, tens of ns, µs and
// the 100 µs PLB head timers.
func engineDelay(a byte) Duration {
	return Duration(a&63) * [4]Duration{1, 10, 1000, 100 * Microsecond}[a>>6]
}

// runEngineProgram drives q through data and returns its log: every event
// run (id and time) and the answer of every query, Stop, Step, Advance and
// Precedes. A non-nil cover counts the Advances and Precedes events made.
func runEngineProgram(q queue, data []byte, cover *engineCover) []int64 {
	var (
		log      []int64
		timers   []stopper
		acts     []byte
		reserved []uint64
		lastAt   Time
		fire     func(any)
	)
	note := func(v ...int64) { log = append(log, v...) }
	b2i := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	takeSeq := func() uint64 {
		if len(reserved) == 0 {
			return q.Reserve()
		}
		s := reserved[0]
		reserved = reserved[1:]
		return s
	}
	schedule := func(at Time, seq uint64, act byte) {
		if len(timers) >= engineProgramEvents {
			return
		}
		timers = append(timers, q.AtArgSeq(at, seq, fire, len(timers)))
		acts = append(acts, act)
		lastAt = at
	}
	after := func(d Duration, act byte) { schedule(q.Now().Add(d), q.Reserve(), act) }
	fire = func(arg any) {
		id := arg.(int)
		note(-1, int64(id), int64(q.Now()))
		act := acts[id]
		p := int(act / 6)
		switch act % 6 {
		case actFollow:
			after(engineDelay(act), actNone)
		case actAdvance:
			for k := 0; k <= p%4; k++ {
				ok := q.Advance(q.Now().Add(Duration(p%8)), takeSeq())
				note(b2i(ok), int64(q.Now()))
				if ok && cover != nil {
					cover.advances++
				}
			}
		case actPrecedes:
			note(b2i(q.Precedes(q.Now(), q.SchedSeq())), b2i(q.Precedes(q.Now().Add(Duration(p%8)), 0)))
			if cover != nil {
				cover.precedes++
			}
		case actStop:
			note(b2i(timers[(id*7+p)%len(timers)].Stop()))
		case actTrain:
			for k := 0; k <= p%8; k++ {
				after(engineDelay(act), actNone)
			}
		}
	}
	for ; len(data) >= 3; data = data[3:] {
		a, b := data[1], data[2]
		switch data[0] % engineOps {
		case engAfter:
			after(engineDelay(a), b)
		case engTrain:
			for k := 0; k <= int(b%32); k++ {
				after(engineDelay(a), actNone)
			}
		case engReserve:
			for k := 0; k <= int(a%4); k++ {
				reserved = append(reserved, q.Reserve())
			}
		case engAtSeq:
			at := q.Now().Add(engineDelay(a >> 1))
			if a&1 == 1 && lastAt >= q.Now() {
				at = lastAt
			}
			schedule(at, takeSeq(), b)
		case engStop:
			if len(timers) > 0 {
				note(b2i(timers[(int(a)<<8|int(b))%len(timers)].Stop()))
			}
		case engStorm:
			for k := len(timers) - 1; k >= 0 && k >= len(timers)-1-int(a); k-- {
				timers[k].Stop()
			}
			note(int64(q.Pending()), b2i(q.audit()))
		case engStep:
			note(b2i(q.Step()), int64(q.Now()))
		case engRunUntil:
			q.RunUntil(q.Now().Add(engineDelay(a)))
			note(int64(q.Now()), int64(q.Executed()))
		case engQuery:
			at, ok := q.NextEventTime()
			note(int64(q.Pending()), int64(at), b2i(ok), int64(q.Executed()), int64(q.SchedSeq()),
				b2i(q.Precedes(q.Now().Add(engineDelay(a)), uint64(b))), b2i(q.audit()))
		}
	}
	q.Run()
	note(int64(q.Now()), int64(q.Executed()), int64(q.Pending()), int64(q.SchedSeq()))
	return log
}

// checkEngineProgram runs data on an Engine and on refEngine and fails at
// the first entry where their logs differ.
func checkEngineProgram(t *testing.T, data []byte, cover *engineCover) {
	t.Helper()
	got := runEngineProgram(&engineQueue{Engine: NewEngine(), cover: cover}, data, cover)
	want := runEngineProgram(&refEngine{}, data, nil)
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Fatalf("log entry %d: %d, reference %d\n got %v\nwant %v", i, got[i], want[i],
				got[max(0, i-8):min(len(got), i+8)], want[max(0, i-8):min(len(want), i+8)])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("log has %d entries, reference %d", len(got), len(want))
	}
}

// engineSeeds are the committed seeds of FuzzEngineMatchesReference, one
// per FIFO case TestEngineMatchesReference requires them to reach.
func engineSeeds() map[string][]byte {
	op := func(code, a, b byte) []byte { return []byte{code, a, b} }
	cat := func(parts ...[]byte) []byte {
		var p []byte
		for _, x := range parts {
			p = append(p, x...)
		}
		return p
	}
	const us, t100 = 0x80, 0xc0 // engineDelay scales: µs, 100 µs
	repeat := func(n int, b []byte) []byte {
		var p []byte
		for range n {
			p = append(p, b...)
		}
		return p
	}
	return map[string][]byte{
		// Same-delay trains that drain by Step and RunUntil and refill, with
		// an earlier event on the heap between them.
		"fifo-drains-and-refills": cat(
			op(engTrain, us|5, 20), op(engAfter, us|1, actNone), repeat(22, op(engStep, 0, 0)),
			op(engTrain, us|3, 31), op(engRunUntil, us|10, 0), op(engQuery, 0, 0),
			op(engTrain, 7, 9), op(engAfter, 2, actTrain+6*3), op(engRunUntil, us|60, 0),
		),
		// 100 µs timers fill the FIFO, earlier events the heap, then both
		// are cancelled until a sweep compacts both; the engine keeps going.
		"storm-compacts-both": cat(
			repeat(4, op(engTrain, t100|1, 24)), repeat(100, op(engAfter, us|2, actNone)),
			op(engStorm, 199, 0), op(engQuery, t100|2, 0),
			op(engTrain, us|4, 8), op(engAfter, 3, actStop+6*5), op(engRunUntil, t100|3, 0),
		),
		// A sequence reserved before a train, scheduled at the train's
		// last time: older than the FIFO tail's, so it runs first.
		"older-seq-at-tail": cat(
			op(engReserve, 1, 0), op(engTrain, us|2, 6), op(engAtSeq, 1, actNone),
			op(engAtSeq, 1, actPrecedes), op(engTrain, us|2, 2), op(engQuery, us|2, 3),
			repeat(12, op(engStep, 0, 0)),
		),
		// Events that Advance and ask Precedes as a pod settles, between
		// same-time neighbours, under RunUntil and Run.
		// Sequences reserved first let an Advance pass events at the time it
		// reaches; a Step outside Run may advance nowhere.
		"advance-in-event": cat(
			op(engReserve, 3, 0), op(engAfter, 4, actAdvance+6*9), op(engTrain, 20, 3),
			op(engAfter, 6, actPrecedes+6*3), op(engAfter, 20, actAdvance+6*16), op(engRunUntil, 40, 0),
			op(engAfter, 1, actAdvance+6*2), op(engAfter, 9, actPrecedes+6*5),
			op(engAfter, 2, actAdvance+6*1), op(engStep, 0, 0),
		),
	}
}

// TestEngineMatchesReference holds Engine to refEngine on the committed
// seeds, requiring them to reach every FIFO case, and on random programs.
func TestEngineMatchesReference(t *testing.T) {
	var c engineCover
	for name, seed := range engineSeeds() {
		t.Run(name, func(t *testing.T) { checkEngineProgram(t, seed, &c) })
	}
	t.Logf("seeds reach %+v", c)
	if c.refills == 0 || c.compactBoth == 0 || c.olderAtTail == 0 || c.advances == 0 || c.precedes == 0 {
		t.Errorf("seeds reach %+v, want every case", c)
	}
	r := NewRand(45)
	for i := range 200 {
		prog := make([]byte, 3*(10+r.Intn(120)))
		for j := range prog {
			prog[j] = byte(r.Intn(256))
		}
		t.Run(fmt.Sprintf("random-%d", i), func(t *testing.T) { checkEngineProgram(t, prog, nil) })
	}
}

// FuzzEngineMatchesReference holds Engine to refEngine on programs of
// three-byte ops (see runEngineProgram).
func FuzzEngineMatchesReference(f *testing.F) {
	for _, seed := range engineSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkEngineProgram(t, data, nil) })
}
