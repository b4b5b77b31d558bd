// Package sim provides a deterministic discrete-event simulation engine.
//
// All Albatross timing experiments run on virtual time: an int64 nanosecond
// clock advanced by an event heap. Components schedule callbacks at absolute
// or relative virtual times; the engine executes them in (time, sequence)
// order so runs are fully deterministic for a given seed.
//
// The engine is intentionally single-goroutine: parallelism in the modelled
// system (CPU cores, pipeline stages) is expressed as concurrent *virtual*
// activities, not OS concurrency, which keeps experiments reproducible.
// Harness-level parallelism (internal/eval.RunAll) runs many engines side
// by side, one per experiment, never sharing one engine across goroutines.
//
// The scheduling hot path is allocation-free in steady state: events are
// recycled through a free list, the heap is a flat 4-ary array, timers are
// value handles validated by generation counters, and cancellation is lazy
// (dead events are dropped on pop, compacted only when they dominate the
// heap). Use AtArg/AfterArg with a non-capturing func and an arg to avoid
// the caller-side closure allocation that At/After require.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Time is a virtual timestamp in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Common durations, mirroring time package naming.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// TimeMax is the largest representable virtual time; boundary functions
// return it to mean "no upcoming transition".
const TimeMax = Time(math.MaxInt64)

// Seconds returns the duration as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

func (d Duration) String() string { return time.Duration(d).String() }

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns the timestamp as floating-point seconds since start.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

func (t Time) String() string { return time.Duration(t).String() }

// event is a scheduled callback. Events are pooled: after firing or
// compaction they return to the engine's free list and are reused, with gen
// bumped so stale Timer handles cannot touch the reincarnation.
type event struct {
	at   Time
	seq  uint64 // tie-breaker: FIFO among equal timestamps
	fn   func(any)
	arg  any
	gen  uint32
	dead bool // cancelled; dropped lazily on pop or compaction
}

// Engine is a discrete-event simulator. The zero value is not usable; create
// one with NewEngine.
type Engine struct {
	now  Time
	seq  uint64
	heap []*event // flat 4-ary heap ordered by (at, seq)
	free []*event // recycled events
	live int      // heap entries not marked dead
	dead int      // heap entries marked dead (lazy cancellation debt)
	// limit is the latest time the running Run/RunUntil may reach: the
	// bound on Advance.
	limit Time

	// executed counts events processed; useful to detect livelock in tests.
	executed uint64

	// shared marks an engine attached to a ShardedEngine: every live-count
	// change is mirrored into pendingAtomic so Pending() can be read from
	// other goroutines (coordinator, monitors) without racing the shard
	// worker. Off the sharded path the mirror is never touched, so the
	// single-engine hot path pays one predicted-not-taken branch.
	shared        bool
	pendingAtomic atomic.Int64
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Executed returns the number of events processed so far.
func (e *Engine) Executed() uint64 { return e.executed }

// SchedSeq returns the sequence number the next scheduled event will get.
// Because seq increments on every AtArg/AfterArg/Reserve, comparing SchedSeq
// across two points in a callback detects whether anything was scheduled in
// between — the burst dispatcher uses it to decide if an open burst can
// still absorb a packet without reordering against interleaved events.
func (e *Engine) SchedSeq() uint64 { return e.seq }

// Timer is a value handle to a scheduled event; it can be cancelled. The
// zero Timer is inert: Stop reports false. Handles stay valid after the
// event fires (Stop just reports false) because the generation counter
// detects the pooled event's reuse.
type Timer struct {
	e   *Engine
	ev  *event
	gen uint32
}

// Stop cancels the timer in O(1) by marking the event dead; the heap drops
// it lazily. It reports whether the event had not yet fired.
func (t Timer) Stop() bool {
	if t.ev == nil || t.ev.gen != t.gen || t.ev.dead {
		return false
	}
	t.ev.dead = true
	t.ev.fn = nil
	t.ev.arg = nil // free the reference now; the shell stays queued
	t.e.live--
	if t.e.shared {
		t.e.pendingAtomic.Store(int64(t.e.live))
	}
	t.e.dead++
	t.e.maybeCompact()
	return true
}

func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &event{}
}

// recycle returns a popped event to the free list. Bumping gen invalidates
// outstanding Timer handles before the event is reused.
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.arg = nil
	ev.dead = false
	e.free = append(e.free, ev)
}

// callNullary adapts a plain func() to the engine's func(any) calling
// convention; the closure itself is the arg, so no extra wrapper allocates.
func callNullary(arg any) { arg.(func())() }

// At schedules fn at absolute virtual time at. Scheduling in the past is an
// error in the model; it panics to surface bugs early.
func (e *Engine) At(at Time, fn func()) Timer {
	return e.AtArg(at, callNullary, fn)
}

// After schedules fn d nanoseconds from now. Negative d panics.
func (e *Engine) After(d Duration, fn func()) Timer {
	return e.AfterArg(d, callNullary, fn)
}

// AtArg schedules fn(arg) at absolute virtual time at. With a non-capturing
// fn this amortizes to zero allocations: the event comes from the free list
// and the Timer handle is a value.
func (e *Engine) AtArg(at Time, fn func(any), arg any) Timer {
	return e.AtArgSeq(at, e.Reserve(), fn, arg)
}

// Reserve takes the sequence number the next scheduled event would get, for
// an event a model keeps to itself — a completion time it computes rather
// than schedules. Scheduled later with AtArgSeq, the event runs exactly
// where scheduling it at the reservation would have put it among events at
// the same time.
func (e *Engine) Reserve() uint64 {
	s := e.seq
	e.seq++
	return s
}

// AtArgSeq is AtArg with a sequence number taken earlier from Reserve.
func (e *Engine) AtArgSeq(at Time, seq uint64, fn func(any), arg any) Timer {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	ev := e.alloc()
	ev.at = at
	ev.seq = seq
	ev.fn = fn
	ev.arg = arg
	e.heap = append(e.heap, ev)
	e.siftUp(len(e.heap) - 1)
	e.live++
	if e.shared {
		e.pendingAtomic.Store(int64(e.live))
	}
	return Timer{e: e, ev: ev, gen: ev.gen}
}

// AfterArg schedules fn(arg) d nanoseconds from now. Negative d panics.
func (e *Engine) AfterArg(d Duration, fn func(any), arg any) Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.AtArg(e.now.Add(d), fn, arg)
}

// less orders heap entries by (at, seq).
func (e *Engine) less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *Engine) siftUp(i int) {
	h := e.heap
	ev := h[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !e.less(ev, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
}

func (e *Engine) siftDown(i int) {
	h := e.heap
	n := len(h)
	ev := h[i]
	for {
		c := i<<2 + 1 // first of up to four children
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		min := c
		for j := c + 1; j < end; j++ {
			if e.less(h[j], h[min]) {
				min = j
			}
		}
		if !e.less(h[min], ev) {
			break
		}
		h[i] = h[min]
		i = min
	}
	h[i] = ev
}

// pop removes and returns the minimum event (live or dead).
func (e *Engine) pop() *event {
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

// maybeCompact sweeps dead events out of the heap once they outnumber live
// ones (and there are enough to be worth a pass), bounding both memory and
// the dead-skip work on pop.
func (e *Engine) maybeCompact() {
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
	for i := w; i < len(e.heap); i++ {
		e.heap[i] = nil
	}
	e.heap = e.heap[:w]
	e.dead = 0
	// Rebuild heap order bottom-up.
	for i := (w - 2) >> 2; i >= 0; i-- {
		e.siftDown(i)
	}
}

// Step executes the next pending event, advancing the clock. It reports
// whether an event was executed.
func (e *Engine) Step() bool {
	for len(e.heap) > 0 {
		ev := e.pop()
		if ev.dead {
			e.dead--
			e.recycle(ev)
			continue
		}
		e.live--
		if e.shared {
			e.pendingAtomic.Store(int64(e.live))
		}
		e.now = ev.at
		e.executed++
		fn, arg := ev.fn, ev.arg
		// Recycle before the callback so fn can reuse the slot when it
		// schedules follow-up work.
		e.recycle(ev)
		fn(arg)
		return true
	}
	return false
}

// Run executes events until the queue drains.
func (e *Engine) Run() {
	prev := e.limit // a model may run the engine from inside an event
	e.limit = TimeMax
	for e.Step() {
	}
	e.limit = prev
}

// RunUntil executes events with timestamps <= deadline, then sets the clock
// to deadline. Events scheduled beyond the deadline remain queued.
func (e *Engine) RunUntil(deadline Time) {
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

// RunFor advances the simulation by d virtual nanoseconds.
func (e *Engine) RunFor(d Duration) { e.RunUntil(e.now.Add(d)) }

// Pending returns the number of live queued events. It is O(1): the engine
// maintains the count across push/pop/cancel. On an engine attached to a
// ShardedEngine the count is read from an atomic mirror, so callers on
// other goroutines (progress monitors, the coordinator) never race the
// shard worker.
func (e *Engine) Pending() int {
	if e.shared {
		return int(e.pendingAtomic.Load())
	}
	return e.live
}

// markShared switches Pending() to the atomic mirror; called when the
// engine is attached to a ShardedEngine.
func (e *Engine) markShared() {
	e.shared = true
	e.pendingAtomic.Store(int64(e.live))
}

// NextEventTime returns the timestamp of the earliest live pending event.
func (e *Engine) NextEventTime() (Time, bool) {
	if ev := e.peek(); ev != nil {
		return ev.at, true
	}
	return 0, false
}

// Advance moves the clock to at from inside an event, when an event at
// (at, seq) would be the next to run: no pending event precedes it and the
// running Run/RunUntil would reach it. A model that computes its own event
// times uses it to run its next one without scheduling it. It reports
// whether the clock now stands at at.
func (e *Engine) Advance(at Time, seq uint64) bool {
	if at < e.now || at > e.limit || !e.Precedes(at, seq) {
		return false
	}
	e.now = at
	return true
}

// Precedes reports whether an event at (at, seq) would run before every
// pending event.
func (e *Engine) Precedes(at Time, seq uint64) bool {
	ev := e.peek()
	return ev == nil || at < ev.at || (at == ev.at && seq < ev.seq)
}

// peek returns the earliest live pending event (nil when none), skipping
// (and reclaiming) cancelled shells at the heap root.
func (e *Engine) peek() *event {
	for len(e.heap) > 0 {
		if ev := e.heap[0]; !ev.dead {
			return ev
		}
		e.dead--
		e.recycle(e.pop())
	}
	return nil
}

// Rand is a deterministic pseudo-random source for simulation components.
// It is a 64-bit SplitMix64/xorshift* generator: tiny, fast, and stable
// across Go releases (unlike math/rand's unexported algorithms, whose
// stream could change and silently alter committed experiment outputs).
type Rand struct {
	state uint64
}

// NewRand returns a deterministic generator for the given seed.
func NewRand(seed uint64) *Rand {
	r := &Rand{state: seed}
	// Avoid the all-zero fixed point and decorrelate small seeds.
	r.state = splitmix64(&r.state)
	if r.state == 0 {
		r.state = 0x9e3779b97f4a7c15
	}
	return r
}

func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 random bits (xorshift64*).
func (r *Rand) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Uint32 returns 32 random bits.
func (r *Rand) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniform int in [0, n). It panics if n <= 0.
//
// The draw uses Lemire's multiply-shift reduction — the high 64 bits of a
// 128-bit product — instead of `%`, keeping the hot path division-free.
// Bias is at most n/2^64, far below the old modulo reduction's n-dependent
// bias and invisible at any simulated scale.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	hi, _ := bits.Mul64(r.Uint64(), uint64(n))
	return int(hi)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Exp returns an exponentially distributed duration with the given mean.
func (r *Rand) Exp(mean Duration) Duration {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return Duration(-float64(mean) * math.Log(u))
}

// Norm returns a normally distributed value (Box-Muller).
func (r *Rand) Norm(mean, stddev float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return mean + stddev*math.Sqrt(-2*math.Log(u1))*math.Cos(2*math.Pi*u2)
}

// Zipf draws from a Zipf distribution over [0, n) with exponent s > 0 using
// inverse-CDF on a precomputed table. Build one with NewZipf.
type Zipf struct {
	cdf []float64
	r   *Rand
}

// NewZipf constructs a Zipf sampler over n ranks with exponent s.
func NewZipf(r *Rand, n int, s float64) *Zipf {
	if n <= 0 {
		panic("sim: Zipf with non-positive n")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf, r: r}
}

// Next draws a rank in [0, n); rank 0 is the most popular.
func (z *Zipf) Next() int {
	u := z.r.Float64()
	// Binary search for the first cdf entry >= u.
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
