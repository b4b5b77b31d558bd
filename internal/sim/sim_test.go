package sim

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %v, want 30", e.Now())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO at %d: %v", i, v)
		}
	}
}

func TestEngineAfterChain(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 10 {
			e.After(100, tick)
		}
	}
	e.After(100, tick)
	e.Run()
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
	if e.Now() != 1000 {
		t.Fatalf("clock = %v, want 1000", e.Now())
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	fired := []Time{}
	for _, at := range []Time{100, 200, 300, 400} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(250)
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if e.Now() != 250 {
		t.Fatalf("clock = %v, want 250", e.Now())
	}
	e.RunUntil(1000)
	if len(fired) != 4 {
		t.Fatalf("fired %d events, want 4", len(fired))
	}
	// Clock advances to deadline even with an empty queue.
	if e.Now() != 1000 {
		t.Fatalf("clock = %v, want 1000", e.Now())
	}
}

func TestEngineRunFor(t *testing.T) {
	e := NewEngine()
	n := 0
	e.At(50, func() { n++ })
	e.At(150, func() { n++ })
	e.RunFor(100)
	if n != 1 || e.Now() != 100 {
		t.Fatalf("n=%d now=%v, want 1, 100", n, e.Now())
	}
	e.RunFor(100)
	if n != 2 || e.Now() != 200 {
		t.Fatalf("n=%d now=%v, want 2, 200", n, e.Now())
	}
}

func TestTimerStop(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := e.At(100, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop returned false for pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop returned true")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled timer fired")
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d, want 0", e.Pending())
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	e := NewEngine()
	tm := e.At(10, func() {})
	e.Run()
	if tm.Stop() {
		t.Fatal("Stop after fire returned true")
	}
}

// A reserved sequence number puts an event exactly where scheduling it at
// the reservation would have: after events scheduled before, ahead of
// events scheduled after, at the same instant.
func TestReserveOrdersLikeScheduling(t *testing.T) {
	e := NewEngine()
	var got []string
	e.At(10, func() { got = append(got, "before") })
	seq := e.Reserve()
	e.At(10, func() { got = append(got, "after") })
	if e.Precedes(10, seq) {
		t.Fatal("reserved event precedes one scheduled before the reservation")
	}
	e.AtArgSeq(10, seq, func(any) { got = append(got, "reserved") }, nil)
	e.Run()
	if want := "[before reserved after]"; fmt.Sprint(got) != want {
		t.Fatalf("order %v, want %s", got, want)
	}
}

// Advance moves the clock inside an event only forward, only to an instant
// no pending event precedes, and never past the running deadline.
func TestAdvance(t *testing.T) {
	e := NewEngine()
	var got []bool
	e.At(5, func() {
		got = append(got, e.Advance(7, e.Reserve()), e.Now() == 7) // nothing pending before 7
		got = append(got, e.Advance(11, e.Reserve()))              // the event at 10 comes first
		got = append(got, e.Advance(6, e.Reserve()))               // backwards
	})
	e.At(10, func() {
		got = append(got, e.Advance(13, e.Reserve())) // past the deadline
		got = append(got, e.Advance(12, e.Reserve()))
	})
	e.RunUntil(12)
	if want := "[true true false false false true]"; fmt.Sprint(got) != want {
		t.Fatalf("advance results %v, want %s", got, want)
	}
	if e.Advance(20, e.Reserve()) {
		t.Fatal("advanced outside a run")
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, func() {})
	})
	e.Run()
}

func TestNegativeAfterPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("negative After did not panic")
		}
	}()
	e.After(-1, func() {})
}

func TestDurationConversions(t *testing.T) {
	if (1500 * Microsecond).Seconds() != 0.0015 {
		t.Error("Seconds mismatch")
	}
	if (2500 * Nanosecond).Micros() != 2.5 {
		t.Error("Micros mismatch")
	}
	tm := Time(0).Add(5 * Second)
	if tm.Sub(Time(2*Second)) != 3*Second {
		t.Error("Sub mismatch")
	}
	if tm.Seconds() != 5 {
		t.Error("Time.Seconds mismatch")
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed streams diverge")
		}
	}
	c := NewRand(43)
	same := 0
	a = NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds agree on %d/1000 draws", same)
	}
}

func TestRandZeroSeed(t *testing.T) {
	r := NewRand(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed stuck at zero")
	}
}

func TestRandUniformity(t *testing.T) {
	r := NewRand(7)
	const n, buckets = 100000, 10
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[r.Intn(buckets)]++
	}
	for i, c := range counts {
		if c < n/buckets*8/10 || c > n/buckets*12/10 {
			t.Fatalf("bucket %d count %d outside ±20%% of %d", i, c, n/buckets)
		}
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(9)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestRandExpMean(t *testing.T) {
	r := NewRand(11)
	const n = 200000
	mean := 50 * Microsecond
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(r.Exp(mean))
	}
	got := sum / n
	if math.Abs(got-float64(mean)) > 0.02*float64(mean) {
		t.Fatalf("Exp mean = %v, want ~%v", Duration(got), mean)
	}
}

func TestRandNormMoments(t *testing.T) {
	r := NewRand(13)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.Norm(10, 3)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	std := math.Sqrt(sumsq/n - mean*mean)
	if math.Abs(mean-10) > 0.1 {
		t.Fatalf("Norm mean = %v, want ~10", mean)
	}
	if math.Abs(std-3) > 0.1 {
		t.Fatalf("Norm stddev = %v, want ~3", std)
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRand(19)
	z := NewZipf(r, 1000, 1.1)
	counts := make([]int, 1000)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	if counts[0] <= counts[10] || counts[10] <= counts[100] {
		t.Fatalf("Zipf not skewed: c0=%d c10=%d c100=%d", counts[0], counts[10], counts[100])
	}
	// Rank 0 should dominate: with s=1.1, n=1000 it holds >10% of mass.
	if counts[0] < n/10 {
		t.Fatalf("rank-0 count %d too low", counts[0])
	}
}

func TestZipfBoundsProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%100) + 1
		z := NewZipf(NewRand(seed), n, 1.0)
		for i := 0; i < 200; i++ {
			v := z.Next()
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: for any schedule of (time, id) events, execution respects
// time-major, insertion-minor order.
func TestEngineOrderProperty(t *testing.T) {
	f := func(times []uint16) bool {
		e := NewEngine()
		type rec struct {
			at  Time
			seq int
		}
		var fired []rec
		for i, tt := range times {
			at := Time(tt)
			seq := i
			e.At(at, func() { fired = append(fired, rec{at, seq}) })
		}
		e.Run()
		for i := 1; i < len(fired); i++ {
			prev, cur := fired[i-1], fired[i]
			if cur.at < prev.at {
				return false
			}
			if cur.at == prev.at && cur.seq < prev.seq {
				return false
			}
		}
		return len(fired) == len(times)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Pending must stay exact through the lazy-cancellation path: cancelled
// events linger in the heap until popped or compacted, but the live counter
// already excludes them.
func TestPendingWithLazyCancellation(t *testing.T) {
	e := NewEngine()
	timers := make([]Timer, 1000)
	for i := range timers {
		timers[i] = e.At(Time(1000+i), func() {})
	}
	if e.Pending() != 1000 {
		t.Fatalf("pending = %d, want 1000", e.Pending())
	}
	for i := 0; i < 600; i++ {
		timers[i].Stop()
	}
	if e.Pending() != 400 {
		t.Fatalf("pending = %d after cancelling 600, want 400", e.Pending())
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after drain, want 0", e.Pending())
	}
}

// Cancelling everything must compact rather than grow the heap without
// bound, and the engine must keep working afterwards.
func TestCancellationStormCompacts(t *testing.T) {
	e := NewEngine()
	for round := 0; round < 100; round++ {
		timers := make([]Timer, 100)
		for i := range timers {
			timers[i] = e.At(Time(1_000_000+round), func() {})
		}
		for _, tm := range timers {
			if !tm.Stop() {
				t.Fatal("Stop on pending timer returned false")
			}
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d, want 0", e.Pending())
	}
	n := 0
	e.At(2_000_000, func() { n++ })
	e.Run()
	if n != 1 {
		t.Fatalf("event after storm did not fire")
	}
}

// The scheduling hot path must be allocation-free in steady state: events
// come from the engine pool, timers are value handles, and AfterArg carries
// the callback argument without a closure.
func TestAfterArgZeroAlloc(t *testing.T) {
	e := NewEngine()
	fn := func(any) {}
	// Warm the event pool and heap capacity.
	for i := 0; i < 64; i++ {
		e.AfterArg(Duration(i), fn, nil)
	}
	e.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		e.AfterArg(10, fn, nil)
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("AfterArg+Step allocates %v per op, want 0", allocs)
	}
}

// After with a hoisted (not per-call) closure is also allocation-free: the
// func value converts to the event argument without boxing.
func TestAfterZeroAllocWithHoistedFn(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.After(Duration(i), fn)
	}
	e.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		e.After(10, fn)
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("After+Step allocates %v per op, want 0", allocs)
	}
}

// Schedule/cancel churn (the PLB timer pattern) must also be free of
// steady-state allocations even though cancelled events ride the heap.
func TestTimerChurnZeroAlloc(t *testing.T) {
	e := NewEngine()
	fn := func(any) {}
	for i := 0; i < 256; i++ {
		e.AfterArg(Duration(i), fn, nil)
	}
	e.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		tm := e.AfterArg(1000, fn, nil)
		tm.Stop()
		e.AfterArg(10, fn, nil)
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("schedule/cancel churn allocates %v per op, want 0", allocs)
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRand(21)
	for _, n := range []int{1, 2, 3, 7, 10, 1000, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 100; j++ {
			e.At(Time(j), func() {})
		}
		e.Run()
	}
}

// BenchmarkEngineTimerChurn measures the schedule/cancel hot loop the PLB
// order-queue timers and CPU completions exercise: a sliding window of
// pending timers where every iteration cancels one and re-arms it. With the
// event pool and lazy cancellation this runs allocation-free; the 4-ary
// heap keeps sift depth shallow at this window size.
func BenchmarkEngineTimerChurn(b *testing.B) {
	const window = 1024
	e := NewEngine()
	fn := func(any) {}
	timers := make([]Timer, window)
	for i := range timers {
		timers[i] = e.AfterArg(Duration(i+1)*Microsecond, fn, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot := i % window
		timers[slot].Stop()
		timers[slot] = e.AfterArg(Duration(slot+1)*Microsecond, fn, nil)
	}
}

func BenchmarkRandUint64(b *testing.B) {
	r := NewRand(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}
