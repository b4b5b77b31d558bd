package plb

import (
	"testing"
	"testing/quick"

	"albatross/internal/packet"
	"albatross/internal/sim"
)

type harness struct {
	e   *sim.Engine
	p   *PLB
	out []Emission
	t   *testing.T
}

func newHarness(t *testing.T, cfg Config) *harness {
	h := &harness{e: sim.NewEngine(), t: t}
	p, err := New(h.e, cfg, func(em Emission) { h.out = append(h.out, em) })
	if err != nil {
		t.Fatal(err)
	}
	h.p = p
	return h
}

func cfg1q(cores int) Config {
	return Config{
		NumOrderQueues: 1,
		QueueDepth:     16,
		Timeout:        100 * sim.Microsecond,
		HOLThreshold:   10 * sim.Microsecond,
		NumCores:       cores,
	}
}

func TestDefaultConfig(t *testing.T) {
	c := DefaultConfig(3, 44)
	if c.NumOrderQueues != 4 || c.QueueDepth != 4096 || c.NumCores != 44 || c.PodID != 3 {
		t.Fatalf("config = %+v", c)
	}
	if DefaultConfig(0, 2).NumOrderQueues != 1 {
		t.Fatal("min queues != 1")
	}
	if DefaultConfig(0, 100).NumOrderQueues != 8 {
		t.Fatal("max queues != 8")
	}
}

func TestNewValidation(t *testing.T) {
	e := sim.NewEngine()
	if _, err := New(e, Config{NumOrderQueues: 0, NumCores: 1}, nil); err == nil {
		t.Fatal("0 queues accepted")
	}
	if _, err := New(e, Config{NumOrderQueues: 1, QueueDepth: 100, NumCores: 1}, nil); err == nil {
		t.Fatal("non-power-of-two depth accepted")
	}
	if _, err := New(e, Config{NumOrderQueues: 1, NumCores: 0}, nil); err == nil {
		t.Fatal("0 cores accepted")
	}
	p, err := New(e, Config{NumOrderQueues: 1, NumCores: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := p.cfg
	if c.QueueDepth != 4096 || c.Timeout != 100*sim.Microsecond || c.HOLThreshold != 10*sim.Microsecond {
		t.Fatalf("defaults not applied: %+v", c)
	}
}

func TestRoundRobinSpray(t *testing.T) {
	h := newHarness(t, cfg1q(4))
	cores := map[int]int{}
	for i := 0; i < 12; i++ {
		core, _, ok := h.p.Dispatch(uint32(i * 7919))
		if !ok {
			t.Fatal("dispatch failed")
		}
		cores[core]++
	}
	for c := 0; c < 4; c++ {
		if cores[c] != 3 {
			t.Fatalf("core %d got %d packets, want 3 (round robin)", c, cores[c])
		}
	}
}

func TestInOrderReturnEmitsInOrder(t *testing.T) {
	h := newHarness(t, cfg1q(2))
	var metas []packet.Meta
	for i := 0; i < 8; i++ {
		_, m, ok := h.p.Dispatch(0)
		if !ok {
			t.Fatal("dispatch failed")
		}
		metas = append(metas, m)
	}
	for i, m := range metas {
		i, m := i, m
		h.e.At(sim.Time(1000*(i+1)), func() { h.p.Return(i, m) })
	}
	h.e.Run()
	if len(h.out) != 8 {
		t.Fatalf("emitted %d, want 8", len(h.out))
	}
	for i, em := range h.out {
		if !em.InOrder {
			t.Fatalf("emission %d not in order", i)
		}
		if em.Item.(int) != i {
			t.Fatalf("emission %d carries item %v", i, em.Item)
		}
	}
	s := h.p.Stats()
	if s.EmittedInOrder != 8 || s.EmittedBestEffort != 0 || s.Dispatched != 8 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestOutOfOrderReturnReordered(t *testing.T) {
	h := newHarness(t, cfg1q(4))
	var metas []packet.Meta
	for i := 0; i < 8; i++ {
		_, m, _ := h.p.Dispatch(0)
		metas = append(metas, m)
	}
	// Return in reverse: core latencies inverted.
	for i := 7; i >= 0; i-- {
		i := i
		m := metas[i]
		h.e.At(sim.Time(1000*(8-i)), func() { h.p.Return(i, m) })
	}
	h.e.Run()
	if len(h.out) != 8 {
		t.Fatalf("emitted %d, want 8", len(h.out))
	}
	for i, em := range h.out {
		if em.Item.(int) != i || !em.InOrder {
			t.Fatalf("emission %d = item %v inorder=%v; order not restored", i, em.Item, em.InOrder)
		}
	}
	// All emissions happen when the last (head) packet returns.
	if h.out[0].Time != h.out[7].Time {
		t.Fatal("reordered burst should flush together")
	}
}

func TestFIFOFullDrops(t *testing.T) {
	h := newHarness(t, cfg1q(1))
	for i := 0; i < 16; i++ {
		if _, _, ok := h.p.Dispatch(0); !ok {
			t.Fatalf("dispatch %d failed below capacity", i)
		}
	}
	if _, _, ok := h.p.Dispatch(0); ok {
		t.Fatal("dispatch beyond FIFO depth succeeded")
	}
	if h.p.Stats().DispatchDrops != 1 {
		t.Fatalf("drops = %d", h.p.Stats().DispatchDrops)
	}
	if int(h.p.queues[0].tail-h.p.queues[0].head) != 16 {
		t.Fatalf("inflight = %d", int(h.p.queues[0].tail-h.p.queues[0].head))
	}
}

func TestTimeoutReleasesHead(t *testing.T) {
	h := newHarness(t, cfg1q(2))
	_, m0, _ := h.p.Dispatch(0) // never returned (simulates CPU loss)
	_, m1, _ := h.p.Dispatch(0)
	h.e.At(sim.Time(10*sim.Microsecond), func() { h.p.Return("b", m1) })
	h.e.Run()

	// Packet b must have been emitted in order after the head timed out at
	// 100µs, not blocked forever.
	if len(h.out) != 1 {
		t.Fatalf("emitted %d, want 1", len(h.out))
	}
	if h.out[0].Item != "b" || !h.out[0].InOrder {
		t.Fatalf("emission = %+v", h.out[0])
	}
	if h.out[0].Time != sim.Time(100*sim.Microsecond) {
		t.Fatalf("released at %v, want exactly the 100µs timeout", h.out[0].Time)
	}
	s := h.p.Stats()
	if s.TimeoutReleases != 1 {
		t.Fatalf("timeout releases = %d", s.TimeoutReleases)
	}
	if s.HOLEvents == 0 {
		t.Fatal("a 100µs head block must count as a HOL event")
	}
	_ = m0
}

func TestLateReturnBestEffort(t *testing.T) {
	h := newHarness(t, cfg1q(2))
	_, m0, _ := h.p.Dispatch(0)
	_, m1, _ := h.p.Dispatch(0)
	h.e.At(sim.Time(10*sim.Microsecond), func() { h.p.Return(1, m1) })
	// Head comes back *after* its timeout release: legal check fails
	// (window has moved past it), so best-effort emission.
	h.e.At(sim.Time(200*sim.Microsecond), func() { h.p.Return(0, m0) })
	h.e.Run()
	if len(h.out) != 2 {
		t.Fatalf("emitted %d, want 2", len(h.out))
	}
	if h.out[0].Item.(int) != 1 || !h.out[0].InOrder {
		t.Fatalf("first emission = %+v", h.out[0])
	}
	if h.out[1].Item.(int) != 0 || h.out[1].InOrder {
		t.Fatalf("late packet should be best-effort: %+v", h.out[1])
	}
	st := h.p.Stats()
	if st.DisorderRate() != 0.5 {
		t.Fatalf("disorder rate = %v", st.DisorderRate())
	}
}

func TestDropFlagReleasesResources(t *testing.T) {
	h := newHarness(t, cfg1q(2))
	_, m0, _ := h.p.Dispatch(0)
	_, m1, _ := h.p.Dispatch(0)
	// CPU decides to ACL-drop packet 0 and returns it with the drop flag.
	m0.Flags |= packet.MetaFlagDrop
	h.e.At(sim.Time(5*sim.Microsecond), func() { h.p.Return(nil, m0) })
	h.e.At(sim.Time(6*sim.Microsecond), func() { h.p.Return(1, m1) })
	h.e.Run()
	// Only packet 1 is emitted; no 100µs HOL stall occurred.
	if len(h.out) != 1 || h.out[0].Item.(int) != 1 {
		t.Fatalf("out = %+v", h.out)
	}
	if h.out[0].Time != sim.Time(6*sim.Microsecond) {
		t.Fatalf("emitted at %v; drop flag failed to unblock head", h.out[0].Time)
	}
	s := h.p.Stats()
	if s.DropFlagReleases != 1 || s.TimeoutReleases != 0 || s.HOLEvents != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestWithoutDropFlagHOLOccurs(t *testing.T) {
	// The Fig. 12 contrast: same workload, but the CPU drop is silent.
	h := newHarness(t, cfg1q(2))
	_, _, _ = h.p.Dispatch(0) // silently dropped by CPU
	_, m1, _ := h.p.Dispatch(0)
	h.e.At(sim.Time(6*sim.Microsecond), func() { h.p.Return(1, m1) })
	h.e.Run()
	if len(h.out) != 1 {
		t.Fatalf("out = %+v", h.out)
	}
	if h.out[0].Time != sim.Time(100*sim.Microsecond) {
		t.Fatalf("emitted at %v, want 100µs (HOL until timeout)", h.out[0].Time)
	}
	s := h.p.Stats()
	if s.TimeoutReleases != 1 || s.HOLEvents == 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestStaleAliasCase3(t *testing.T) {
	// Depth 16 => legal check uses low 4 bits. A stale packet with
	// psn = head+16 aliases into the window, passes the legal check, and
	// must be caught by the reorder check's PSN comparison (case 3).
	h := newHarness(t, cfg1q(1))
	_, m0, _ := h.p.Dispatch(0)
	stale := m0
	stale.PSN = m0.PSN + 16 // same low-4 bits
	h.e.At(1000, func() { h.p.Return("stale", stale) })
	h.e.At(2000, func() { h.p.Return("real", m0) })
	h.e.Run()
	if len(h.out) != 2 {
		t.Fatalf("emitted %d, want 2", len(h.out))
	}
	if h.out[0].Item != "stale" || h.out[0].InOrder {
		t.Fatalf("stale emission = %+v", h.out[0])
	}
	if h.out[1].Item != "real" || !h.out[1].InOrder {
		t.Fatalf("real emission = %+v", h.out[1])
	}
	if h.p.Stats().StaleEmissions != 1 {
		t.Fatalf("stale emissions = %d", h.p.Stats().StaleEmissions)
	}
}

func TestHeaderOnlyPayloadGone(t *testing.T) {
	cfg := cfg1q(2)
	cfg.PayloadRetained = func(m packet.Meta, now sim.Time) bool {
		// Payload evicted 150µs after ingress.
		return now.Sub(sim.Time(m.IngressNS)) < 150*sim.Microsecond
	}
	h := newHarness(t, cfg)
	_, m0, _ := h.p.Dispatch(0)
	m0.Flags |= packet.MetaFlagHeaderOnly
	_, m1, _ := h.p.Dispatch(0)
	h.e.At(sim.Time(10*sim.Microsecond), func() { h.p.Return(1, m1) })
	// Returns at 200µs: legal check fails AND payload is gone => header drop.
	h.e.At(sim.Time(200*sim.Microsecond), func() { h.p.Return(0, m0) })
	h.e.Run()
	if len(h.out) != 1 {
		t.Fatalf("emitted %d, want 1 (header dropped)", len(h.out))
	}
	if h.p.Stats().HeaderDrops != 1 {
		t.Fatalf("header drops = %d", h.p.Stats().HeaderDrops)
	}
}

func TestHeaderOnlyPayloadStillThere(t *testing.T) {
	cfg := cfg1q(2)
	cfg.PayloadRetained = func(m packet.Meta, now sim.Time) bool { return true }
	h := newHarness(t, cfg)
	_, m0, _ := h.p.Dispatch(0)
	m0.Flags |= packet.MetaFlagHeaderOnly
	_, m1, _ := h.p.Dispatch(0)
	h.e.At(sim.Time(10*sim.Microsecond), func() { h.p.Return(1, m1) })
	h.e.At(sim.Time(200*sim.Microsecond), func() { h.p.Return(0, m0) })
	h.e.Run()
	if len(h.out) != 2 {
		t.Fatalf("emitted %d, want 2 (payload retained => best-effort send)", len(h.out))
	}
}

func TestMultipleQueuesIndependentHOL(t *testing.T) {
	cfg := cfg1q(2)
	cfg.NumOrderQueues = 2
	h := newHarness(t, cfg)
	// Flow hash 0 -> queue 0, flow hash 1 -> queue 1.
	_, _, _ = h.p.Dispatch(0) // queue 0 head, never returns (HOL)
	_, m1, _ := h.p.Dispatch(1)
	h.e.At(1000, func() { h.p.Return("q1", m1) })
	h.e.Run()
	if len(h.out) != 1 || h.out[0].Time != 1000 {
		t.Fatalf("queue 1 blocked by queue 0's HOL: %+v", h.out)
	}
	if h.p.OrdQueueFor(0) == h.p.OrdQueueFor(1) {
		t.Fatal("hashes 0 and 1 should map to different queues")
	}
}

func TestPSNWraparound(t *testing.T) {
	// Push far more than 65536 packets through a small queue to exercise
	// full 16-bit PSN wraparound.
	h := newHarness(t, cfg1q(1))
	const total = 70000
	dispatched := 0
	var pump func()
	pump = func() {
		for batch := 0; batch < 8 && dispatched < total; batch++ {
			_, m, ok := h.p.Dispatch(0)
			if !ok {
				break
			}
			id := dispatched
			dispatched++
			h.e.After(100, func() { h.p.Return(id, m) })
		}
		if dispatched < total {
			h.e.After(200, pump)
		}
	}
	pump()
	h.e.Run()
	if dispatched != total {
		t.Fatalf("dispatched %d", dispatched)
	}
	if len(h.out) != total {
		t.Fatalf("emitted %d, want %d", len(h.out), total)
	}
	for i, em := range h.out {
		if em.Item.(int) != i || !em.InOrder {
			t.Fatalf("emission %d: item=%v inorder=%v", i, em.Item, em.InOrder)
		}
	}
}

// TestPSNWindow pins the FPGA legal check at the paper's 4K depth: the low
// 12 bits of a returned PSN against the FIFO's [head, tail) window, counters
// free-running over 16 bits, aliasing included.
func TestPSNWindow(t *testing.T) {
	p, err := New(sim.NewEngine(), Config{NumOrderQueues: 1, QueueDepth: 4096, NumCores: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		psn, head, tail uint16
		want            bool
	}{
		{psn: 5, head: 0, tail: 10, want: true},
		{psn: 10, head: 0, tail: 10, want: false},       // tail exclusive
		{psn: 0, head: 0, tail: 10, want: true},         // head inclusive
		{psn: 5, head: 5, tail: 5, want: false},         // empty window
		{psn: 4090, head: 4000, tail: 4196, want: true}, // window wrapping 4K
		{psn: 50, head: 4000, tail: 4196, want: true},   // its low side
		{psn: 200, head: 4000, tail: 4196, want: false}, // outside it
		{psn: 0x1005, head: 0, tail: 10, want: true},    // aliasing: low 12 bits in window
		{psn: 7, head: 100, tail: 100 + 4096, want: true},
	}
	for i, c := range cases {
		if got := p.inWindow(c.psn, c.head, c.tail); got != c.want {
			t.Errorf("case %d: inWindow(%d,%d,%d) = %v, want %v", i, c.psn, c.head, c.tail, got, c.want)
		}
	}
}

func TestPSNWindowProperty(t *testing.T) {
	p, err := New(sim.NewEngine(), Config{NumOrderQueues: 1, QueueDepth: 4096, NumCores: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// For any non-full window, a PSN equal to head+k for k < size must be
	// inside; head+size must be outside.
	f := func(head, sizeRaw uint16) bool {
		size := sizeRaw%4095 + 1
		tail := head + size
		for _, k := range []uint16{0, size / 2, size - 1} {
			if !p.inWindow(head+k, head, tail) {
				return false
			}
		}
		return !p.inWindow(tail, head, tail)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptMetaBestEffort(t *testing.T) {
	h := newHarness(t, cfg1q(1))
	h.p.Return("junk", packet.Meta{OrdQ: 99, PSN: 5})
	if len(h.out) != 1 || h.out[0].InOrder {
		t.Fatalf("corrupt meta handling: %+v", h.out)
	}
}

func TestHeadWaitAccounting(t *testing.T) {
	h := newHarness(t, cfg1q(1))
	_, m0, _ := h.p.Dispatch(0)
	h.e.At(sim.Time(20*sim.Microsecond), func() { h.p.Return(0, m0) })
	h.e.Run()
	if h.p.HeadWaitMean() != 20*sim.Microsecond {
		t.Fatalf("head wait mean = %v", h.p.HeadWaitMean())
	}
	if h.p.HeadWaitMax() != 20*sim.Microsecond {
		t.Fatalf("head wait max = %v", h.p.HeadWaitMax())
	}
	if h.p.Stats().HOLEvents != 1 {
		t.Fatal("20µs wait should exceed the 10µs HOL threshold")
	}
}

// sent is a test packet: the PSN and order queue it was dispatched with.
type sent struct {
	psn  uint16
	ordQ uint8
}

// Property: for any pattern of return delays (including losses and a
// forced head-of-line hold), the in-order emissions of each queue appear in
// strictly increasing PSN order, every emission carries the PSN and order
// queue its packet was dispatched with, and accounting conserves packets.
func TestOrderAndConservationProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := sim.NewRand(seed)
		e := sim.NewEngine()
		var out []Emission
		cfg := Config{
			NumOrderQueues: 1 + int(seed%3),
			QueueDepth:     64,
			Timeout:        100 * sim.Microsecond,
			NumCores:       4,
		}
		p, err := New(e, cfg, func(em Emission) { out = append(out, em) })
		if err != nil {
			return false
		}
		const n = 500
		dropped := 0
		lost := 0
		dispatched := 0
		for i := 0; i < n; i++ {
			at := sim.Time(i) * sim.Time(r.Exp(2*sim.Microsecond)/1000+1)
			e.At(at, func() {
				flow := r.Uint32() % 16
				_, m, ok := p.Dispatch(flow)
				if !ok {
					return
				}
				dispatched++
				item := sent{psn: m.PSN, ordQ: m.OrdQ}
				switch r.Intn(10) {
				case 0: // silent CPU loss
					lost++
				case 1: // ACL drop with drop flag
					m.Flags |= packet.MetaFlagDrop
					dropped++
					e.After(r.Exp(20*sim.Microsecond), func() { p.Return(item, m) })
				default:
					e.After(r.Exp(30*sim.Microsecond), func() { p.Return(item, m) })
				}
			})
		}
		if seed%2 == 0 {
			// Half the runs hold queue 0's heads from mid-dispatch on: its
			// buffered packets leave best-effort through the timeout path.
			e.At(500, func() {
				if err := p.StressQueue(0, 300*sim.Microsecond, true, 0); err != nil {
					t.Error(err)
				}
			})
		}
		e.Run()
		s := p.Stats()
		// Conservation: every dispatched packet is accounted for.
		accounted := s.EmittedInOrder + s.EmittedBestEffort + s.DropFlagReleases + s.HeaderDrops
		// Drop-flagged packets that timed out before returning are silently
		// freed; silent losses never emit. Both are <= dropped+lost.
		if accounted > uint64(dispatched) {
			return false
		}
		if accounted < uint64(dispatched-dropped-lost) {
			return false
		}
		// Every emission, in-order or best-effort, carries its dispatch
		// PSN and order queue.
		for _, em := range out {
			if em.Item != (sent{psn: em.Meta.PSN, ordQ: em.Meta.OrdQ}) {
				t.Logf("emission %+v carries PSN %d queue %d", em.Item, em.Meta.PSN, em.Meta.OrdQ)
				return false
			}
		}
		// Per-queue in-order PSN monotonicity.
		lastPSN := map[uint8]int{}
		for _, em := range out {
			if !em.InOrder {
				continue
			}
			q := em.Meta.OrdQ
			cur := int(em.Meta.PSN)
			if prev, seen := lastPSN[q]; seen {
				// Strictly increasing modulo 2^16.
				if uint16(cur-prev) == 0 || uint16(cur-prev) > 32768 {
					return false
				}
			}
			lastPSN[q] = cur
		}
		// Emission timestamps never decrease.
		for i := 1; i < len(out); i++ {
			if out[i].Time < out[i-1].Time {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: Flush hands every buffered packet that carries no drop flag
// back exactly once — each packet returned before the flush either was
// emitted or comes back from Flush, never both — and discards every FIFO
// entry.
func TestFlushHandsBackBufferedOnceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := sim.NewRand(seed)
		e := sim.NewEngine()
		emitted := map[sent]int{}
		p, err := New(e, Config{NumOrderQueues: 1 + int(seed%4), QueueDepth: 64, NumCores: 4},
			func(em Emission) { emitted[em.Item.(sent)]++ })
		if err != nil {
			return false
		}
		if seed%2 == 0 {
			// Queue 0 holds its heads past the flush: even a returned head
			// packet is still buffered when Flush runs.
			if err := p.StressQueue(0, 200*sim.Microsecond, true, 0); err != nil {
				t.Error(err)
			}
		}
		// Dispatch and return well inside the 100µs timeout, in random
		// order, so nothing leaves by timeout or aliases a slot.
		returned := map[sent]bool{} // value: returned with the drop flag
		inFlight := 0
		for i := 0; i < 200; i++ {
			_, m, ok := p.Dispatch(r.Uint32())
			if !ok {
				continue
			}
			inFlight++
			item := sent{psn: m.PSN, ordQ: m.OrdQ}
			switch r.Intn(4) {
			case 0: // still on a core at the flush
			case 1:
				m.Flags |= packet.MetaFlagDrop
				returned[item] = true
				e.After(sim.Duration(r.Intn(20_000)), func() { p.Return(item, m) })
			default:
				returned[item] = false
				e.After(sim.Duration(r.Intn(20_000)), func() { p.Return(item, m) })
			}
		}
		e.RunUntil(sim.Time(30 * sim.Microsecond))
		handed := map[sent]int{}
		discarded := p.Flush(func(item any) { handed[item.(sent)]++ })
		for item, drop := range returned {
			n := emitted[item] + handed[item]
			if drop && n != 0 || !drop && n != 1 {
				t.Logf("packet %+v (drop flag %v): emitted %d, handed back %d", item, drop, emitted[item], handed[item])
				return false
			}
		}
		for item := range handed {
			if _, ok := returned[item]; !ok {
				t.Logf("Flush handed back %+v, which never returned", item)
				return false
			}
		}
		s := p.Stats()
		released := s.EmittedInOrder + s.DropFlagReleases
		return uint64(discarded) == uint64(inFlight)-released && s.Flushed == uint64(discarded)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDispatchReturn(b *testing.B) {
	e := sim.NewEngine()
	p, _ := New(e, Config{NumOrderQueues: 4, QueueDepth: 4096, NumCores: 44}, func(Emission) {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, m, ok := p.Dispatch(uint32(i))
		if ok {
			p.Return(nil, m)
		}
	}
}

// The dispatch/return steady state must not allocate: order-queue timers
// ride pooled engine events through boxed queueRefs, and the round-robin
// cursor and queue selection are arithmetic only.
func TestDispatchReturnZeroAlloc(t *testing.T) {
	e := sim.NewEngine()
	p, err := New(e, Config{NumOrderQueues: 4, QueueDepth: 4096, NumCores: 44}, func(Emission) {})
	if err != nil {
		t.Fatal(err)
	}
	// Warm the engine's event pool and the emission path.
	for i := 0; i < 256; i++ {
		if _, m, ok := p.Dispatch(uint32(i)); ok {
			p.Return(nil, m)
		}
	}
	e.Run()
	i := uint32(0)
	allocs := testing.AllocsPerRun(1000, func() {
		i++
		_, m, ok := p.Dispatch(i)
		if !ok {
			t.Fatal("dispatch refused in steady state")
		}
		p.Return(nil, m)
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("Dispatch+Return allocates %v per op, want 0", allocs)
	}
}

// Dispatch must not re-arm the head timer per packet: with an armed timer
// and an unchanged head entry, scheduling stays untouched until the timer
// fires or the queue drains.
func TestDispatchDoesNotRearmTimerPerPacket(t *testing.T) {
	h := newHarness(t, cfg1q(4))
	before := h.e.Pending()
	metas := make([]packet.Meta, 0, 8)
	for i := 0; i < 8; i++ {
		_, m, ok := h.p.Dispatch(7)
		if !ok {
			t.Fatal("dispatch refused")
		}
		metas = append(metas, m)
	}
	// Exactly one head timer exists regardless of queue length.
	if got := h.e.Pending() - before; got != 1 {
		t.Fatalf("pending timers after 8 dispatches = %d, want 1", got)
	}
	for _, m := range metas {
		h.p.Return(nil, m)
	}
	if len(h.out) != 8 {
		t.Fatalf("emitted %d, want 8", len(h.out))
	}
	for i, em := range h.out {
		if !em.InOrder {
			t.Fatalf("emission %d not in order", i)
		}
	}
}

// A non-power-of-two queue count keeps the exact modulo mapping; a
// power-of-two count takes the mask path with the identical result.
func TestOrdQueueForMaskMatchesModulo(t *testing.T) {
	e := sim.NewEngine()
	for _, nq := range []int{1, 2, 3, 4, 5, 7, 8} {
		p, err := New(e, Config{NumOrderQueues: nq, QueueDepth: 64, NumCores: 4}, nil)
		if err != nil {
			t.Fatal(err)
		}
		r := sim.NewRand(uint64(nq))
		for i := 0; i < 2000; i++ {
			h := r.Uint32()
			want := uint8(h % uint32(nq))
			if got := p.OrdQueueFor(h); got != want {
				t.Fatalf("nq=%d hash=%#x: OrdQueueFor=%d want %d", nq, h, got, want)
			}
		}
	}
}
