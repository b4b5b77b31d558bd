package cachesim

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"albatross/internal/sim"
)

// Flush empties the cache and clears counters. Runs build a fresh cache
// instead; the tests and the reference-LRU fuzz target reset one in place.
func (c *Cache) Flush() {
	clear(c.tags)
	c.ResetStats()
}

func small() *Cache {
	// 64 sets * 4 ways * 64B = 16KB
	return New(Config{SizeBytes: 16 << 10, Ways: 4, LineBytes: 64})
}

func TestGeometry(t *testing.T) {
	c := small()
	if c.sets != 64 || c.Ways() != 4 || c.LineBytes() != 64 {
		t.Fatalf("geometry: sets=%d ways=%d line=%d", c.sets, c.Ways(), c.LineBytes())
	}
	if c.SizeBytes() != 16<<10 {
		t.Fatalf("size = %d", c.SizeBytes())
	}
}

func TestGeometryRounding(t *testing.T) {
	for _, tc := range []struct {
		name             string
		cfg              Config
		sets, ways, line int
	}{
		{"100 sets round down to 64", Config{SizeBytes: 100 * 4 * 64, Ways: 4, LineBytes: 64}, 64, 4, 64},
		{"degenerate config gets defaults", Config{}, 1, 16, 64},
		{"48 B lines round down to 32", Config{SizeBytes: 16 << 10, Ways: 4, LineBytes: 48}, 128, 4, 32},
		{"100 B lines round down to 64", Config{SizeBytes: 16 << 10, Ways: 4, LineBytes: 100}, 64, 4, 64},
		{"direct mapped", Config{SizeBytes: 4 << 10, Ways: 1, LineBytes: 64}, 64, 1, 64},
		{"three ways, 85 sets round down to 64", Config{SizeBytes: 16 << 10, Ways: 3, LineBytes: 64}, 64, 3, 64},
	} {
		c := New(tc.cfg)
		if c.sets != tc.sets || c.Ways() != tc.ways || c.LineBytes() != tc.line {
			t.Errorf("%s: sets=%d ways=%d line=%d, want %d/%d/%d",
				tc.name, c.sets, c.Ways(), c.LineBytes(), tc.sets, tc.ways, tc.line)
		}
		if c.SizeBytes() != tc.sets*tc.ways*tc.line {
			t.Errorf("%s: size = %d", tc.name, c.SizeBytes())
		}
	}
}

// An access whose last byte wraps past the top of the address space touches
// nothing (and, above all, terminates); the last line itself is reachable.
func TestAccessAtTopOfAddressSpace(t *testing.T) {
	c := small()
	top := ^uint64(0)
	if h, m := c.Access(top-10, 64); h != 0 || m != 0 {
		t.Fatalf("wrapping access: h=%d m=%d, want 0/0", h, m)
	}
	c.Warm(top-10, 64)
	if c.Hits() != 0 || c.Misses() != 0 {
		t.Fatalf("wrapping access counted: %d/%d", c.Hits(), c.Misses())
	}
	if h, m := c.Access(top-10, 11); h != 0 || m != 1 {
		t.Fatalf("last line, first touch: h=%d m=%d", h, m)
	}
	if h, m := c.Access(top, 1); h != 1 || m != 0 {
		t.Fatalf("last line, second touch: h=%d m=%d", h, m)
	}
}

func TestHitAfterMiss(t *testing.T) {
	c := small()
	h, m := c.Access(0x1000, 8)
	if h != 0 || m != 1 {
		t.Fatalf("first access: h=%d m=%d", h, m)
	}
	h, m = c.Access(0x1000, 8)
	if h != 1 || m != 0 {
		t.Fatalf("second access: h=%d m=%d", h, m)
	}
	if c.Hits() != 1 || c.Misses() != 1 || c.HitRate() != 0.5 {
		t.Fatalf("counters: h=%d m=%d rate=%v", c.Hits(), c.Misses(), c.HitRate())
	}
}

func TestMultiLineAccess(t *testing.T) {
	c := small()
	// 200 bytes starting mid-line spans 4 lines (offset 32: 32+200 = 232 -> lines 0..3).
	h, m := c.Access(32, 200)
	if h != 0 || m != 4 {
		t.Fatalf("spanning access: h=%d m=%d", h, m)
	}
	h, m = c.Access(0, 64*4)
	if h != 4 || m != 0 {
		t.Fatalf("re-read: h=%d m=%d", h, m)
	}
}

func TestZeroSizeAccess(t *testing.T) {
	c := small()
	h, m := c.Access(0x40, 0)
	if h+m != 1 {
		t.Fatalf("zero-size access touched %d lines", h+m)
	}
}

func TestWorkingSetFitsHighHitRate(t *testing.T) {
	c := small() // 16KB = 256 line slots
	// A 4KB (64-line) working set in a 16KB cache: after warm-up nearly
	// everything hits. Hashed set indexing means a handful of conflict
	// misses are possible (as on real hardware), so assert >= 95%.
	for pass := 0; pass < 4; pass++ {
		if pass == 1 {
			c.ResetStats()
		}
		for off := uint64(0); off < 4<<10; off += 64 {
			c.Access(off, 1)
		}
	}
	if c.HitRate() < 0.95 {
		t.Fatalf("hit rate = %v after warm-up on fitting working set", c.HitRate())
	}
}

func TestWorkingSetExceedsLowHitRate(t *testing.T) {
	c := small() // 16KB
	r := sim.NewRand(5)
	// 1MB working set, random access: hit rate ≈ 16KB/1MB ≈ 1.6%.
	for i := 0; i < 200000; i++ {
		addr := uint64(r.Intn(1 << 20))
		c.Access(addr, 1)
	}
	if c.HitRate() > 0.1 {
		t.Fatalf("hit rate = %v, want < 0.1 for thrashing working set", c.HitRate())
	}
}

func TestLRUWithinSet(t *testing.T) {
	// Direct test of LRU: use a 1-set cache (ways=4, sets=1).
	c := New(Config{SizeBytes: 4 * 64, Ways: 4, LineBytes: 64})
	if c.sets != 1 {
		t.Fatalf("sets = %d", c.sets)
	}
	// Fill 4 ways with distinct lines.
	lines := []uint64{0, 1 << 12, 2 << 12, 3 << 12}
	for _, a := range lines {
		c.Access(a, 1)
	}
	// Touch line 0 making line at 1<<12 the LRU victim.
	c.Access(lines[0], 1)
	// Insert a 5th line, evicting lines[1].
	c.Access(4<<12, 1)
	c.ResetStats()
	c.Access(lines[0], 1)
	if c.Misses() != 0 {
		t.Fatal("recently used line was evicted")
	}
	c.Access(lines[1], 1)
	if c.Misses() != 1 {
		t.Fatal("LRU line was not evicted")
	}
}

func TestFlush(t *testing.T) {
	c := small()
	c.Access(0, 1)
	c.Access(0, 1)
	c.Flush()
	if c.Hits() != 0 || c.Misses() != 0 {
		t.Fatal("flush did not clear counters")
	}
	_, m := c.Access(0, 1)
	if m != 1 {
		t.Fatal("flush did not clear contents")
	}
}

func TestHitRateEmptyCache(t *testing.T) {
	if small().HitRate() != 0 {
		t.Fatal("empty cache hit rate != 0")
	}
}

func TestSetDistribution(t *testing.T) {
	// Sequential table entries (regular stride) should spread across sets
	// thanks to address mixing, not alias onto a few sets.
	c := New(Config{SizeBytes: 1 << 20, Ways: 8, LineBytes: 64}) // 2048 sets, 16384 lines
	r := sim.NewRand(3)
	// 10k regular-stride 256B entries (40k lines) accessed in *random*
	// order: steady-state hit rate should approach capacity/working-set
	// (16384/40000 ≈ 0.4). Without address mixing, the regular stride
	// aliases onto a fraction of the sets and the rate collapses.
	for i := 0; i < 100000; i++ {
		e := uint64(r.Intn(10000))
		c.Access(1<<40+e*256, 256)
	}
	c.ResetStats()
	for i := 0; i < 100000; i++ {
		e := uint64(r.Intn(10000))
		c.Access(1<<40+e*256, 256)
	}
	rate := c.HitRate()
	if rate < 0.25 || rate > 0.6 {
		t.Fatalf("regular-stride hit rate = %v, want mid-range (good set mixing)", rate)
	}
}

func TestAccessDeterministic(t *testing.T) {
	run := func() (uint64, uint64) {
		c := small()
		r := sim.NewRand(9)
		for i := 0; i < 10000; i++ {
			c.Access(uint64(r.Intn(1<<18)), 1+r.Intn(300))
		}
		return c.Hits(), c.Misses()
	}
	h1, m1 := run()
	h2, m2 := run()
	if h1 != h2 || m1 != m2 {
		t.Fatal("cache simulation not deterministic")
	}
}

func TestCountersConsistentProperty(t *testing.T) {
	f := func(addrs []uint32, sizes []uint8) bool {
		c := small()
		var localH, localM uint64
		for i, a := range addrs {
			size := 1
			if i < len(sizes) {
				size = int(sizes[i])
			}
			h, m := c.Access(uint64(a), size)
			if h < 0 || m < 0 || h+m == 0 {
				return false
			}
			localH += uint64(h)
			localM += uint64(m)
		}
		return localH == c.Hits() && localM == c.Misses()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMemLatency(t *testing.T) {
	m := DefaultLatency()
	if m.Cost(1, 0) != m.L3HitNS || m.Cost(0, 1) != m.DRAMNS {
		t.Fatal("cost basics wrong")
	}
	if m.Cost(2, 3) != 2*m.L3HitNS+3*m.DRAMNS {
		t.Fatal("cost sum wrong")
	}
	faster := m.WithDRAMFrequency(5600)
	if faster.DRAMNS >= m.DRAMNS {
		t.Fatal("higher frequency should lower DRAM latency")
	}
	want := m.DRAMNS * 4800 / 5600
	if math.Abs(faster.DRAMNS-want) > 1e-9 {
		t.Fatalf("scaled latency = %v, want %v", faster.DRAMNS, want)
	}
	if faster.L3HitNS != m.L3HitNS {
		t.Fatal("frequency scaling should not touch L3 latency")
	}
}

func TestDefaultL3Geometry(t *testing.T) {
	c := New(DefaultL3())
	if c.SizeBytes() < 50<<20 {
		t.Fatalf("default L3 too small: %d", c.SizeBytes())
	}
}

// BenchmarkAccess times the layer on the packet path's own patterns, all on
// DefaultL3 with one line per access: the same line again and again; the
// node-perpkt shape (90 k lines that fit, visited in a cycle, so every access
// hits somewhere in a lightly filled set); and the node-burst-miss shape
// (uniform addresses over 64x the capacity, nearly all misses into full
// sets), alone and with the burst path's Warm issued one access ahead.
func BenchmarkAccess(b *testing.B) {
	cyclic := make([]uint64, 90_000)
	for i := range cyclic {
		cyclic[i] = 1<<40 + uint64(i)*64
	}
	uniform := make([]uint64, 1<<21)
	r := sim.NewRand(1)
	for i := range uniform {
		uniform[i] = r.Uint64() % (64 * 100 << 20)
	}
	for _, bc := range []struct {
		name  string
		addrs []uint64
		warm  bool
	}{
		{"mru-hit", cyclic[:1], false},
		{"cyclic-90k-lines", cyclic, false},
		{"uniform-miss", uniform, false},
		{"uniform-miss-warmed", uniform, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			c := New(DefaultL3())
			for _, addr := range bc.addrs { // fill to steady state
				c.Access(addr, 1)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i, j := 0, 0; i < b.N; i++ {
				addr := bc.addrs[j]
				if j++; j == len(bc.addrs) {
					j = 0
				}
				if bc.warm {
					c.Warm(bc.addrs[j], 1)
				}
				c.Access(addr, 1)
			}
		})
	}
}

func TestPrefetchHelpsSequentialScan(t *testing.T) {
	run := func(prefetch bool) float64 {
		c := New(Config{SizeBytes: 64 << 10, Ways: 8, LineBytes: 64, NextLinePrefetch: prefetch})
		// Sequential walk over a 1MB region, twice the cache: every line is
		// cold on a plain cache; the prefetcher has the next line ready.
		for pass := 0; pass < 2; pass++ {
			for addr := uint64(0); addr < 1<<20; addr += 64 {
				c.Access(addr, 1)
			}
		}
		return c.HitRate()
	}
	plain := run(false)
	pf := run(true)
	if pf < plain+0.3 {
		t.Fatalf("prefetch hit rate %.2f vs plain %.2f: sequential scan should benefit heavily", pf, plain)
	}
}

func TestPrefetchNeutralOnRandomAccess(t *testing.T) {
	run := func(prefetch bool) float64 {
		c := New(Config{SizeBytes: 64 << 10, Ways: 8, LineBytes: 64, NextLinePrefetch: prefetch})
		r := sim.NewRand(3)
		for i := 0; i < 200000; i++ {
			c.Access(uint64(r.Intn(1<<22)), 1)
		}
		return c.HitRate()
	}
	plain := run(false)
	pf := run(true)
	if pf > plain+0.05 {
		t.Fatalf("prefetch should not help random access: %.3f vs %.3f", pf, plain)
	}
	// Useless prefetches must not *hurt* much either (they age out fast).
	if pf < plain-0.05 {
		t.Fatalf("prefetch pollution too strong: %.3f vs %.3f", pf, plain)
	}
}

func TestPrefetchCounter(t *testing.T) {
	c := New(Config{SizeBytes: 16 << 10, Ways: 4, LineBytes: 64, NextLinePrefetch: true})
	c.Access(0, 1)
	if c.Prefetches != 1 {
		t.Fatalf("prefetches = %d", c.Prefetches)
	}
	// The prefetched line hits on demand.
	if h, m := c.Access(64, 1); h != 1 || m != 0 {
		t.Fatalf("prefetched line: h=%d m=%d", h, m)
	}
}

// A prefetched line enters its set at recency position min(ways/2, lines in
// the set): it survives ways/2-1 further misses into the set and the next one
// evicts it, and prefetching a line that is already resident moves nothing.
func TestPrefetchPlacement(t *testing.T) {
	const ways = 8
	c := New(Config{SizeBytes: ways * 64, Ways: ways, LineBytes: 64}) // one set
	recency := func() []uint64 {
		var lines []uint64
		for _, tag := range c.tags {
			if tag != 0 {
				lines = append(lines, tag>>1)
			}
		}
		return lines
	}
	want := func(when string, lines ...uint64) {
		t.Helper()
		if got := recency(); !slices.Equal(got, lines) {
			t.Fatalf("%s: recency order %v, want %v", when, got, lines)
		}
	}

	// Fewer than ways/2 lines: the prefetch goes behind the ones there are.
	c.place(100<<1, 0)
	c.place(101<<1, 0)
	c.place(200<<1, ways/2)
	want("prefetch into 2 lines", 101, 100, 200)

	// A full set: position ways/2, and the old tail is dropped.
	c.Flush()
	for line := uint64(0); line < ways; line++ {
		c.place(line<<1, 0)
	}
	c.place(200<<1, ways/2)
	want("prefetch into a full set", 7, 6, 5, 4, 200, 3, 2, 1)

	// A resident line is not moved, neither up to ways/2 nor down to it.
	c.place(1<<1, ways/2)
	c.place(7<<1, ways/2)
	want("prefetch of resident lines", 7, 6, 5, 4, 200, 3, 2, 1)

	// ways/2-1 demand misses push it to the tail, one more evicts it.
	for i := uint64(0); i < ways/2-1; i++ {
		c.Access((300+i)*64, 1)
	}
	want("after ways/2-1 misses", 302, 301, 300, 7, 6, 5, 4, 200)
	c.Access(400*64, 1)
	want("after one more", 400, 302, 301, 300, 7, 6, 5, 4)
}

// refCache is the model Cache replaced, kept as its oracle: one (tag, last
// use) pair per way, a global clock ticked per line access, and a victim scan
// that prefers an empty way and otherwise takes the smallest timestamp. Demand
// path only, 64 B lines. It is plain LRU written the obvious way; Cache must
// agree with it access for access.
type refCache struct {
	ways         int
	setMask      uint64
	tag, last    []uint64
	clock        uint64
	hits, misses uint64
}

func newRefCache(sets, ways int) *refCache {
	return &refCache{
		ways: ways, setMask: uint64(sets - 1),
		tag: make([]uint64, sets*ways), last: make([]uint64, sets*ways),
	}
}

func (c *refCache) Access(addr uint64, size int) (hits, misses int) {
	if size <= 0 {
		size = 1
	}
	first := addr / 64
	last := (addr + uint64(size) - 1) / 64
	for line := first; line <= last; line++ {
		if c.touch(line << 1) {
			hits++
		} else {
			misses++
		}
	}
	return hits, misses
}

func (c *refCache) touch(line uint64) bool {
	c.clock++
	base := int(mix(line)&c.setMask) * c.ways
	tag := line | 1
	victim, oldest := 0, ^uint64(0)
	for i := base; i < base+c.ways; i++ {
		if c.tag[i] == tag {
			c.last[i] = c.clock
			c.hits++
			return true
		}
		if c.tag[i] == 0 {
			victim, oldest = i, 0
		} else if c.last[i] < oldest {
			victim, oldest = i, c.last[i]
		}
	}
	c.tag[victim], c.last[victim] = tag, c.clock
	c.misses++
	return false
}

func (c *refCache) ResetStats() { c.hits, c.misses = 0, 0 }

func (c *refCache) Flush() {
	clear(c.tag)
	clear(c.last)
	c.clock = 0
	c.ResetStats()
}

// lpmBase is the highest synthetic base address the simulator uses
// (internal/service): tags must hold 57-bit addresses exactly.
const lpmBase = 0x7f << 48

// cacheOp is one step of a differential run.
type cacheOp struct {
	kind byte // opAccess, opWarm, opResetStats, opFlush
	addr uint64
	size int
}

const (
	opAccess = iota
	opWarm
	opResetStats
	opFlush
)

// checkAgainstReference drives a Cache and a refCache of the same geometry
// through ops: every Access must return the same pair, the counters must
// agree after every step, and Warm must not show in either.
func checkAgainstReference(t testing.TB, sets, ways int, ops []cacheOp) {
	t.Helper()
	c := New(Config{SizeBytes: sets * ways * 64, Ways: ways, LineBytes: 64})
	if c.sets != sets || c.Ways() != ways {
		t.Fatalf("geometry %dx%d came out as %dx%d", sets, ways, c.sets, c.Ways())
	}
	ref := newRefCache(sets, ways)
	for i, op := range ops {
		switch op.kind {
		case opAccess:
			h, m := c.Access(op.addr, op.size)
			rh, rm := ref.Access(op.addr, op.size)
			if h != rh || m != rm {
				t.Fatalf("%dx%d op %d: Access(%#x, %d) = %d/%d, reference %d/%d",
					sets, ways, i, op.addr, op.size, h, m, rh, rm)
			}
		case opWarm:
			c.Warm(op.addr, op.size)
		case opResetStats:
			c.ResetStats()
			ref.ResetStats()
		case opFlush:
			c.Flush()
			ref.Flush()
		}
		if c.Hits() != ref.hits || c.Misses() != ref.misses {
			t.Fatalf("%dx%d op %d: counters %d/%d, reference %d/%d",
				sets, ways, i, c.Hits(), c.Misses(), ref.hits, ref.misses)
		}
	}
}

func TestCacheMatchesReferenceLRU(t *testing.T) {
	r := sim.NewRand(14)
	for _, ways := range []int{1, 2, 3, 8, 16} {
		for _, sets := range []int{1, 2, 16, 128, 1024} {
			// Working sets around the capacity, so hits, conflict misses and
			// capacity misses all occur: a Zipf-popular table, a cycle a
			// little larger than the cache (LRU's worst case), uniform draws.
			lines := sets * ways
			zipf := sim.NewZipf(r, 4*lines, 1.1)
			cycle := 0
			streams := []func() uint64{
				func() uint64 { return uint64(zipf.Next()) },
				func() uint64 { cycle = (cycle + 1) % (lines + lines/4 + 1); return uint64(cycle) },
				func() uint64 { return uint64(r.Intn(2 * lines)) },
			}
			for _, next := range streams {
				ops := make([]cacheOp, 20_000)
				for i := range ops {
					op := cacheOp{addr: lpmBase + next()*64 + uint64(r.Intn(64)), size: 1}
					switch roll := r.Intn(1000); {
					case roll < 2:
						op.kind = opFlush
					case roll < 10:
						op.kind = opResetStats
					case roll < 200:
						op.kind = opWarm
						op.size = 1 + r.Intn(256)
					case roll < 400:
						op.size = 1 + r.Intn(256) // up to five lines
					}
					ops[i] = op
				}
				checkAgainstReference(t, sets, ways, ops)
			}
		}
	}
}

// FuzzCacheMatchesReferenceLRU runs checkAgainstReference on a decoded byte
// string: geometry picks ways 1..16 and 1..1024 sets; each op is four bytes —
// kind, two address bytes (32 B granules, so neighbours share lines) and size.
func FuzzCacheMatchesReferenceLRU(f *testing.F) {
	f.Add(uint16(0), []byte("\x00\x00\x00\x01\x00\x00\x00\x01"))
	f.Add(uint16(0x030f), []byte("\x00\x01\x00\x40\x10\x01\x00\xff\x00\x01\x00\x40\xfe\x00\x00\x00\x00\x01\x00\x40"))
	f.Fuzz(func(t *testing.T, geometry uint16, data []byte) {
		ways := 1 + int(geometry&0xf)
		sets := 1 << ((geometry >> 8) % 11)
		ops := make([]cacheOp, 0, len(data)/4)
		for ; len(data) >= 4; data = data[4:] {
			op := cacheOp{
				addr: lpmBase + (uint64(data[1])<<8|uint64(data[2]))*32,
				size: int(data[3]),
			}
			switch k := data[0]; {
			case k == 0xff:
				op.kind = opFlush
			case k == 0xfe:
				op.kind = opResetStats
			case k&0xf0 == 0x10:
				op.kind = opWarm
			}
			ops = append(ops, op)
		}
		checkAgainstReference(t, sets, ways, ops)
	})
}

func TestAccessDoesNotAllocate(t *testing.T) {
	c := New(Config{SizeBytes: 1 << 20, Ways: 16, LineBytes: 64, NextLinePrefetch: true})
	r := sim.NewRand(2)
	if n := testing.AllocsPerRun(1000, func() {
		addr := uint64(r.Intn(4 << 20))
		c.Warm(addr, 300)
		c.Access(addr, 300)
	}); n != 0 {
		t.Fatalf("Warm+Access allocates %v times per call", n)
	}
}

func TestColdStringMatchesFreshCache(t *testing.T) {
	for _, cfg := range []Config{
		DefaultL3(),
		{},
		{SizeBytes: 1 << 20, Ways: 8, LineBytes: 64},
		{SizeBytes: 3<<20 + 17, Ways: 12, LineBytes: 100}, // everything rounds
		{SizeBytes: 1, Ways: 4, LineBytes: 48},
	} {
		if got, want := cfg.ColdString(), New(cfg).String(); got != want {
			t.Errorf("%+v: ColdString = %q, a fresh cache prints %q", cfg, got, want)
		}
	}
}
