package cachesim

import (
	"cmp"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"albatross/internal/sim"
)

// Flush empties the cache and clears counters, leaving the model as New
// built it, pooled again if it started pooled. Runs build a fresh cache
// instead; the tests and the reference-LRU fuzz target reset one in place.
func (c *Cache) Flush() {
	fresh := New(Config{SizeBytes: c.SizeBytes(), Ways: c.ways, LineBytes: c.LineBytes(),
		NextLinePrefetch: c.prefetch})
	fresh.Prefetches = c.Prefetches
	*c = *fresh
}

// lines returns set s's lines in recency order, most recent first, from
// whichever layout holds them.
func (c *Cache) lines(s int) []uint64 {
	var set []uint64
	if c.dir == nil {
		set = c.tags[s*c.ways : (s+1)*c.ways]
	} else if h := c.dir[s]; h != 0 {
		set = c.block(h)
	}
	var out []uint64
	for _, tag := range set {
		if tag != 0 {
			out = append(out, tag>>1)
		}
	}
	return out
}

func (c *Cache) pooled() bool { return c.dir != nil }

// put is place or placePooled, whichever the model's layout takes.
func (c *Cache) put(line uint64, k int) bool {
	if c.pooled() {
		return c.placePooled(line, k)
	}
	return c.place(line, k)
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
// hits somewhere in a lightly filled set, pooled); and the node-burst-miss
// shape (uniform addresses over 64x the capacity, nearly all misses into full
// sets, dense), alone and with the burst path's Warm issued one access ahead.
// fill-past-switch is a model's life up to the switch and past it: 400 k
// distinct lines into a fresh model, blocks growing and then the rebuild
// into the dense array, timed per access with the New calls left out.
func BenchmarkAccess(b *testing.B) {
	b.Run("fill-past-switch", func(b *testing.B) {
		const fill = 400_000
		var c *Cache
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%fill == 0 {
				b.StopTimer()
				if c != nil && c.pooled() {
					b.Fatalf("%d lines left the model pooled", fill)
				}
				c = New(DefaultL3())
				b.StartTimer()
			}
			c.Access(1<<40+uint64(i%fill)*64, 1)
		}
	})
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
// The same steps run on a one-set model, which is dense from New, and on one
// set of a 1024-set model, whose blocks grow 1 → 2 → 4 → 8 tags under them.
func TestPrefetchPlacement(t *testing.T) {
	const ways = 8
	for _, sets := range []int{1, 1024} {
		c := New(Config{SizeBytes: sets * ways * 64, Ways: ways, LineBytes: 64})
		if c.pooled() != (sets > 1) {
			t.Fatalf("%d sets: pooled = %v", sets, c.pooled())
		}
		// ln maps the ids below to distinct lines of set 0.
		var same []uint64
		for line := uint64(0); len(same) <= 400; line++ {
			if mix(line<<1)&c.setMask == 0 {
				same = append(same, line)
			}
		}
		ln := func(id uint64) uint64 { return same[id] }
		want := func(when string, ids ...uint64) {
			t.Helper()
			lines := make([]uint64, len(ids))
			for i, id := range ids {
				lines[i] = ln(id)
			}
			if got := c.lines(0); !slices.Equal(got, lines) {
				t.Fatalf("%d sets, %s: recency order %v, want %v", sets, when, got, lines)
			}
		}

		// Fewer than ways/2 lines: the prefetch goes behind the ones there are.
		c.put(ln(100)<<1, 0)
		c.put(ln(101)<<1, 0)
		c.put(ln(200)<<1, ways/2)
		want("prefetch into 2 lines", 101, 100, 200)

		// A full set: position ways/2, and the old tail is dropped.
		c.Flush()
		for id := uint64(0); id < ways; id++ {
			c.put(ln(id)<<1, 0)
		}
		c.put(ln(200)<<1, ways/2)
		want("prefetch into a full set", 7, 6, 5, 4, 200, 3, 2, 1)

		// A resident line is not moved, neither up to ways/2 nor down to it.
		c.put(ln(1)<<1, ways/2)
		c.put(ln(7)<<1, ways/2)
		want("prefetch of resident lines", 7, 6, 5, 4, 200, 3, 2, 1)

		// ways/2-1 demand misses push it to the tail, one more evicts it.
		for id := uint64(0); id < ways/2-1; id++ {
			c.Access(ln(300+id)*64, 1)
		}
		want("after ways/2-1 misses", 302, 301, 300, 7, 6, 5, 4, 200)
		c.Access(ln(400)*64, 1)
		want("after one more", 400, 302, 301, 300, 7, 6, 5, 4)
		if c.pooled() != (sets > 1) {
			t.Fatalf("%d sets: one full set changed the layout", sets)
		}
	}
}

// refCache is the model Cache replaced, kept as its oracle: one (tag, last
// use) pair per way, a global clock ticked per line access, and a victim scan
// that prefers an empty way and otherwise takes the smallest timestamp. It is
// plain LRU written the obvious way, 64 B lines; Cache must agree with it
// access for access, in either layout.
type refCache struct {
	ways         int
	setMask      uint64
	tag, last    []uint64
	clock        uint64
	hits, misses uint64

	prefetch   bool
	prefetches uint64
}

func newRefCache(sets, ways int, prefetch bool) *refCache {
	return &refCache{
		ways: ways, setMask: uint64(sets - 1),
		tag: make([]uint64, sets*ways), last: make([]uint64, sets*ways),
		prefetch: prefetch,
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
			continue
		}
		misses++
		if c.prefetch {
			c.insertPrefetched((line + 1) << 1)
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

// order returns the ways of set base holding a line, most recently used
// first: the set's recency list.
func (c *refCache) order(base int) []int {
	var list []int
	for i := base; i < base+c.ways; i++ {
		if c.tag[i] != 0 {
			list = append(list, i)
		}
	}
	slices.SortFunc(list, func(a, b int) int { return cmp.Compare(c.last[b], c.last[a]) })
	return list
}

// insertPrefetched is the next-line prefetcher as a list edit: a resident
// line stays where it is; otherwise the line is inserted into its set's
// recency list at min(ways/2, lines in the set), the list's tail is dropped
// if that makes it longer than ways, and the set's use times are rewritten
// in the list's order.
func (c *refCache) insertPrefetched(line uint64) {
	c.prefetches++
	base := int(mix(line)&c.setMask) * c.ways
	tag := line | 1
	for i := base; i < base+c.ways; i++ {
		if c.tag[i] == tag {
			return
		}
	}
	list := c.order(base)
	k := min(c.ways/2, len(list))
	list = slices.Insert(list, k, -1)
	if len(list) > c.ways {
		drop := list[len(list)-1]
		c.tag[drop] = 0
		list = list[:len(list)-1]
	}
	way := slices.Index(c.tag[base:base+c.ways], 0) + base
	c.tag[way] = tag
	list[k] = way
	for i := len(list) - 1; i >= 0; i-- {
		c.clock++
		c.last[list[i]] = c.clock
	}
}

// lines returns set s's lines in recency order, most recent first.
func (c *refCache) lines(s int) []uint64 {
	var out []uint64
	for _, i := range c.order(s * c.ways) {
		out = append(out, c.tag[i]>>1)
	}
	return out
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
// agree after every step, Warm must not show in either, and at the end every
// set must hold the same lines in the same order. It reports whether the
// Cache switched from the pooled to the dense layout during the run.
func checkAgainstReference(t testing.TB, sets, ways int, prefetch bool, ops []cacheOp) (switched bool) {
	t.Helper()
	c := New(Config{SizeBytes: sets * ways * 64, Ways: ways, LineBytes: 64, NextLinePrefetch: prefetch})
	if c.sets != sets || c.Ways() != ways {
		t.Fatalf("geometry %dx%d came out as %dx%d", sets, ways, c.sets, c.Ways())
	}
	ref := newRefCache(sets, ways, prefetch)
	for i, op := range ops {
		pooled := c.pooled()
		switch op.kind {
		case opAccess:
			h, m := c.Access(op.addr, op.size)
			rh, rm := ref.Access(op.addr, op.size)
			if h != rh || m != rm {
				t.Fatalf("%dx%d prefetch=%v op %d: Access(%#x, %d) = %d/%d, reference %d/%d",
					sets, ways, prefetch, i, op.addr, op.size, h, m, rh, rm)
			}
		case opWarm:
			c.Warm(op.addr, op.size)
			if c.pooled() != pooled {
				t.Fatalf("%dx%d op %d: Warm changed the layout", sets, ways, i)
			}
		case opResetStats:
			c.ResetStats()
			ref.ResetStats()
		case opFlush:
			c.Flush()
			ref.Flush()
		}
		switched = switched || pooled && !c.pooled()
		if c.Hits() != ref.hits || c.Misses() != ref.misses || c.Prefetches != ref.prefetches {
			t.Fatalf("%dx%d prefetch=%v op %d: counters %d/%d/%d, reference %d/%d/%d", sets, ways, prefetch, i,
				c.Hits(), c.Misses(), c.Prefetches, ref.hits, ref.misses, ref.prefetches)
		}
	}
	for s := 0; s < sets; s++ {
		if got, want := c.lines(s), ref.lines(s); !slices.Equal(got, want) {
			t.Fatalf("%dx%d prefetch=%v: set %d holds %v, reference %v", sets, ways, prefetch, s, got, want)
		}
	}
	return switched
}

// TestCacheMatchesReferenceLRU runs every geometry with and without the
// prefetcher. The larger ones start pooled and fill past the switch to the
// dense layout mid-run, so both layouts and the rebuild between them are
// judged; at least one geometry of each associativity must have switched.
func TestCacheMatchesReferenceLRU(t *testing.T) {
	r := sim.NewRand(14)
	for _, ways := range []int{1, 2, 3, 8, 16} {
		switches := 0
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
				for _, prefetch := range []bool{false, true} {
					if checkAgainstReference(t, sets, ways, prefetch, ops) {
						switches++
					}
				}
			}
		}
		if switches == 0 {
			t.Errorf("%d ways: no geometry switched from pooled to dense", ways)
		}
	}
}

// decodeCacheFuzz turns FuzzCacheMatchesReferenceLRU's input into a run:
// geometry's low nibble picks ways 1..16, bit 4 the next-line prefetcher and
// its high byte 1..1024 sets; each op is four bytes — kind, two address
// bytes (32 B granules, so neighbours share lines) and size.
func decodeCacheFuzz(geometry uint16, data []byte) (sets, ways int, prefetch bool, ops []cacheOp) {
	ways = 1 + int(geometry&0xf)
	prefetch = geometry&0x10 != 0
	sets = 1 << ((geometry >> 8) % 11)
	ops = make([]cacheOp, 0, len(data)/4)
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
	return sets, ways, prefetch, ops
}

// FuzzCacheMatchesReferenceLRU runs checkAgainstReference on a decoded byte
// string (decodeCacheFuzz). The committed seeds in testdata/fuzz include runs
// that cross the pooled → dense switch mid-sequence
// (TestFuzzSeedsCrossTheSwitch).
func FuzzCacheMatchesReferenceLRU(f *testing.F) {
	f.Add(uint16(0), []byte("\x00\x00\x00\x01\x00\x00\x00\x01"))
	f.Add(uint16(0x030f), []byte("\x00\x01\x00\x40\x10\x01\x00\xff\x00\x01\x00\x40\xfe\x00\x00\x00\x00\x01\x00\x40"))
	f.Fuzz(func(t *testing.T, geometry uint16, data []byte) {
		sets, ways, prefetch, ops := decodeCacheFuzz(geometry, data)
		checkAgainstReference(t, sets, ways, prefetch, ops)
	})
}

// TestFuzzSeedsCrossTheSwitch keeps the committed fuzz seeds honest: every
// seed named cross-* switches layout mid-sequence, and among them are runs
// with and without the prefetcher and a direct-mapped one.
func TestFuzzSeedsCrossTheSwitch(t *testing.T) {
	files, err := filepath.Glob("testdata/fuzz/FuzzCacheMatchesReferenceLRU/*")
	if err != nil {
		t.Fatal(err)
	}
	crossed := map[string]bool{}
	for _, name := range files {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		var geometry uint16
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 3 || lines[0] != "go test fuzz v1" {
			t.Fatalf("%s: not a two-value corpus file", name)
		}
		if _, err := fmt.Sscanf(lines[1], "uint16(%d)", &geometry); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		q, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[2], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sets, ways, prefetch, ops := decodeCacheFuzz(geometry, []byte(q))
		if !checkAgainstReference(t, sets, ways, prefetch, ops) {
			if strings.HasPrefix(filepath.Base(name), "cross-") {
				t.Errorf("%s: stays on one layout", name)
			}
			continue
		}
		crossed[fmt.Sprintf("prefetch=%v", prefetch)] = true
		if ways == 1 {
			crossed["direct mapped"] = true
		}
	}
	for _, want := range []string{"prefetch=false", "prefetch=true", "direct mapped"} {
		if !crossed[want] {
			t.Errorf("no committed seed with %s crosses the pooled → dense switch", want)
		}
	}
}

// mallocs counts the heap allocations f makes, exactly.
func mallocs(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestAccessDoesNotAllocate counts every allocation of 10 000 Warm+Access
// calls in steady state on each layout, prefetcher on. Pooled, on DefaultL3:
// a resident working set plus a stream of misses into 8 sets already holding
// ways lines, so blocks are read, reordered and evicted from but none grows.
// Dense, on a 1 MB model: filled past the switch, then uniform misses.
func TestAccessDoesNotAllocate(t *testing.T) {
	const calls = 10_000
	cfg := DefaultL3()
	cfg.NextLinePrefetch = true

	c := New(cfg)
	var hot, thrash []uint64
	for line := uint64(1 << 30); len(hot) < 2000 || len(thrash) < 8*64; line += 2 {
		// Even lines only, so a prefetch (line+1) never lands in a hot or
		// thrashed line's place; thrashed sets are 0..7.
		if mix(line<<1)&c.setMask < 8 {
			thrash = append(thrash, line<<6)
		} else if len(hot) < 2000 {
			hot = append(hot, line<<6)
		}
	}
	loop := func(c *Cache, addrs []uint64) {
		for i := 0; i < calls; i++ {
			a := addrs[i%len(addrs)]
			c.Warm(a, 64)
			c.Access(a, 64)
		}
	}
	addrs := append(slices.Clone(hot), thrash...)
	loop(c, addrs) // fill: every block reaches its steady size
	if !c.pooled() {
		t.Fatal("the pooled working set switched the model to dense")
	}
	if n := mallocs(func() { loop(c, addrs) }); n != 0 {
		t.Errorf("pooled: %d allocations in %d Warm+Access calls, want 0", n, calls)
	}
	if !c.pooled() {
		t.Fatal("the pooled steady state switched the model to dense")
	}

	c = New(Config{SizeBytes: 1 << 20, Ways: 16, LineBytes: 64, NextLinePrefetch: true})
	r := sim.NewRand(2)
	uniform := make([]uint64, 4*calls)
	for i := range uniform {
		uniform[i] = uint64(r.Intn(64 << 20))
	}
	loop(c, uniform)
	loop(c, uniform[calls:])
	if c.pooled() {
		t.Fatal("the uniform fill left the model pooled")
	}
	if n := mallocs(func() { loop(c, uniform[2*calls:]) }); n != 0 {
		t.Errorf("dense: %d allocations in %d Warm+Access calls, want 0", n, calls)
	}
}

// heapAfterGC is the live heap once garbage is collected.
func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestHostFootprintTracksResidentLines pins what a model costs the host. A
// DefaultL3 model (65 536 sets of 16 ways after rounding) holding 70 k
// distinct lines — node-perpkt's working set is of this size — keeps at most
// 1.5 MB of heap; the dense array alone is 8 MB. A model filled past the
// switch keeps at most the dense array plus 1/8 of it: the pool is dropped at
// the rebuild.
func TestHostFootprintTracksResidentLines(t *testing.T) {
	cfg := DefaultL3()
	dense := uint64(New(cfg).SizeBytes() / cfg.LineBytes * 8)
	fill := func(lines int) (*Cache, uint64) {
		before := heapAfterGC()
		c := New(cfg)
		for i := 0; i < lines; i++ {
			c.Access(1<<40+uint64(i)*64, 1)
		}
		after := heapAfterGC()
		if after < before {
			return c, 0
		}
		return c, after - before
	}

	c, held := fill(70_000)
	if !c.pooled() {
		t.Fatal("70 k lines switched a DefaultL3 model to dense")
	}
	t.Logf("70 k lines: %.2f MB of heap", float64(held)/(1<<20))
	if held > 3<<19 {
		t.Errorf("70 k lines: %.2f MB of heap, want <= 1.5 MB", float64(held)/(1<<20))
	}
	runtime.KeepAlive(c)

	c, held = fill(600_000)
	if c.pooled() {
		t.Fatal("600 k lines left a DefaultL3 model pooled")
	}
	t.Logf("600 k lines: %.2f MB of heap, the dense array %.2f MB", float64(held)/(1<<20), float64(dense)/(1<<20))
	if held > dense+dense/8 {
		t.Errorf("600 k lines: %.2f MB of heap, want <= %.2f MB", float64(held)/(1<<20), float64(dense+dense/8)/(1<<20))
	}
	runtime.KeepAlive(c)
}

// BenchmarkNew times building a DefaultL3 model, as every simulated NUMA
// node's first packet does and every gameday drill does per member.
func BenchmarkNew(b *testing.B) {
	b.Run("default-l3", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkCache = New(DefaultL3())
		}
	})
}

var sinkCache *Cache

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
