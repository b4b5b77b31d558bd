// Package cachesim models the shared last-level (L3) cache of an Albatross
// server as a set-associative LRU cache over synthetic memory addresses.
//
// The paper's Fig. 4/5 result — PLB and RSS deliver near-identical per-core
// throughput because multi-GB forwarding tables thrash the ~200MB L3 either
// way — is reproduced by running real table lookups through this model and
// charging per-lookup hit/miss latencies. The cache is shared across all
// simulated cores, exactly as a physical L3 is shared across a NUMA node.
package cachesim

import (
	"fmt"
	"math/bits"
)

// Cache is a set-associative LRU cache. Not safe for concurrent use (the
// event engine is single-threaded).
type Cache struct {
	lineShift uint // log2 of the line size
	ways      int
	sets      int
	setMask   uint64

	// tags holds sets*ways words, each set's ways in recency order, most
	// recently used first: the order is the whole LRU state. A tag is
	// line|1 and 0 is an empty way; empties sit at the tail of their set, so
	// a scan stops at the first 0 and a 16-way set is 128 B, two host lines
	// — the packet path spends more time here than in any other layer.
	tags []uint64

	hits   uint64
	misses uint64

	prefetch   bool
	Prefetches uint64

	// warmSink absorbs the reads issued by Warm so the compiler cannot
	// elide them; it is never read back.
	warmSink uint64
}

// Config describes a cache geometry.
type Config struct {
	SizeBytes int // total capacity
	Ways      int // associativity
	// LineBytes is the cache line size, rounded down to a power of two
	// (48 -> 32, 100 -> 64) so that address -> line is a shift.
	LineBytes int
	// NextLinePrefetch models the LLC hardware prefetcher (§4.2 lists it
	// among the tuned knobs): every demand miss also pulls in the next
	// line. Helps sequential walks, does nothing for random lookups.
	NextLinePrefetch bool
}

// DefaultL3 approximates the paper's Albatross CPU: a ~100MB L3 per NUMA
// node (the paper says ~200MB total across the dual-socket server).
func DefaultL3() Config {
	return Config{SizeBytes: 100 << 20, Ways: 16, LineBytes: 64}
}

// rounded returns the geometry New builds from cfg: the line size and the
// set count are forced to powers of two (rounding down), which mirrors real
// hardware indexing.
func (cfg Config) rounded() (lineShift uint, ways, sets int) {
	if cfg.LineBytes <= 0 {
		cfg.LineBytes = 64
	}
	lineShift = uint(bits.Len(uint(cfg.LineBytes)) - 1)
	cfg.LineBytes = 1 << lineShift
	if cfg.Ways <= 0 {
		cfg.Ways = 16
	}
	if cfg.SizeBytes < cfg.Ways*cfg.LineBytes {
		cfg.SizeBytes = cfg.Ways * cfg.LineBytes
	}
	sets = 1 << (bits.Len(uint(cfg.SizeBytes/(cfg.Ways*cfg.LineBytes))) - 1)
	return lineShift, cfg.Ways, sets
}

// New creates a cache of cfg's geometry after rounding.
func New(cfg Config) *Cache {
	lineShift, ways, sets := cfg.rounded()
	return &Cache{
		lineShift: lineShift,
		ways:      ways,
		sets:      sets,
		setMask:   uint64(sets - 1),
		tags:      make([]uint64, sets*ways),
		prefetch:  cfg.NextLinePrefetch,
	}
}

// ColdString is New(cfg).String() without building the cache: how a cache of
// this geometry prints before its first access.
func (cfg Config) ColdString() string {
	lineShift, ways, sets := cfg.rounded()
	return describe(sets*ways<<lineShift, ways, 1<<lineShift, 0)
}

// SizeBytes returns the effective capacity after rounding.
func (c *Cache) SizeBytes() int { return c.sets * c.ways << c.lineShift }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// LineBytes returns the cache line size.
func (c *Cache) LineBytes() int { return 1 << c.lineShift }

// mix scrambles the line address before set indexing. Synthetic table
// addresses are highly regular (base + i*entrySize); real L3s hash the
// address too, and without this the model aliases whole tables onto a few
// sets.
func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// place finds line in its set and puts it at recency position k, 0 being
// the most recently used: a demand access passes 0, a prefetch ways/2. It
// reports whether the line was resident. A miss takes the first empty way
// or, in a full set, the tail's — the least recently used line's — and the
// ways between k and that one each move down a place. A resident line moves
// up to k only on demand; a prefetch leaves it where it is.
func (c *Cache) place(line uint64, k int) bool {
	base := int(mix(line)&c.setMask) * c.ways
	set := c.tags[base : base+c.ways]
	tag := line | 1 // bit 0 marks occupancy (line addrs are shifted, so safe)

	p := 0 // where the line is, or the way a miss takes
	for p < len(set)-1 && set[p] != tag && set[p] != 0 {
		p++
	}
	hit := set[p] == tag
	if hit && k > 0 {
		return true
	}
	if k > p {
		k = p // a set with fewer than k lines: behind the ones it has
	}
	for i := p; i > k; i-- {
		set[i] = set[i-1]
	}
	set[k] = tag
	return hit
}

// Access touches size bytes starting at addr and returns the number of
// line hits and misses. An access whose last byte lies past the top of the
// address space (addr+size-1 wraps) touches nothing and returns 0, 0.
func (c *Cache) Access(addr uint64, size int) (hits, misses int) {
	if size <= 0 {
		size = 1
	}
	first := addr >> c.lineShift
	last := (addr + uint64(size) - 1) >> c.lineShift
	for line := first; line <= last; line++ {
		// Shift left so bit 0 is free for the occupancy mark.
		if c.place(line<<1, 0) {
			hits++
			continue
		}
		misses++
		if c.prefetch {
			// Pull the next line in without charging a demand access. It
			// enters half-way down the recency order, so a useless prefetch
			// is evicted before the set's hot demand lines.
			c.place((line+1)<<1, c.ways/2)
			c.Prefetches++
		}
	}
	c.hits += uint64(hits)
	c.misses += uint64(misses)
	return hits, misses
}

// Warm reads the tag sets an Access(addr, size) would scan WITHOUT touching
// any model state — no reordering, no counters. It exists so burst-batched
// callers can pull the host cache lines backing an upcoming packet's sets
// into the host cache while an earlier packet computes (the classic
// software-pipelined burst loop); model outcomes are bit-identical with or
// without it.
func (c *Cache) Warm(addr uint64, size int) {
	if size <= 0 {
		size = 1
	}
	first := addr >> c.lineShift
	last := (addr + uint64(size) - 1) >> c.lineShift
	var sink uint64
	for line := first; line <= last; line++ {
		base := int(mix(line<<1)&c.setMask) * c.ways
		set := c.tags[base : base+c.ways]
		// One read per 64B host line of the set (8 tags each).
		for i := 0; i < len(set); i += 8 {
			sink += set[i]
		}
	}
	c.warmSink += sink
}

// Hits returns the cumulative hit count.
func (c *Cache) Hits() uint64 { return c.hits }

// Misses returns the cumulative miss count.
func (c *Cache) Misses() uint64 { return c.misses }

// HitRate returns hits/(hits+misses), or 0 before any access.
func (c *Cache) HitRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}

// ResetStats clears counters but keeps cache contents (for warm-up phases).
func (c *Cache) ResetStats() {
	c.hits, c.misses = 0, 0
}

func (c *Cache) String() string {
	return describe(c.SizeBytes(), c.ways, c.LineBytes(), c.HitRate())
}

func describe(sizeBytes, ways, lineBytes int, hitRate float64) string {
	return fmt.Sprintf("cache{%dMB %d-way %dB lines, hit=%.1f%%}",
		sizeBytes>>20, ways, lineBytes, hitRate*100)
}

// MemLatency holds the memory hierarchy latencies used to convert cache
// behaviour into per-lookup time. Values approximate a 2023 server CPU
// (Sapphire Rapids class): L3 hit ~33ns, DRAM ~95ns at 4800MHz.
type MemLatency struct {
	L3HitNS float64
	DRAMNS  float64
}

// DefaultLatency returns latencies for DDR5-4800.
func DefaultLatency() MemLatency { return MemLatency{L3HitNS: 33, DRAMNS: 95} }

// WithDRAMFrequency scales DRAM latency for a different memory frequency
// (the paper's §4.2: 4800→5600MHz improved gateway performance ~8%).
func (m MemLatency) WithDRAMFrequency(mhz float64) MemLatency {
	scaled := m
	scaled.DRAMNS = m.DRAMNS * 4800 / mhz
	return scaled
}

// Cost converts hit/miss counts into nanoseconds.
func (m MemLatency) Cost(hits, misses int) float64 {
	return float64(hits)*m.L3HitNS + float64(misses)*m.DRAMNS
}
