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
//
// A set is its lines in recency order, most recently used first: the order
// is the whole LRU state. A tag is line|1 and 0 is an empty way; empties sit
// at the tail of their set, so a scan stops at the first 0. The host memory
// behind that state has two layouts, and a model moves from the first to the
// second at most once, on its own occupancy:
//
//   - pooled, from New: dir holds one word per set, 0 for an empty set and
//     otherwise a handle to a block of 1, 2, 4, … up to ways tags in chunks,
//     the smallest that holds the set's lines. A set that outgrows its block
//     moves to the next size and frees the old one for the next set that
//     needs that size. A lightly filled model — most runs touch a few percent
//     of a 100 MB L3 — is then a few hundred KB of host memory instead of
//     8 B per modelled line, and its hot sets stay in the host's cache;
//   - dense, once the pool would pass 1/poolFraction of sets*ways words:
//     tags holds sets*ways words, set s at s*ways. Full sets are then read
//     with one load and no directory, and the pool is dropped.
//
// Both layouts hold the same lines in the same order, so every hit, miss and
// eviction is the same whichever one a model is on.
type Cache struct {
	lineShift uint // log2 of the line size
	ways      int
	sets      int
	setMask   uint64

	// tags is the dense layout; nil while the model is pooled.
	tags []uint64

	// dir is the pooled layout's per-set handle, chunk<<chunkShift |
	// offset<<classBits | class, naming min(1<<class, ways) words at offset
	// in chunks[chunk]; nil once the model is dense. Word 0 of chunk 0 is
	// never handed out, so handle 0 can mean an empty set.
	dir []uint32

	hits   uint64
	misses uint64

	prefetch   bool
	Prefetches uint64

	// warmSink absorbs the reads issued by Warm so the compiler cannot
	// elide them; it is never read back.
	warmSink uint64

	// The pool's allocator comes last, so the fields every access reads
	// share the struct's first two host cache lines.
	chunks     [poolChunks][]uint64
	chunkWords int // words per chunk: the pool's share of sets*ways / poolChunks
	used       int // chunks allocated; blocks are cut from the last one
	cut        int // words already cut from chunks[used-1]; chunkWords before the first
	// free holds, per class, the handle of a freed block, 0 for none; a
	// free block's word 0 holds the next one's handle and its other words
	// are 0.
	free []uint32
}

const (
	// poolFraction bounds the pooled layout at 1/poolFraction of the dense
	// array's words. A model that needs more is filling its sets: the dense
	// array then costs the host little more than the pool would, and reads
	// a full set with one load where the pool needs the directory's load
	// first. The bound is also what the switch costs: for one rebuild the
	// two layouts coexist, the pool and directory adding at most
	// 1/poolFraction + 1/(2*ways) of the dense array on top of it.
	poolFraction = 8
	// poolChunks is how many chunks the pool grows in, so a chunk is
	// 1/(poolFraction*poolChunks) of the dense array: growth never copies
	// what is already pooled, and the last chunk's unused tail is small.
	poolChunks = 16

	classBits  = 5 // a block of min(1<<class, ways) tags
	classMask  = 1<<classBits - 1
	chunkShift = 28
	offsetMask = 1<<(chunkShift-classBits) - 1
)

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

// New creates a cache of cfg's geometry after rounding. It starts pooled,
// holding no lines and no tag array, unless a chunk could not hold a whole
// set beside chunk 0's reserved word (a model of at most
// poolFraction*poolChunks sets) or a handle could not name every word of a
// chunk; such a model starts dense.
func New(cfg Config) *Cache {
	lineShift, ways, sets := cfg.rounded()
	c := &Cache{
		lineShift:  lineShift,
		ways:       ways,
		sets:       sets,
		setMask:    uint64(sets - 1),
		chunkWords: sets * ways / (poolFraction * poolChunks),
		prefetch:   cfg.NextLinePrefetch,
	}
	if c.chunkWords <= ways || c.chunkWords > offsetMask {
		c.tags = make([]uint64, sets*ways)
		return c
	}
	c.dir = make([]uint32, sets)
	c.free = make([]uint32, bits.Len(uint(ways-1))+1)
	c.cut = c.chunkWords
	return c
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

// place finds line in its set of the dense layout and puts it at recency
// position k, 0 being the most recently used: a demand access passes 0, a
// prefetch ways/2. It reports whether the line was resident. A miss takes
// the first empty way or, in a full set, the tail's — the least recently
// used line's — and the ways between k and that one each move down a place.
// A resident line moves up to k only on demand; a prefetch leaves it where
// it is. placePooled is the same rule on the pooled layout; Access picks
// between them, so place stays a leaf with no layout test of its own.
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

// placePooled is place on the pooled layout. An empty set first takes a
// one-tag block, and a full block of fewer than ways tags that misses first
// moves to a bigger one: in the dense layout both are a set whose first
// empty way the miss takes. If the pool is spent on the way, the model is
// now dense and place does the access.
func (c *Cache) placePooled(line uint64, k int) bool {
	s := int(mix(line) & c.setMask)
	h := c.dir[s]
	if h == 0 {
		if h = c.alloc(0); h == 0 {
			return c.place(line, k)
		}
		c.dir[s] = h
	}
	set := c.block(h)
	tag := line | 1

	p := 0
	for p < len(set)-1 && set[p] != tag && set[p] != 0 {
		p++
	}
	hit := set[p] == tag
	if hit && k > 0 {
		return true
	}
	if !hit && set[p] != 0 && len(set) < c.ways {
		if set = c.grow(s); set == nil {
			return c.place(line, k)
		}
		p++ // the new block's first empty way
	}
	if k > p {
		k = p
	}
	for i := p; i > k; i-- {
		set[i] = set[i-1]
	}
	set[k] = tag
	return hit
}

// block returns the pooled block handle h names.
func (c *Cache) block(h uint32) []uint64 {
	off := int(h>>classBits) & offsetMask
	return c.chunks[h>>chunkShift][off : off+min(1<<(h&classMask), c.ways)]
}

// grow moves pooled set s, whose block is full, into a block of the next
// size and returns it, its lines in place and the rest empty. It returns nil
// if the pool is spent, after switching the model to the dense layout.
func (c *Cache) grow(s int) []uint64 {
	h := c.dir[s]
	cls := h & classMask
	bigger := c.alloc(cls + 1)
	if bigger == 0 {
		return nil
	}
	set, old := c.block(bigger), c.block(h)
	copy(set, old)
	clear(old)
	old[0], c.free[cls] = uint64(c.free[cls]), h
	c.dir[s] = bigger
	return set
}

// alloc returns the handle of an empty block of class cls: a freed one if
// there is one, otherwise one cut from the last chunk or, when that has no
// room left, from a new chunk. With poolChunks chunks in use and none free
// it switches the model to the dense layout and returns 0.
func (c *Cache) alloc(cls uint32) uint32 {
	if h := c.free[cls]; h != 0 {
		b := c.block(h)
		c.free[cls], b[0] = uint32(b[0]), 0
		return h
	}
	n := min(1<<cls, c.ways)
	if c.cut+n > c.chunkWords {
		if c.used == poolChunks {
			c.toDense()
			return 0
		}
		c.chunks[c.used] = make([]uint64, c.chunkWords)
		c.cut = 0
		if c.used == 0 {
			c.cut = 1 // handle 0 is the empty set
		}
		c.used++
	}
	h := uint32(c.used-1)<<chunkShift | uint32(c.cut)<<classBits | cls
	c.cut += n
	return h
}

// toDense rebuilds the model into the dense layout, each set's lines in the
// same order, and drops the pool.
func (c *Cache) toDense() {
	c.tags = make([]uint64, c.sets*c.ways)
	for s, h := range c.dir {
		if h != 0 {
			copy(c.tags[s*c.ways:], c.block(h))
		}
	}
	c.dir, c.free, c.chunks = nil, nil, [poolChunks][]uint64{}
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
		var hit bool
		if c.dir == nil {
			hit = c.place(line<<1, 0)
		} else {
			hit = c.placePooled(line<<1, 0)
		}
		if hit {
			hits++
			continue
		}
		misses++
		if c.prefetch {
			// Pull the next line in without charging a demand access. It
			// enters half-way down the recency order, so a useless prefetch
			// is evicted before the set's hot demand lines.
			if c.dir == nil {
				c.place((line+1)<<1, c.ways/2)
			} else {
				c.placePooled((line+1)<<1, c.ways/2)
			}
			c.Prefetches++
		}
	}
	c.hits += uint64(hits)
	c.misses += uint64(misses)
	return hits, misses
}

// Warm reads the tag sets an Access(addr, size) would scan WITHOUT touching
// any model state — no reordering, no counters, no change of layout. It
// exists so burst-batched callers can pull the host cache lines backing an
// upcoming packet's sets into the host cache while an earlier packet
// computes (the classic software-pipelined burst loop); model outcomes are
// bit-identical with or without it.
func (c *Cache) Warm(addr uint64, size int) {
	if size <= 0 {
		size = 1
	}
	first := addr >> c.lineShift
	last := (addr + uint64(size) - 1) >> c.lineShift
	var sink uint64
	for line := first; line <= last; line++ {
		s := mix(line<<1) & c.setMask
		var set []uint64
		if c.dir == nil {
			base := int(s) * c.ways
			set = c.tags[base : base+c.ways]
		} else if h := c.dir[s]; h != 0 {
			set = c.block(h) // an empty pooled set is its directory word
		}
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
