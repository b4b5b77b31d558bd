package eval

import "fmt"

// The kernel-bypass driver substrate the "driver" ablation measures:
// fixed-size descriptor rings (the RX/TX queue pairs each VF exposes) and
// buffer mempools with per-core caches.
//
// The paper's §4.1 item 4 reports two production incidents this layer
// reproduces: "insufficient PCIe driver descriptors" (an undersized ring
// overflows during bursts, dropping packets and HOL-blocking the reorder
// FIFO) and "a too-small DPDK_RTE_MEMPOOL_CACHE" (per-core allocation
// caches thrash against the shared pool, adding per-packet latency).

// descRing is a single-producer single-consumer descriptor ring, as used for
// one RX or TX queue. Capacity is a power of two; the ring holds capacity
// descriptors (one slot is not wasted — indices are free-running).
type descRing[T any] struct {
	buf  []T
	mask uint64
	head uint64 // consumer position
	tail uint64 // producer position

	// enqueued/dequeued/rejected are lifetime counters.
	enqueued uint64
	dequeued uint64
	rejected uint64
}

// newDescRing creates a ring with the given power-of-two capacity.
func newDescRing[T any](capacity int) (*descRing[T], error) {
	if capacity <= 0 || capacity&(capacity-1) != 0 {
		return nil, fmt.Errorf("ring: capacity %d must be a positive power of two", capacity)
	}
	return &descRing[T]{buf: make([]T, capacity), mask: uint64(capacity - 1)}, nil
}

// len returns the number of queued descriptors.
func (r *descRing[T]) len() int { return int(r.tail - r.head) }

// enqueue adds one descriptor; false if the ring is full (the "insufficient
// descriptors" drop).
func (r *descRing[T]) enqueue(v T) bool {
	if r.tail-r.head >= uint64(len(r.buf)) {
		r.rejected++
		return false
	}
	r.buf[r.tail&r.mask] = v
	r.tail++
	r.enqueued++
	return true
}

// dequeue removes the oldest descriptor.
func (r *descRing[T]) dequeue() (T, bool) {
	var zero T
	if r.head == r.tail {
		return zero, false
	}
	v := r.buf[r.head&r.mask]
	r.buf[r.head&r.mask] = zero
	r.head++
	r.dequeued++
	return v, true
}

// mempool is a fixed-size buffer pool with per-core caches, mirroring
// rte_mempool. get prefers the caller's core cache; on a cache miss it
// refills from the shared pool (the expensive path the paper's too-small
// DPDK_RTE_MEMPOOL_CACHE forced on every allocation).
type mempool struct {
	shared    []uint32 // free buffer IDs
	caches    [][]uint32
	cacheSize int

	// sharedRefills counts slow-path refills from/to the shared pool —
	// the contention metric the paper's fix reduced.
	sharedRefills uint64
	// allocs/frees are lifetime counters; allocFails counts exhaustion.
	allocs     uint64
	frees      uint64
	allocFails uint64
}

// newMempool creates a pool of n buffers shared by cores, each with a
// per-core cache of cacheSize entries (0 disables caching).
func newMempool(n, cores, cacheSize int) (*mempool, error) {
	if n <= 0 || cores <= 0 {
		return nil, fmt.Errorf("ring: mempool needs positive size/cores (n=%d cores=%d)", n, cores)
	}
	if cacheSize < 0 {
		return nil, fmt.Errorf("ring: negative cache size")
	}
	m := &mempool{
		shared:    make([]uint32, n),
		caches:    make([][]uint32, cores),
		cacheSize: cacheSize,
	}
	for i := range m.shared {
		m.shared[i] = uint32(i)
	}
	for i := range m.caches {
		m.caches[i] = make([]uint32, 0, cacheSize)
	}
	return m, nil
}

// get allocates a buffer for the given core. ok=false means exhaustion.
func (m *mempool) get(core int) (uint32, bool) {
	c := &m.caches[core]
	if len(*c) == 0 {
		// Slow path: refill half the cache (or one buffer) from shared.
		refill := m.cacheSize / 2
		if refill < 1 {
			refill = 1
		}
		if refill > len(m.shared) {
			refill = len(m.shared)
		}
		if refill == 0 {
			m.allocFails++
			return 0, false
		}
		m.sharedRefills++
		*c = append(*c, m.shared[len(m.shared)-refill:]...)
		m.shared = m.shared[:len(m.shared)-refill]
	}
	id := (*c)[len(*c)-1]
	*c = (*c)[:len(*c)-1]
	m.allocs++
	return id, true
}

// put returns a buffer from the given core.
func (m *mempool) put(core int, id uint32) {
	c := &m.caches[core]
	if len(*c) >= m.cacheSize {
		// Cache full: flush half back to the shared pool.
		flush := m.cacheSize / 2
		if flush < 1 {
			flush = len(*c)
		}
		m.sharedRefills++
		m.shared = append(m.shared, (*c)[len(*c)-flush:]...)
		*c = (*c)[:len(*c)-flush]
	}
	*c = append(*c, id)
	m.frees++
}

// refillRate returns shared-pool round trips per allocation — the paper's
// contention signal (a well-sized cache keeps this near zero).
func (m *mempool) refillRate() float64 {
	if m.allocs == 0 {
		return 0
	}
	return float64(m.sharedRefills) / float64(m.allocs)
}
