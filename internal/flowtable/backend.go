package flowtable

import (
	"fmt"

	"albatross/internal/errs"
	"albatross/internal/packet"
	"albatross/internal/sim"
)

// Backend is the flow-table tier for packet-level load balancing: given a
// five-tuple, pick the pod that owns the flow, keeping flows pinned across
// lookups and across pod pool changes. It routes every packet through a
// stateful session table (per-flow record, capacity eviction, idle expiry —
// the classic software-LB design). New flows are assigned by AssignPod; a
// pool update moves only the flows whose pod left. Evicted or expired flows
// lose their pinning and are re-hashed on the next packet — the disruption
// mode of classic software LBs under table pressure.
type Backend struct {
	st    *SessionTable
	pool  []int
	live  podSet
	stats BackendStats
}

// BackendStats are the backend's counters exported as metrics.
type BackendStats struct {
	Lookups   uint64 // pinning lookups
	Hits      uint64 // lookups that found a pinning
	Inserts   uint64 // new pinnings
	Evictions uint64 // pinnings lost to capacity eviction or idle expiry
	Moved     uint64 // pinnings re-assigned by pool updates
}

// backendName is the one registered backend name.
const backendName = "session"

// CheckBackendName returns nil for the registered backend name and an error
// wrapping errs.BadConfig otherwise — the one name check every layer that
// accepts a backend name from outside shares.
func CheckBackendName(name string) error {
	if name == backendName {
		return nil
	}
	return fmt.Errorf("unknown flow-table backend %q (want %s): %w", name, backendName, errs.BadConfig)
}

// AssignPod is the new-flow assignment: the tuple's hash h (key.Hash())
// over the pool. Returns -1 on an empty pool.
func AssignPod(pool []int, h uint32) int {
	if len(pool) == 0 {
		return -1
	}
	return pool[int(h%uint32(len(pool)))]
}

// Select is the dataplane entry point: look up the pinning for key or create
// one, hashing key once for both. Returns -1 when the pool is empty.
func Select(b *Backend, key packet.FiveTuple, now sim.Time) int {
	h := key.Hash()
	if pod, ok := b.Lookup(key, h, now); ok {
		return pod
	}
	return b.Insert(key, h, now)
}

// NewBackend constructs the named backend over an initial pool, taking its
// capacity and idle timeout from cfg (zero values mean unbounded/never).
// Any name but "session" is an error wrapping errs.BadConfig.
func NewBackend(name string, pool []int, cfg BackendConfig) (*Backend, error) {
	if err := CheckBackendName(name); err != nil {
		return nil, err
	}
	b := &Backend{st: NewSessionTableIn(cfg.Space, cfg.Capacity, cfg.Idle)}
	b.setPool(pool)
	return b, nil
}

// BackendConfig parameterizes NewBackend.
type BackendConfig struct {
	Capacity int          // max pinned flows (<=0 unbounded)
	Idle     sim.Duration // idle expiry (0 never)
	Space    *AddrSpace   // synthetic address space (nil = global)
}

// podSet answers pool membership in O(1) for the small dense pod-index
// pools nodes use.
type podSet struct {
	in []bool
}

func (p *podSet) set(pool []int) {
	for i := range p.in {
		p.in[i] = false
	}
	for _, idx := range pool {
		if idx < 0 {
			continue
		}
		for idx >= len(p.in) {
			p.in = append(p.in, false)
		}
		p.in[idx] = true
	}
}

func (p *podSet) has(idx int) bool {
	return idx >= 0 && idx < len(p.in) && p.in[idx]
}

// Name returns the backend's registry name (metrics label).
func (b *Backend) Name() string { return backendName }

func (b *Backend) setPool(pool []int) {
	b.pool = append(b.pool[:0], pool...)
	b.live.set(b.pool)
}

// Lookup returns the pod pinned for key, refreshing its idle timer; h is the
// caller-computed key.Hash(). ok=false means no pinning is held for key.
func (b *Backend) Lookup(key packet.FiveTuple, h uint32, now sim.Time) (pod int, ok bool) {
	b.stats.Lookups++
	s := b.st.Lookup(key, h, now)
	if s == nil {
		return -1, false
	}
	b.stats.Hits++
	pod = int(s.Pod)
	if !b.live.has(pod) {
		// Pinned pod left the pool between Updates; re-hash in place.
		pod = AssignPod(b.pool, h)
		if pod < 0 {
			b.st.Delete(key, h)
			return -1, false
		}
		s.Pod = int32(pod)
		b.stats.Moved++
	}
	return pod, true
}

// Insert pins key (h = key.Hash()) to the pod AssignPod(pool, h) picks over
// the current pool and returns it, or -1 when the pool is empty (nothing is
// pinned then).
func (b *Backend) Insert(key packet.FiveTuple, h uint32, now sim.Time) int {
	pod := AssignPod(b.pool, h)
	if pod < 0 {
		return -1
	}
	s := b.st.Create(key, h, now)
	s.Pod = int32(pod)
	b.stats.Inserts++
	return pod
}

// Update replaces the pod pool. Pinnings to surviving pods are kept;
// pinnings to removed pods are re-assigned over the new pool (or dropped
// when it is empty). It returns the number of flows whose pod changed.
func (b *Backend) Update(pool []int) int {
	b.setPool(pool)
	moved := 0
	if len(b.pool) == 0 {
		b.st.Range(func(s *Session) bool {
			b.st.Delete(s.Key, s.hash)
			moved++
			return true
		})
	} else {
		b.st.Range(func(s *Session) bool {
			if !b.live.has(int(s.Pod)) {
				s.Pod = int32(AssignPod(b.pool, s.hash))
				moved++
			}
			return true
		})
	}
	b.stats.Moved += uint64(moved)
	return moved
}

// Pool returns the current pod pool (shared slice; do not mutate).
func (b *Backend) Pool() []int { return b.pool }

// Stats returns cumulative backend counters.
func (b *Backend) Stats() BackendStats {
	st := b.stats
	st.Evictions = b.st.Evictions + b.st.Expirations
	return st
}
