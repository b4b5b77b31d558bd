package flowtable

import (
	"fmt"
	"strings"

	"albatross/internal/errs"
	"albatross/internal/packet"
	"albatross/internal/sim"
)

// Backend is a pluggable flow-table tier for packet-level load balancing:
// given a five-tuple, pick the pod that owns the flow, keeping flows pinned
// across lookups and — as far as the backend can — across pod pool changes.
//
// Two implementations mirror the Concury comparison: "session" routes every
// packet through a stateful session table (per-flow record, capacity
// eviction, idle expiry — the classic software-LB design), and "othello" is
// a Concury-style stateless classifier whose data plane is two array reads
// and an XOR, with zero-disruption pool updates.
//
// Both backends assign new flows with the same shared hash (AssignPod), so
// on a healthy static pool they make identical choices; they differ in how
// assignments survive churn.
type Backend interface {
	// Name returns the backend's registry name (metrics label).
	Name() string
	// Lookup returns the pod pinned for key, refreshing any liveness state.
	// ok=false means the backend holds no pinning for key.
	Lookup(key packet.FiveTuple, now sim.Time) (pod int, ok bool)
	// Insert pins key to a pod chosen by AssignPod over the current pool and
	// returns it, or -1 when the pool is empty (nothing is pinned then).
	Insert(key packet.FiveTuple, now sim.Time) int
	// Update replaces the pod pool. Pinnings to surviving pods are kept;
	// pinnings to removed pods are re-assigned over the new pool (or dropped
	// when it is empty). It returns the number of flows whose pod changed.
	Update(pool []int) int
	// Pool returns the current pod pool (shared slice; do not mutate).
	Pool() []int
	// Stats returns cumulative backend counters.
	Stats() BackendStats
}

// BackendStats are the per-backend counters exported as metrics.
type BackendStats struct {
	Lookups   uint64 // pinning lookups
	Hits      uint64 // lookups that found a pinning
	Inserts   uint64 // new pinnings
	Evictions uint64 // pinnings lost to capacity eviction or idle expiry
	Moved     uint64 // pinnings re-assigned by pool updates
	Rebuilds  uint64 // full structure rebuilds (othello only)
}

// BackendNames lists the registered backend names.
func BackendNames() []string { return []string{"session", "othello"} }

// CheckBackendName returns nil for a registered backend name and an error
// wrapping errs.BadConfig otherwise — the one name check every layer that
// accepts a backend name from outside shares.
func CheckBackendName(name string) error {
	for _, n := range BackendNames() {
		if n == name {
			return nil
		}
	}
	return fmt.Errorf("unknown flow-table backend %q (want %s): %w",
		name, strings.Join(BackendNames(), "|"), errs.BadConfig)
}

// AssignPod is the shared new-flow assignment: a pure hash of the tuple over
// the pool. Every backend uses it for misses, which is what makes backends
// agree on healthy static pools. Returns -1 on an empty pool.
func AssignPod(pool []int, key packet.FiveTuple) int {
	if len(pool) == 0 {
		return -1
	}
	return pool[int(key.Hash()%uint32(len(pool)))]
}

// Select is the dataplane entry point: look up the pinning for key or create
// one. Returns -1 when the pool is empty.
func Select(b Backend, key packet.FiveTuple, now sim.Time) int {
	if pod, ok := b.Lookup(key, now); ok {
		return pod
	}
	return b.Insert(key, now)
}

// NewBackend constructs a backend by name over an initial pool. The session
// backend takes its capacity and idle timeout from cfg (zero values mean
// unbounded/never); the othello backend is seeded from cfg.Seed.
func NewBackend(name string, pool []int, cfg BackendConfig) (Backend, error) {
	switch name {
	case "session":
		b := &sessionBackend{
			st: NewSessionTableIn(cfg.Space, cfg.Capacity, cfg.Idle),
		}
		b.setPool(pool)
		return b, nil
	case "othello":
		b := &othelloBackend{o: NewOthello(cfg.Seed, cfg.SizeHint)}
		b.setPool(pool)
		return b, nil
	default:
		return nil, CheckBackendName(name)
	}
}

// BackendConfig parameterizes NewBackend.
type BackendConfig struct {
	Capacity int          // session: max pinned flows (<=0 unbounded)
	Idle     sim.Duration // session: idle expiry (0 never)
	Seed     uint64       // othello: hash seed
	SizeHint int          // othello: expected flow count
	Space    *AddrSpace   // session: synthetic address space (nil = global)
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

// sessionBackend pins flows in a stateful session table: one 128-byte record
// per flow, capacity-bounded eviction, idle expiry. Evicted or expired flows
// lose their pinning and are re-hashed on the next packet — the disruption
// mode of classic software LBs under table pressure.
type sessionBackend struct {
	st    *SessionTable
	pool  []int
	live  podSet
	stats BackendStats
}

func (b *sessionBackend) Name() string { return "session" }

func (b *sessionBackend) setPool(pool []int) {
	b.pool = append(b.pool[:0], pool...)
	b.live.set(b.pool)
}

func (b *sessionBackend) Lookup(key packet.FiveTuple, now sim.Time) (int, bool) {
	b.stats.Lookups++
	s := b.st.Lookup(key, now)
	if s == nil {
		return -1, false
	}
	b.stats.Hits++
	pod := int(s.Pod)
	if !b.live.has(pod) {
		// Pinned pod left the pool between Updates; re-hash in place.
		pod = AssignPod(b.pool, key)
		if pod < 0 {
			b.st.Delete(key)
			return -1, false
		}
		s.Pod = int32(pod)
		b.stats.Moved++
	}
	return pod, true
}

func (b *sessionBackend) Insert(key packet.FiveTuple, now sim.Time) int {
	pod := AssignPod(b.pool, key)
	if pod < 0 {
		return -1
	}
	s := b.st.Create(key, now)
	s.Pod = int32(pod)
	b.stats.Inserts++
	return pod
}

func (b *sessionBackend) Update(pool []int) int {
	b.setPool(pool)
	moved := 0
	if len(b.pool) == 0 {
		b.st.Range(func(s *Session) bool {
			b.st.Delete(s.Key)
			moved++
			return true
		})
	} else {
		b.st.Range(func(s *Session) bool {
			if !b.live.has(int(s.Pod)) {
				s.Pod = int32(AssignPod(b.pool, s.Key))
				moved++
			}
			return true
		})
	}
	b.stats.Moved += uint64(moved)
	return moved
}

func (b *sessionBackend) Pool() []int { return b.pool }

func (b *sessionBackend) Stats() BackendStats {
	st := b.stats
	st.Evictions = b.st.Evictions + b.st.Expirations
	return st
}

// Table exposes the underlying session table (experiments measure its
// memory behavior directly).
func (b *sessionBackend) Table() *SessionTable { return b.st }

// othelloBackend pins flows in an Othello map: the control plane records
// key→pod, the data plane is stateless. No capacity eviction, no idle
// expiry; pool updates move only the flows whose pod actually left.
type othelloBackend struct {
	o     *Othello
	pool  []int
	live  podSet
	stats BackendStats
}

func (b *othelloBackend) Name() string { return "othello" }

func (b *othelloBackend) setPool(pool []int) {
	b.pool = append(b.pool[:0], pool...)
	b.live.set(b.pool)
}

func (b *othelloBackend) Lookup(key packet.FiveTuple, now sim.Time) (int, bool) {
	b.stats.Lookups++
	if !b.o.Contains(key) {
		return -1, false
	}
	b.stats.Hits++
	pod := int(b.o.Get(key))
	if !b.live.has(pod) {
		pod = AssignPod(b.pool, key)
		if pod < 0 {
			b.o.Remove(key)
			return -1, false
		}
		b.o.Put(key, uint16(pod))
		b.stats.Moved++
	}
	return pod, true
}

func (b *othelloBackend) Insert(key packet.FiveTuple, now sim.Time) int {
	pod := AssignPod(b.pool, key)
	if pod < 0 {
		return -1
	}
	b.o.Put(key, uint16(pod))
	b.stats.Inserts++
	return pod
}

func (b *othelloBackend) Update(pool []int) int {
	b.setPool(pool)
	moved := 0
	if len(b.pool) == 0 {
		moved = b.o.Len()
		b.o.Reset()
	} else {
		for _, k := range b.o.Keys() {
			v, _ := b.o.ValueOf(k)
			if !b.live.has(int(v)) {
				b.o.Put(k, uint16(AssignPod(b.pool, k)))
				moved++
			}
		}
	}
	b.stats.Moved += uint64(moved)
	return moved
}

func (b *othelloBackend) Pool() []int { return b.pool }

func (b *othelloBackend) Stats() BackendStats {
	st := b.stats
	st.Rebuilds = b.o.Rebuilds
	return st
}

// Map exposes the underlying Othello structure (experiments measure its
// data-plane arrays directly).
func (b *othelloBackend) Map() *Othello { return b.o }
