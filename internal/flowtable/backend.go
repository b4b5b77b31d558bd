package flowtable

import (
	"fmt"

	"albatross/internal/errs"
	"albatross/internal/packet"
	"albatross/internal/sim"
)

// Backend is the flow-table tier for packet-level load balancing: given a
// five-tuple, pick the pod that owns the flow, keeping flows pinned across
// lookups and across pod pool changes. It routes every packet through an
// insert-only session table (one record per flow, the classic software-LB
// design). New flows are assigned by AssignPod; a pool update moves only
// the flows whose pod left, and an empty pool forgets every pinning.
type Backend struct {
	st    *sessionTable
	pool  []int
	live  podSet
	stats BackendStats
}

// BackendStats are the backend's counters exported as metrics.
type BackendStats struct {
	Lookups uint64 // pinning lookups
	Hits    uint64 // lookups that found a pinning
	Inserts uint64 // new pinnings
	Moved   uint64 // pinnings re-assigned or dropped by pool updates
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
// now is unused; bench/layers.go still passes it (ROADMAP 4(f)).
func Select(b *Backend, key packet.FiveTuple, now sim.Time) int {
	h := key.Hash()
	if pod, ok := b.Lookup(key, h); ok {
		return pod
	}
	return b.Insert(key, h)
}

// NewBackend constructs the named backend over an initial pool. Any name
// but "session" is an error wrapping errs.BadConfig.
func NewBackend(name string, pool []int, cfg BackendConfig) (*Backend, error) {
	if err := CheckBackendName(name); err != nil {
		return nil, err
	}
	// Reserve a range the table never uses: later tables' bases, and so cachesim's sets, count ranges.
	cfg.Space.NextBase()
	b := &Backend{st: newSessionTable()}
	b.setPool(pool)
	return b, nil
}

// BackendConfig parameterizes NewBackend.
type BackendConfig struct {
	Space *AddrSpace // address space NewBackend reserves one range from (nil = global)
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

// Lookup returns the pod pinned for key; h is the caller-computed
// key.Hash(). ok=false means no pinning is held for key. A pinned pod is
// always in the pool: Update re-assigns the pinnings of every pod it drops.
func (b *Backend) Lookup(key packet.FiveTuple, h uint32) (pod int, ok bool) {
	b.stats.Lookups++
	s := b.st.lookup(key, h)
	if s == nil {
		return -1, false
	}
	b.stats.Hits++
	return int(s.pod), true
}

// Insert pins key (h = key.Hash()) to the pod AssignPod(pool, h) picks over
// the current pool and returns it, or -1 when the pool is empty (nothing is
// pinned then).
func (b *Backend) Insert(key packet.FiveTuple, h uint32) int {
	pod := AssignPod(b.pool, h)
	if pod < 0 {
		return -1
	}
	b.st.insert(key, h, int32(pod))
	b.stats.Inserts++
	return pod
}

// Update replaces the pod pool. Pinnings to surviving pods are kept;
// pinnings to removed pods are re-assigned over the new pool, and an empty
// pool forgets every pinning. It returns the number of flows whose pod
// changed or whose pinning was dropped.
func (b *Backend) Update(pool []int) int {
	b.setPool(pool)
	moved := 0
	if len(b.pool) == 0 {
		moved = b.st.Len()
		b.st.reset()
	} else {
		for o := range uint32(b.st.Len()) {
			if s := b.st.record(o); !b.live.has(int(s.pod)) {
				s.pod = int32(AssignPod(b.pool, s.hash))
				moved++
			}
		}
	}
	b.stats.Moved += uint64(moved)
	return moved
}

// Pool returns the current pod pool (shared slice; do not mutate).
func (b *Backend) Pool() []int { return b.pool }

// Stats returns cumulative backend counters.
func (b *Backend) Stats() BackendStats { return b.stats }
