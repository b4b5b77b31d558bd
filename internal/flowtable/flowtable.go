// Package flowtable implements the exact-match flow and session tables the
// gateway dataplane uses: VM-NC mappings, backend pinnings, connection state
// for stateful network functions.
//
// Entries carry a stable synthetic memory address so the cache simulator
// (internal/cachesim) can model which cache lines a lookup touches — the
// mechanism behind the paper's Fig. 4/5 observation that multi-GB tables
// make PLB and RSS equally cache-hostile.
package flowtable

import (
	"sync"

	"albatross/internal/packet"
	"albatross/internal/sim"
)

// Entry is an exact-match table entry.
type Entry struct {
	Value uint64
	// Addr is a stable synthetic memory address for cache modelling. Every
	// entry occupies SizeBytes of "memory" starting at Addr.
	Addr uint64
	// SizeBytes models the entry footprint; cloud gateway entries are
	// "long, often hundreds of bytes" (paper §4.2).
	SizeBytes int
}

// Index is the package's one exact-match implementation: a map from
// five-tuple to insertion ordinal — the n-th distinct key inserted gets
// ordinal n, and re-inserting a live key returns the ordinal it already
// has. An entry's modelled address is a base plus ordinal × entry size, so
// one Index serves any number of modelled tables holding the same key set
// (see internal/service), and Table is an Index plus per-entry values.
//
// Storage is a linear-probing open-addressed array rather than a Go map:
// the packet path probes it once per packet, and an inline probe over
// 32-byte (key, hash, ordinal) slots — two to a host cache line, none
// straddling one — beats the runtime map's generic bucket walk by roughly 2x
// here. Keys are never removed, so the n-th key's ordinal is n-1.
//
// Not safe for concurrent mutation. LookupHash and WarmHash only read, so an
// Index nobody inserts into any more may be shared freely.
type Index struct {
	slots []indexSlot
	mask  uint32
	count int // keys, and the ordinal of the next fresh one
}

type indexSlot struct {
	key  packet.FiveTuple
	hash uint32
	full bool
	ord  uint64
}

const indexMinSlots = 16

// NewIndex returns an empty index sized to take capacity keys without
// rehashing (0 is fine: it grows on demand).
func NewIndex(capacity int) *Index {
	x := &Index{}
	x.init(capacity)
	return x
}

func (x *Index) init(capacity int) {
	size := indexMinSlots
	for capacity*4 >= size*3 {
		size *= 2
	}
	x.slots = make([]indexSlot, size)
	x.mask = uint32(size - 1)
}

// Len returns the number of keys.
func (x *Index) Len() int { return x.count }

// Insert adds key and returns its ordinal; fresh is false when the key was
// already present (its ordinal is unchanged and no new one is consumed).
func (x *Index) Insert(key packet.FiveTuple) (ord uint64, fresh bool) {
	return x.InsertHash(key, key.Hash())
}

// InsertHash is Insert with the caller-precomputed key.Hash().
func (x *Index) InsertHash(key packet.FiveTuple, h uint32) (ord uint64, fresh bool) {
	if x.count*4 >= len(x.slots)*3 {
		x.grow()
	}
	i := h & x.mask
	for {
		s := &x.slots[i]
		if !s.full {
			ord = uint64(x.count)
			x.count++
			s.key, s.hash, s.full, s.ord = key, h, true, ord
			return ord, true
		}
		if s.hash == h && s.key == key {
			return s.ord, false
		}
		i = (i + 1) & x.mask
	}
}

// LookupHash returns key's ordinal; h is the caller-precomputed key.Hash().
func (x *Index) LookupHash(key packet.FiveTuple, h uint32) (ord uint64, ok bool) {
	i := h & x.mask
	for {
		s := &x.slots[i]
		if !s.full {
			return 0, false
		}
		if s.hash == h && s.key == key {
			return s.ord, true
		}
		i = (i + 1) & x.mask
	}
}

// WarmHash reads the head of hash h's probe chain without looking anything
// up — a host-cache prefetch for batched callers: burst dispatch and grouped
// builds (sum the return value into a sink so the load is not elided).
func (x *Index) WarmHash(h uint32) uint64 {
	return uint64(x.slots[h&x.mask].hash)
}

func (x *Index) grow() {
	size := len(x.slots) * 2
	old := x.slots
	x.slots = make([]indexSlot, size)
	x.mask = uint32(size - 1)
	for oi := range old {
		s := &old[oi]
		if !s.full {
			continue
		}
		i := s.hash & x.mask
		for x.slots[i].full {
			i = (i + 1) & x.mask
		}
		x.slots[i] = *s
	}
}

// Table is an exact-match table keyed by five-tuple: an Index whose ordinals
// address per-entry values and a private range of synthetic memory. Not safe
// for concurrent use; wrap with a lock or shard per core.
type Table struct {
	entrySize int
	addrBase  uint64
	idx       Index
	entries   []*Entry // by ordinal
}

// addrStride spaces synthetic addresses so distinct tables never share
// cache lines in the model.
const addrStride = 1 << 40

// AddrSpace hands out non-overlapping synthetic address bases. Every
// deterministic simulation context (a core.Node, one experiment) should own
// its own space: bases then depend only on the context's creation order,
// never on what else ran earlier in the process or concurrently on other
// goroutines. The zero value is ready to use.
type AddrSpace struct {
	mu   sync.Mutex
	next uint64
}

// NewAddrSpace returns a fresh address space starting at the first stride.
func NewAddrSpace() *AddrSpace { return &AddrSpace{} }

// defaultAddrSpace backs the nil space for standalone use; reproducible
// experiments must pass an explicit space instead.
var defaultAddrSpace AddrSpace

// NextBase reserves the space's next address range — room for one modelled
// table — and returns its base. A nil space draws from the process-global
// one.
func (a *AddrSpace) NextBase() uint64 {
	if a == nil {
		a = &defaultAddrSpace
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.next++
	return a.next * addrStride
}

// NewTableIn creates an exact-match table whose entries model entrySize
// bytes of memory each (64 when entrySize <= 0), drawing its address base
// from the given space (nil falls back to the process-global one). The name
// labels the table at the call site only; the table does not keep it.
func NewTableIn(space *AddrSpace, name string, entrySize int) *Table {
	if entrySize <= 0 {
		entrySize = 64
	}
	t := &Table{entrySize: entrySize, addrBase: space.NextBase()}
	t.idx.init(0)
	return t
}

// Insert adds or replaces an entry and returns it.
func (t *Table) Insert(key packet.FiveTuple, value uint64) *Entry {
	ord, fresh := t.idx.Insert(key)
	if !fresh {
		e := t.entries[ord]
		e.Value = value
		return e
	}
	e := &Entry{
		Value:     value,
		Addr:      t.addrBase + ord*uint64(t.entrySize),
		SizeBytes: t.entrySize,
	}
	t.entries = append(t.entries, e) // fresh ordinals are dense: ord == len
	return e
}

// LookupHash returns the entry for key, or nil; h is the caller-precomputed
// key.Hash().
func (t *Table) LookupHash(key packet.FiveTuple, h uint32) *Entry {
	ord, ok := t.idx.LookupHash(key, h)
	if !ok {
		return nil
	}
	return t.entries[ord]
}

// SessionState is the lifecycle state of a stateful NF session.
type SessionState uint8

// Session states.
const (
	StateNew SessionState = iota
	StateEstablished
	StateClosing
)

func (s SessionState) String() string {
	switch s {
	case StateNew:
		return "new"
	case StateEstablished:
		return "established"
	case StateClosing:
		return "closing"
	default:
		return "invalid"
	}
}

// Session is per-flow NF state (e.g. a backend pinning). Counters make the
// session "write-heavy" when updated per packet.
type Session struct {
	Key        packet.FiveTuple
	State      SessionState
	Packets    uint64
	Bytes      uint64
	Created    sim.Time
	LastActive sim.Time
	Addr       uint64 // synthetic address for cache modelling
	// Pod is the backend pod assignment when the session table serves as a
	// load-balancing Backend; unused (zero) on the NF state path.
	Pod int32
}

// SessionTable stores sessions with capacity-bounded LRU-ish eviction and
// idle expiry. Not safe for concurrent use.
type SessionTable struct {
	m        map[packet.FiveTuple]*Session
	capacity int
	idle     sim.Duration
	addrBase uint64
	nextAddr uint64

	// Evictions counts capacity evictions; Expirations counts idle expiry.
	Evictions   uint64
	Expirations uint64
}

// NewSessionTable creates a session table with the given capacity and idle
// timeout. capacity <= 0 means unbounded.
func NewSessionTable(capacity int, idle sim.Duration) *SessionTable {
	return NewSessionTableIn(nil, capacity, idle)
}

// NewSessionTableIn is NewSessionTable drawing its address base from the
// given address space (nil falls back to the process-global one).
func NewSessionTableIn(space *AddrSpace, capacity int, idle sim.Duration) *SessionTable {
	return &SessionTable{
		m:        make(map[packet.FiveTuple]*Session),
		capacity: capacity,
		idle:     idle,
		addrBase: space.NextBase(),
	}
}

// Len returns the number of live sessions.
func (st *SessionTable) Len() int { return len(st.m) }

// Lookup returns the session for key and refreshes its activity timestamp,
// or nil if absent.
func (st *SessionTable) Lookup(key packet.FiveTuple, now sim.Time) *Session {
	s := st.m[key]
	if s == nil {
		return nil
	}
	if st.idle > 0 && now.Sub(s.LastActive) > st.idle {
		delete(st.m, key)
		st.Expirations++
		return nil
	}
	s.LastActive = now
	return s
}

// Create inserts a session for key, evicting the least-recently-active
// session if at capacity. It returns the new session.
func (st *SessionTable) Create(key packet.FiveTuple, now sim.Time) *Session {
	if st.capacity > 0 && len(st.m) >= st.capacity {
		st.evictOldest()
	}
	s := &Session{
		Key:        key,
		State:      StateNew,
		Created:    now,
		LastActive: now,
		Addr:       st.addrBase + st.nextAddr*128, // sessions model 128B entries
	}
	st.nextAddr++
	st.m[key] = s
	return s
}

func (st *SessionTable) evictOldest() {
	var oldest *Session
	for _, s := range st.m {
		// Break LastActive ties by insertion order (Addr is monotone in
		// creation) so eviction never depends on map iteration order.
		if oldest == nil || s.LastActive < oldest.LastActive ||
			(s.LastActive == oldest.LastActive && s.Addr < oldest.Addr) {
			oldest = s
		}
	}
	if oldest != nil {
		delete(st.m, oldest.Key)
		st.Evictions++
	}
}

// Range calls fn for every live session until fn returns false. Iteration
// order is unspecified (map order); callers needing determinism must make
// per-session decisions independent of order.
func (st *SessionTable) Range(fn func(*Session) bool) {
	for _, s := range st.m {
		if !fn(s) {
			return
		}
	}
}

// Peek returns the session for key without refreshing activity or
// applying idle expiry (management-plane access).
func (st *SessionTable) Peek(key packet.FiveTuple) *Session { return st.m[key] }

// Delete removes a session outright, reporting whether it existed.
func (st *SessionTable) Delete(key packet.FiveTuple) bool {
	if _, ok := st.m[key]; !ok {
		return false
	}
	delete(st.m, key)
	return true
}
