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
// Storage is two arrays rather than a Go map. The first is a
// linear-probing open-addressed array of 8-byte (hash, ordinal+1) slots —
// eight to a host cache line, none straddling one — that the packet path
// probes once per packet; the second is the keys themselves, dense and in
// ordinal order. A probe compares hashes in the slot array and reads a key
// only on a hash match, so a hit costs one slot line and one key load, a
// miss usually the slot line alone, and the index holds about 35 bytes per
// key (TestIndexBytesPerKey). Keys are never removed, so the n-th key's
// ordinal is n-1.
//
// An Index holds at most 2^32−1 keys: a slot stores ordinal+1 in 32 bits,
// 0 meaning empty. InsertHash panics past that.
//
// Not safe for concurrent mutation. LookupHash and WarmHash only read, so an
// Index nobody inserts into any more may be shared freely.
type Index struct {
	slots []indexSlot
	keys  []packet.FiveTuple // by ordinal
	mask  uint32
}

// indexSlot is one probe slot: the key's hash and its ordinal plus one, so
// the zero slot is empty.
type indexSlot struct {
	hash uint32
	ordp uint32
}

const (
	indexMinSlots = 16
	// indexMaxKeys is the largest key count a 32-bit ordinal+1 can hold.
	indexMaxKeys = 1<<32 - 1
)

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
	x.keys = make([]packet.FiveTuple, 0, capacity)
	x.mask = uint32(size - 1)
}

// Len returns the number of keys.
func (x *Index) Len() int { return len(x.keys) }

// Insert adds key and returns its ordinal; fresh is false when the key was
// already present (its ordinal is unchanged and no new one is consumed).
func (x *Index) Insert(key packet.FiveTuple) (ord uint64, fresh bool) {
	return x.InsertHash(key, key.Hash())
}

// InsertHash is Insert with the caller-precomputed key.Hash().
func (x *Index) InsertHash(key packet.FiveTuple, h uint32) (ord uint64, fresh bool) {
	if len(x.keys)*4 >= len(x.slots)*3 {
		x.grow()
	}
	i := h & x.mask
	for {
		s := &x.slots[i]
		if s.ordp == 0 {
			if uint64(len(x.keys)) == indexMaxKeys {
				panic("flowtable: Index holds 2^32-1 keys")
			}
			ord = uint64(len(x.keys))
			x.keys = append(x.keys, key)
			s.hash, s.ordp = h, uint32(ord+1)
			return ord, true
		}
		if s.hash == h && x.keys[s.ordp-1] == key {
			return uint64(s.ordp - 1), false
		}
		i = (i + 1) & x.mask
	}
}

// LookupHash returns key's ordinal; h is the caller-precomputed key.Hash().
func (x *Index) LookupHash(key packet.FiveTuple, h uint32) (ord uint64, ok bool) {
	i := h & x.mask
	for {
		s := x.slots[i]
		if s.ordp == 0 {
			return 0, false
		}
		if s.hash == h && x.keys[s.ordp-1] == key {
			return uint64(s.ordp - 1), true
		}
		i = (i + 1) & x.mask
	}
}

// WarmHash reads the head of hash h's probe chain without looking anything
// up — a host-cache prefetch for batched callers: burst dispatch and grouped
// builds (sum the return value into a sink so the load is not elided). The
// value is the head slot, hash in the high half and ordinal+1 in the low.
func (x *Index) WarmHash(h uint32) uint64 {
	s := x.slots[h&x.mask]
	return uint64(s.hash)<<32 | uint64(s.ordp)
}

func (x *Index) grow() {
	size := len(x.slots) * 2
	old := x.slots
	x.slots = make([]indexSlot, size)
	x.mask = uint32(size - 1)
	for _, s := range old {
		if s.ordp == 0 {
			continue
		}
		i := s.hash & x.mask
		for x.slots[i].ordp != 0 {
			i = (i + 1) & x.mask
		}
		x.slots[i] = s
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

// Session is one flow's record in a SessionTable: the pod it is pinned to
// and when it was last active. On the host a record is 40 bytes; the model
// prices a session at 128 (Addr advances by 128 per Create).
type Session struct {
	Key packet.FiveTuple
	// Pod is the backend pod assignment when the session table serves as a
	// load-balancing Backend.
	Pod int32
	// hash is the caller's hash of Key, kept in what would be padding so
	// eviction can find the record's slot and a pool update can re-assign
	// the session without hashing Key again.
	hash       uint32
	LastActive sim.Time
	// Addr is a synthetic address for cache modelling: the table's base
	// plus 128 × the number of sessions created before this one. It is
	// never 0 for a live record, so 0 marks a free one.
	Addr uint64
}

// SessionTable stores sessions with capacity-bounded LRU eviction and idle
// expiry. Not safe for concurrent use.
//
// It uses Index's layout with deletion added. A linear-probing array of
// 8-byte (hash, ordinal+1) slots, doubled at 3/4 load, points into records
// held in fixed-size pages that are allocated on demand and never moved.
// Delete, idle expiry and eviction shift the slots behind the freed one
// back (no tombstones, so probe chains stay as short as the live load
// makes them) and put the record's ordinal on a free list that the next
// Create reuses. A table of 100 000 sessions holds about 63 bytes per
// session (TestSessionBytesPerSession).
//
// A *Session returned by Lookup, Create or Peek, or passed to Range, stays
// valid until that session is deleted, expires or is evicted; after that
// its record may be reused by a later Create for another key. Inserting
// other sessions never moves a record.
//
// Every method that takes a key takes h, the caller's hash of it: any
// function of the key will do, as long as the caller uses the same one for
// every call (the session backend uses key.Hash()).
type SessionTable struct {
	slots []indexSlot
	mask  uint32
	pages []*sessionPage
	used  uint32   // ordinals handed out so far, freed ones included
	free  []uint32 // freed ordinals; the last freed is reused first
	live  int

	capacity int
	idle     sim.Duration
	addrBase uint64
	nextAddr uint64

	// Evictions counts capacity evictions; Expirations counts idle expiry.
	Evictions   uint64
	Expirations uint64
}

// sessionPageBits sizes a page at 64 records, 2 560 bytes: a table of a few
// dozen sessions, as each member of a large fleet holds, costs one page,
// and a page of a large table costs one pointer per 64 records.
const sessionPageBits = 6

// sessionPage holds the records of 1<<sessionPageBits consecutive ordinals.
type sessionPage [1 << sessionPageBits]Session

// NewSessionTableIn creates a session table with the given capacity
// (<= 0 means unbounded) and idle timeout, drawing its address base from the
// given address space (nil falls back to the process-global one).
func NewSessionTableIn(space *AddrSpace, capacity int, idle sim.Duration) *SessionTable {
	return &SessionTable{
		slots:    make([]indexSlot, indexMinSlots),
		mask:     indexMinSlots - 1,
		capacity: capacity,
		idle:     idle,
		addrBase: space.NextBase(),
	}
}

// Len returns the number of live sessions.
func (st *SessionTable) Len() int { return st.live }

// record returns ordinal ord's record.
func (st *SessionTable) record(ord uint32) *Session {
	return &st.pages[ord>>sessionPageBits][ord&(1<<sessionPageBits-1)]
}

// find returns key's slot and record, or the empty slot ending its probe
// chain and nil.
func (st *SessionTable) find(key packet.FiveTuple, h uint32) (uint32, *Session) {
	i := h & st.mask
	for {
		sl := st.slots[i]
		if sl.ordp == 0 {
			return i, nil
		}
		if sl.hash == h {
			if s := st.record(sl.ordp - 1); s.Key == key {
				return i, s
			}
		}
		i = (i + 1) & st.mask
	}
}

// Lookup returns the session for key and refreshes its activity timestamp,
// or nil if absent.
func (st *SessionTable) Lookup(key packet.FiveTuple, h uint32, now sim.Time) *Session {
	i, s := st.find(key, h)
	if s == nil {
		return nil
	}
	if st.idle > 0 && now.Sub(s.LastActive) > st.idle {
		st.remove(i)
		st.Expirations++
		return nil
	}
	s.LastActive = now
	return s
}

// Create inserts a session for key, evicting the least-recently-active
// session if at capacity, and returns it with Pod 0. A live session for key
// is replaced in place.
func (st *SessionTable) Create(key packet.FiveTuple, h uint32, now sim.Time) *Session {
	if st.capacity > 0 && st.live >= st.capacity {
		st.evictOldest()
	}
	i, s := st.find(key, h)
	if s == nil {
		if st.live*4 >= len(st.slots)*3 {
			st.grow()
			i, _ = st.find(key, h)
		}
		ord := st.alloc()
		st.slots[i] = indexSlot{hash: h, ordp: ord + 1}
		st.live++
		s = st.record(ord)
	}
	*s = Session{Key: key, hash: h, LastActive: now, Addr: st.addrBase + st.nextAddr*128}
	st.nextAddr++
	return s
}

// alloc returns a free ordinal, the last one freed if any, else a fresh one
// (adding a page when it starts one).
func (st *SessionTable) alloc() uint32 {
	if n := len(st.free); n > 0 {
		ord := st.free[n-1]
		st.free = st.free[:n-1]
		return ord
	}
	if st.used == indexMaxKeys {
		panic("flowtable: SessionTable holds 2^32-1 sessions")
	}
	ord := st.used
	st.used++
	if int(ord>>sessionPageBits) == len(st.pages) {
		st.pages = append(st.pages, new(sessionPage))
	}
	return ord
}

func (st *SessionTable) grow() {
	size := len(st.slots) * 2
	old := st.slots
	st.slots = make([]indexSlot, size)
	st.mask = uint32(size - 1)
	for _, sl := range old {
		if sl.ordp == 0 {
			continue
		}
		i := sl.hash & st.mask
		for st.slots[i].ordp != 0 {
			i = (i + 1) & st.mask
		}
		st.slots[i] = sl
	}
}

// remove deletes the session in slot i: the slots behind it in the probe
// run shift back over the hole, and its record goes to the free list.
func (st *SessionTable) remove(i uint32) {
	ord := st.slots[i].ordp - 1
	*st.record(ord) = Session{}
	st.free = append(st.free, ord)
	st.live--
	for {
		st.slots[i] = indexSlot{}
		j := i
		for {
			j = (j + 1) & st.mask
			sl := st.slots[j]
			if sl.ordp == 0 {
				return
			}
			// sl may fill the hole unless its home slot lies after the
			// hole, cyclically, up to j.
			if (j-sl.hash)&st.mask >= (j-i)&st.mask {
				st.slots[i] = sl
				i = j
				break
			}
		}
	}
}

// evictOldest removes the least-recently-active session, breaking
// LastActive ties by creation order (Addr is monotone in it).
func (st *SessionTable) evictOldest() {
	var oldest *Session
	var ord uint32
	for o := uint32(0); o < st.used; o++ {
		s := st.record(o)
		if s.Addr != 0 && (oldest == nil || s.LastActive < oldest.LastActive ||
			(s.LastActive == oldest.LastActive && s.Addr < oldest.Addr)) {
			oldest, ord = s, o
		}
	}
	if oldest == nil {
		return
	}
	i := oldest.hash & st.mask
	for st.slots[i].ordp != ord+1 {
		i = (i + 1) & st.mask
	}
	st.remove(i)
	st.Evictions++
}

// Range calls fn for every live session, in ordinal order, until fn
// returns false. Ordinals are reused, so the order is neither creation nor
// key order; callers needing determinism must make per-session decisions
// independent of order. fn may Delete the session it is given and nothing
// else.
func (st *SessionTable) Range(fn func(*Session) bool) {
	for o := uint32(0); o < st.used; o++ {
		if s := st.record(o); s.Addr != 0 && !fn(s) {
			return
		}
	}
}

// Peek returns the session for key without refreshing activity or
// applying idle expiry (management-plane access).
func (st *SessionTable) Peek(key packet.FiveTuple, h uint32) *Session {
	_, s := st.find(key, h)
	return s
}

// Delete removes a session outright, reporting whether it existed.
func (st *SessionTable) Delete(key packet.FiveTuple, h uint32) bool {
	i, s := st.find(key, h)
	if s == nil {
		return false
	}
	st.remove(i)
	return true
}
