// Package flowtable implements the exact-match tables the gateway dataplane
// uses: Index and Table for VM-NC mappings and service state, and Backend,
// which pins flows to pods in an insert-only session table.
//
// Table entries carry a stable synthetic memory address so the cache
// simulator (internal/cachesim) can model which cache lines a lookup
// touches — the mechanism behind the paper's Fig. 4/5 observation that
// multi-GB tables make PLB and RSS equally cache-hostile. The session
// table is host-only and models no addresses.
package flowtable

import (
	"sync"

	"albatross/internal/packet"
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
	x.slots = grownSlots(x.slots)
	x.mask = uint32(len(x.slots) - 1)
}

// grownSlots returns a probe array of twice old's size holding old's full
// slots, each re-probed from its home.
func grownSlots(old []indexSlot) []indexSlot {
	slots := make([]indexSlot, len(old)*2)
	mask := uint32(len(slots) - 1)
	for _, s := range old {
		if s.ordp == 0 {
			continue
		}
		i := s.hash & mask
		for slots[i].ordp != 0 {
			i = (i + 1) & mask
		}
		slots[i] = s
	}
	return slots
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

// session is one flow's pinning in a sessionTable: its key, the pod it is
// pinned to, and the caller's hash of the key, kept in what would be padding
// so a pool update can re-assign the flow without hashing the key again.
// A record is 24 bytes.
type session struct {
	key  packet.FiveTuple
	pod  int32
	hash uint32
}

// sessionTable is Backend's pinning store. It is insert-only: it uses
// Index's layout, a linear-probing array of 8-byte (hash, ordinal+1) slots
// doubled at 3/4 load, over records held in fixed-size pages that are
// allocated on demand and never moved, so the n-th session inserted is
// ordinal n-1 and the live ordinals are 0 .. Len()-1. The only removal is
// reset, which forgets every session at once. A table of 100 000 sessions
// holds about 45 bytes per session (TestSessionBytesPerSession).
//
// Every method that takes a key takes h, the caller's hash of it: any
// function of the key will do, as long as the caller uses the same one for
// every call (Backend uses key.Hash()). Not safe for concurrent use.
type sessionTable struct {
	slots []indexSlot
	mask  uint32
	pages []*sessionPage
	n     uint32 // sessions, which hold ordinals 0 .. n-1
}

// sessionPageBits sizes a page at 64 records, 1 536 bytes: a table of a few
// dozen sessions, as each member of a large fleet holds, costs one page,
// and a page of a large table costs one pointer per 64 records.
const sessionPageBits = 6

// sessionPage holds the records of 1<<sessionPageBits consecutive ordinals.
type sessionPage [1 << sessionPageBits]session

func newSessionTable() *sessionTable {
	return &sessionTable{slots: make([]indexSlot, indexMinSlots), mask: indexMinSlots - 1}
}

// Len returns the number of sessions.
func (st *sessionTable) Len() int { return int(st.n) }

// record returns ordinal ord's record.
func (st *sessionTable) record(ord uint32) *session {
	return &st.pages[ord>>sessionPageBits][ord&(1<<sessionPageBits-1)]
}

// find returns key's slot and record, or the empty slot ending its probe
// chain and nil.
func (st *sessionTable) find(key packet.FiveTuple, h uint32) (uint32, *session) {
	i := h & st.mask
	for {
		sl := st.slots[i]
		if sl.ordp == 0 {
			return i, nil
		}
		if sl.hash == h {
			if s := st.record(sl.ordp - 1); s.key == key {
				return i, s
			}
		}
		i = (i + 1) & st.mask
	}
}

// lookup returns the session for key, or nil if absent.
func (st *sessionTable) lookup(key packet.FiveTuple, h uint32) *session {
	_, s := st.find(key, h)
	return s
}

// insert pins key to pod, appending a session when key is absent, and
// returns the session.
func (st *sessionTable) insert(key packet.FiveTuple, h uint32, pod int32) *session {
	i, s := st.find(key, h)
	if s != nil {
		s.pod = pod
		return s
	}
	if int(st.n)*4 >= len(st.slots)*3 {
		st.slots = grownSlots(st.slots)
		st.mask = uint32(len(st.slots) - 1)
		i, _ = st.find(key, h)
	}
	if st.n == indexMaxKeys {
		panic("flowtable: session table holds 2^32-1 sessions")
	}
	ord := st.n
	st.n++
	if int(ord>>sessionPageBits) == len(st.pages) {
		st.pages = append(st.pages, new(sessionPage))
	}
	st.slots[i] = indexSlot{hash: h, ordp: ord + 1}
	s = st.record(ord)
	*s = session{key: key, pod: pod, hash: h}
	return s
}

// reset forgets every session, keeping the slot array and pages for the
// sessions inserted after it.
func (st *sessionTable) reset() {
	clear(st.slots)
	st.n = 0
}
