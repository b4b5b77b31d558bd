package flowtable

import (
	"runtime"
	"strconv"
	"testing"
	"unsafe"

	"albatross/internal/packet"
	"albatross/internal/sim"
)

// refSessionTable is the SessionTable that 8-byte slots over paged records
// replaced: a Go map of one heap-allocated record per flow, with eviction
// scanning the map. It is the oracle the compact layout must agree with,
// field for field. It ignores the caller's hash.
type refSessionTable struct {
	m        map[packet.FiveTuple]*refSession
	capacity int
	idle     sim.Duration
	addrBase uint64
	nextAddr uint64

	Evictions   uint64
	Expirations uint64
}

type refSession struct {
	Key        packet.FiveTuple
	Pod        int32
	LastActive sim.Time
	Addr       uint64
}

func newRefSessionTable(base uint64, capacity int, idle sim.Duration) *refSessionTable {
	return &refSessionTable{m: map[packet.FiveTuple]*refSession{}, capacity: capacity, idle: idle, addrBase: base}
}

func (st *refSessionTable) Len() int { return len(st.m) }

func (st *refSessionTable) Lookup(key packet.FiveTuple, now sim.Time) *refSession {
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

func (st *refSessionTable) Create(key packet.FiveTuple, now sim.Time) *refSession {
	if st.capacity > 0 && len(st.m) >= st.capacity {
		var oldest *refSession
		for _, s := range st.m {
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
	s := &refSession{Key: key, LastActive: now, Addr: st.addrBase + st.nextAddr*128}
	st.nextAddr++
	st.m[key] = s
	return s
}

func (st *refSessionTable) Delete(key packet.FiveTuple) bool {
	if _, ok := st.m[key]; !ok {
		return false
	}
	delete(st.m, key)
	return true
}

// peek returns the session for key without refreshing activity or applying
// idle expiry.
func peek(st *SessionTable, key packet.FiveTuple, h uint32) *Session {
	_, s := st.find(key, h)
	return s
}

// refSessionBackend is Backend over refSessionTable.
type refSessionBackend struct {
	st    *refSessionTable
	pool  []int
	live  podSet
	stats BackendStats
}

func (b *refSessionBackend) setPool(pool []int) {
	b.pool = append(b.pool[:0], pool...)
	b.live.set(b.pool)
}

func (b *refSessionBackend) Select(key packet.FiveTuple, h uint32, now sim.Time) int {
	b.stats.Lookups++
	if s := b.st.Lookup(key, now); s != nil {
		b.stats.Hits++
		pod := int(s.Pod)
		if b.live.has(pod) {
			return pod
		}
		if pod = AssignPod(b.pool, h); pod >= 0 {
			s.Pod = int32(pod)
			b.stats.Moved++
			return pod
		}
		b.st.Delete(key)
	}
	pod := AssignPod(b.pool, h)
	if pod < 0 {
		return -1
	}
	b.st.Create(key, now).Pod = int32(pod)
	b.stats.Inserts++
	return pod
}

// Update is Backend.Update; hashOf is the program's hash function.
func (b *refSessionBackend) Update(pool []int, hashOf func(packet.FiveTuple) uint32) int {
	b.setPool(pool)
	moved := 0
	for k, s := range b.st.m {
		switch {
		case len(b.pool) == 0:
			delete(b.st.m, k)
			moved++
		case !b.live.has(int(s.Pod)):
			s.Pod = int32(AssignPod(b.pool, hashOf(k)))
			moved++
		}
	}
	b.stats.Moved += uint64(moved)
	return moved
}

func (b *refSessionBackend) Stats() BackendStats {
	st := b.stats
	st.Evictions = b.st.Evictions + b.st.Expirations
	return st
}

// sessionProgramKeys caps the live sessions of one program, per hash
// function of indexHashes: the real hash reaches 8192 slots and 96 pages,
// the colliding ones (whose chains make every probe and shift linear) 1024
// slots and 8 pages.
var sessionProgramKeys = [len(indexHashes)]int{6144, 512, 512, 512}

// Session program ops, one (op, arg) byte pair each; op is taken mod 10.
const (
	sessCreate  = iota // Create universe key arg, Pod arg%8
	sessLookup         // Lookup universe key arg
	sessPeek           // peek universe key arg
	sessDelete         // Delete universe key arg
	sessBulk           // Create (arg+1)×8 fresh keys, up to the cap (see fresh)
	sessDrop           // Delete the (arg+1)×8 oldest fresh keys still unvisited
	sessAdvance        // advance the clock by arg×8 ns
	sessRange          // compare Range's sets; with arg odd, Delete every arg-th Addr
	sessSelect         // Lookup, else Insert, universe key arg through both backends
	sessUpdate         // Update both backends to the pods in bitmask arg
)

// sessionRun is what a program passed through, for the seed checks.
type sessionRun struct {
	slotSizes []int
	pages     int
	frees     uint64 // deletes, expiries and evictions
	deletes   uint64
	freeLeft  int // ordinals still on the free list at the end
}

// runSessionProgram drives a SessionTable and a refSessionTable, each under
// a session backend, through one program: a hash-function byte, a config
// byte (capacity (c&15)×16, 0 unbounded; idle (c>>4)×500 ns, 0 never), then
// (op, arg) pairs. A program creates at most 8× its capacity or 4× its key
// cap in fresh keys, which bounds eviction's scans. The clock advances 1 ns per op. It fails on the first
// operation whose returned session, Len, Evictions, Expirations, pod or
// backend Stats differ; on sessRange, whenever the slot array doubles and at
// the end it compares the live sets and checks the slot invariants.
func runSessionProgram(t *testing.T, data []byte) sessionRun {
	var run sessionRun
	if len(data) < 2 {
		return run
	}
	hashFn := indexHashes[int(data[0])%len(indexHashes)]
	maxKeys := sessionProgramKeys[int(data[0])%len(indexHashes)]
	capacity, idle := int(data[1]&15)*16, sim.Duration(data[1]>>4)*500
	fresh := 4 * maxKeys // fresh keys one program may create
	if capacity > 0 {
		fresh = 8 * capacity
	}
	space := NewAddrSpace()
	x := NewSessionTableIn(space, capacity, idle)
	ref := newRefSessionTable(x.addrBase, capacity, idle)
	pool := []int{0, 1, 2, 3, 4, 5, 6, 7}
	b := &Backend{st: x}
	rb := &refSessionBackend{st: ref}
	b.setPool(pool)
	rb.setPool(pool)
	// held is every record Create returned for a live key: records must
	// never move.
	held := map[packet.FiveTuple]*Session{}
	run.slotSizes = []int{len(x.slots)}
	var now sim.Time
	next, dropped := 256, 256 // fresh keys start past the universe
	universe := func(arg byte) packet.FiveTuple { return tuple(int(arg)) }

	same := func(op int, what string, k packet.FiveTuple, s *Session, r *refSession) {
		t.Helper()
		if (s == nil) != (r == nil) ||
			s != nil && (s.Key != r.Key || s.Pod != r.Pod || s.LastActive != r.LastActive || s.Addr != r.Addr) {
			t.Fatalf("op %d: %s(%v) = %+v, reference %+v", op, what, k, s, r)
		}
		if x.Len() != ref.Len() || x.Evictions != ref.Evictions || x.Expirations != ref.Expirations {
			t.Fatalf("op %d: %s(%v): Len/Evictions/Expirations %d/%d/%d, reference %d/%d/%d", op, what, k,
				x.Len(), x.Evictions, x.Expirations, ref.Len(), ref.Evictions, ref.Expirations)
		}
		if len(x.slots) != run.slotSizes[len(run.slotSizes)-1] {
			run.slotSizes = append(run.slotSizes, len(x.slots))
			compareSessions(t, op, x, ref, held, hashFn)
		}
		run.pages = max(run.pages, len(x.pages))
	}
	create := func(op int, k packet.FiveTuple, pod int32) {
		h := hashFn(k)
		s, r := x.Create(k, h, now), ref.Create(k, now)
		s.Pod, r.Pod = pod, pod
		held[k] = s
		same(op, "Create", k, s, r)
	}
	del := func(op int, k packet.FiveTuple) {
		if got, want := x.Delete(k, hashFn(k)), ref.Delete(k); got != want {
			t.Fatalf("op %d: Delete(%v) = %v, reference %v", op, k, got, want)
		} else if got {
			run.deletes++
		}
		same(op, "Delete", k, nil, nil)
	}
	ops := data[2:]
	for p := 0; p+1 < len(ops); p += 2 {
		op, arg := p/2, ops[p+1]
		now++
		switch ops[p] % 10 {
		case sessCreate:
			if x.Len() < maxKeys {
				create(op, universe(arg), int32(arg%8))
			}
		case sessLookup:
			k := universe(arg)
			same(op, "Lookup", k, x.Lookup(k, hashFn(k), now), ref.Lookup(k, now))
		case sessPeek:
			k := universe(arg)
			same(op, "Peek", k, peek(x, k, hashFn(k)), ref.m[k])
		case sessDelete:
			del(op, universe(arg))
		case sessBulk:
			for n := (int(arg) + 1) * 8; n > 0 && x.Len() < maxKeys && next < 256+fresh; n-- {
				create(op, tuple(next), int32(next%8))
				next++
			}
		case sessDrop:
			for n := (int(arg) + 1) * 8; n > 0 && dropped < next; n-- {
				del(op, tuple(dropped))
				dropped++
			}
		case sessAdvance:
			now += sim.Time(arg) * 8
		case sessRange:
			if arg%2 == 1 {
				every := uint64(arg)
				kill := func(addr uint64) bool { return (addr/128)%every == 0 }
				x.Range(func(s *Session) bool {
					if kill(s.Addr) {
						x.Delete(s.Key, hashFn(s.Key))
						run.deletes++
					}
					return true
				})
				for k, s := range ref.m {
					if kill(s.Addr) {
						delete(ref.m, k)
					}
				}
			}
			same(op, "Range", packet.FiveTuple{}, nil, nil)
			compareSessions(t, op, x, ref, held, hashFn)
		case sessSelect:
			k := universe(arg)
			h := hashFn(k)
			got, ok := b.Lookup(k, h, now)
			if !ok {
				got = b.Insert(k, h, now)
			}
			want := rb.Select(k, h, now)
			if s := peek(x, k, h); s != nil {
				held[k] = s
			}
			if got != want || b.Stats() != rb.Stats() {
				t.Fatalf("op %d: Lookup/Insert(%v) = %d (%+v), reference %d (%+v)", op, k, got, b.Stats(), want, rb.Stats())
			}
			same(op, "Select", k, peek(x, k, h), ref.m[k])
		case sessUpdate:
			var np []int
			for pod := range 8 {
				if arg&(1<<pod) != 0 {
					np = append(np, pod)
				}
			}
			if got, want := b.Update(np), rb.Update(np, hashFn); got != want || b.Stats() != rb.Stats() {
				t.Fatalf("op %d: Update(%v) moved %d (%+v), reference %d (%+v)", op, np, got, b.Stats(), want, rb.Stats())
			}
			same(op, "Update", packet.FiveTuple{}, nil, nil)
		}
	}
	compareSessions(t, len(ops)/2, x, ref, held, hashFn)
	run.frees = run.deletes + x.Evictions + x.Expirations
	run.freeLeft = len(x.free)
	return run
}

// compareSessions fails unless x holds ref's sessions: Range visits each
// live record once, in ordinal order, with ref's fields, at the address
// Create returned for it; every live record has exactly one slot, holding
// its hash and reachable from its home slot without crossing an empty one;
// and every other ordinal below the high-water mark is on the free list.
func compareSessions(t *testing.T, op int, x *SessionTable, ref *refSessionTable, held map[packet.FiveTuple]*Session, hashFn func(packet.FiveTuple) uint32) {
	t.Helper()
	seen := 0
	o := uint32(0) // the next live ordinal Range must visit
	x.Range(func(s *Session) bool {
		for o < x.used && x.record(o).Addr == 0 {
			o++
		}
		r := ref.m[s.Key]
		if o == x.used || s != x.record(o) || r == nil || s.Pod != r.Pod || s.LastActive != r.LastActive ||
			s.Addr != r.Addr || s.hash != hashFn(s.Key) || held[s.Key] != s {
			t.Fatalf("op %d: Range visits %+v, next live ordinal %d; reference %+v", op, s, o, r)
		}
		o++
		seen++
		return true
	})
	if seen != len(ref.m) || x.Len() != len(ref.m) {
		t.Fatalf("op %d: Range visits %d sessions, Len %d, reference %d", op, seen, x.Len(), len(ref.m))
	}
	// run is the number of full slots up to and including slot i, counted
	// from the empty slot before them: a slot is reachable from its home
	// when its distance from it is less than that.
	start := uint32(0)
	for x.slots[start].ordp != 0 {
		start++
	}
	full, run := 0, uint32(0)
	for n := uint32(1); n <= x.mask+1; n++ {
		i := (start + n) & x.mask
		sl := x.slots[i]
		if sl.ordp == 0 {
			run = 0
			continue
		}
		full++
		run++
		s := x.record(sl.ordp - 1)
		if s.Addr == 0 || s.hash != sl.hash {
			t.Fatalf("op %d: slot %d = %+v points at record %+v", op, i, sl, s)
		}
		if (i-sl.hash)&x.mask >= run {
			t.Fatalf("op %d: slot %d (home %d) is cut off by an empty slot", op, i, sl.hash&x.mask)
		}
	}
	if full != x.Len() || int(x.used) != x.Len()+len(x.free) {
		t.Fatalf("op %d: %d full slots, %d ordinals used, %d free, Len %d", op, full, x.used, len(x.free), x.Len())
	}
}

// sessionSeeds are FuzzSessionMatchesReference's seeds. Under each hash
// function, an unbounded program bulk-creates to its key cap — every slot
// doubling and page boundary — interleaving lookups, peeks, selects and pool
// updates, drops and range-deletes half the sessions, and bulk-creates again
// until every freed ordinal is reused. A second program runs at a capacity
// and idle timeout: bulks evict, clock advances make lookups expire, and the
// bulks after them reuse the ordinals eviction and expiry freed.
func sessionSeeds() [][]byte {
	universe := []byte{
		sessCreate, 3, sessCreate, 9, sessLookup, 3, sessPeek, 9, sessSelect, 3, sessSelect, 40,
		sessLookup, 200, sessDelete, 9, sessPeek, 9, sessCreate, 3,
	}
	var seeds [][]byte
	for hash := range byte(len(indexHashes)) {
		keys := sessionProgramKeys[hash]
		grow := []byte{hash, 0}
		grow = append(grow, universe...)
		for range keys / 256 {
			grow = append(grow, sessBulk, 31, sessLookup, 3, sessSelect, 7, sessUpdate, 0xf7, sessSelect, 3)
		}
		grow = append(grow, sessRange, 0, sessUpdate, 0xff)
		for range keys / 512 {
			grow = append(grow, sessDrop, 31, sessSelect, 5)
		}
		grow = append(grow, sessRange, 3, sessRange, 0, sessUpdate, 0)
		for range keys / 256 {
			grow = append(grow, sessBulk, 31, sessLookup, 5)
		}
		grow = append(grow, sessUpdate, 0xff, sessRange, 0)

		// Capacity 192 (three pages), idle 4 000 ns.
		churn := []byte{hash, 8<<4 | 12}
		churn = append(churn, universe...)
		for range 3 {
			churn = append(churn, sessBulk, 31, sessSelect, 3, sessAdvance, 255, sessAdvance, 255,
				sessLookup, 3, sessCreate, 4, sessBulk, 7, sessRange, 0)
		}
		for a := range byte(20) {
			churn = append(churn, sessCreate, a, sessAdvance, 255, sessAdvance, 255)
		}
		for a := range byte(20) {
			churn = append(churn, sessLookup, a)
		}
		churn = append(churn, sessBulk, 31, sessRange, 0)
		seeds = append(seeds, grow, churn)
	}
	return seeds
}

// TestSessionMatchesReference runs the seeds and random programs under
// every hash function, and requires the seeds, per hash function, to hold
// every slot-array size and page up to the key cap, to delete, expire and
// evict sessions, and to end with every freed ordinal reused.
func TestSessionMatchesReference(t *testing.T) {
	type cover struct {
		sizes                     map[int]bool
		pages                     int
		deletes, evicts, expiries uint64
	}
	covered := make([]cover, len(indexHashes))
	for i := range covered {
		covered[i].sizes = map[int]bool{}
	}
	for _, prog := range sessionSeeds() {
		run := runSessionProgram(t, prog)
		c := &covered[int(prog[0])%len(indexHashes)]
		for _, size := range run.slotSizes {
			c.sizes[size] = true
		}
		c.pages = max(c.pages, run.pages)
		c.deletes += run.deletes
		if run.freeLeft != 0 {
			t.Errorf("seed %v...: %d freed ordinals never reused", prog[:2], run.freeLeft)
		}
		if prog[1] != 0 {
			// Evictions and expiries are what is freed but not deleted.
			c.evicts += run.frees - run.deletes
		}
	}
	for hash, keys := range sessionProgramKeys {
		c := covered[hash]
		for size := indexMinSlots; size <= len(NewIndex(keys-1).slots); size *= 2 {
			if !c.sizes[size] {
				t.Errorf("hash function %d: no seed holds a %d-slot array", hash, size)
			}
		}
		if want := (keys + 1<<sessionPageBits - 1) >> sessionPageBits; c.pages < want {
			t.Errorf("hash function %d: seeds reach %d pages, want %d", hash, c.pages, want)
		}
		if c.deletes == 0 || c.evicts == 0 {
			t.Errorf("hash function %d: seeds delete %d and evict or expire %d sessions", hash, c.deletes, c.evicts)
		}
	}
	r := sim.NewRand(41)
	for n := range 64 {
		prog := make([]byte, 2+2*(50+r.Intn(400)))
		for i := range prog {
			prog[i] = byte(r.Intn(256))
		}
		prog[0] = byte(n)
		runSessionProgram(t, prog)
	}
}

// FuzzSessionMatchesReference holds SessionTable to refSessionTable
// operation by operation (see runSessionProgram).
func FuzzSessionMatchesReference(f *testing.F) {
	for _, seed := range sessionSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) { runSessionProgram(t, data) })
}

// TestSessionBytesPerSession bounds the host footprint of 100 000 live
// sessions at 64 bytes each, measured as the live heap the table adds (the
// allocator's size classes included): about 63 now, 99 with a Go map of
// 64-byte records. Records must stay at most 48 bytes.
func TestSessionBytesPerSession(t *testing.T) {
	const sessions, bound = 100_000, 64.0
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	st := NewSessionTableIn(nil, 0, 0)
	for i := range sessions {
		k := tuple(i)
		st.Create(k, k.Hash(), 0)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perSession := float64(after.HeapAlloc-before.HeapAlloc) / sessions
	t.Logf("%d slots, %d pages of %d-byte records: %.1f B per session",
		len(st.slots), len(st.pages), unsafe.Sizeof(Session{}), perSession)
	if unsafe.Sizeof(Session{}) > 48 || perSession > bound {
		t.Errorf("%d-byte records, %.1f B per session; bounds 48 and %.0f", unsafe.Sizeof(Session{}), perSession, bound)
	}
	runtime.KeepAlive(st)
}

// BenchmarkSessionLookup times Lookup over 1<<16 sessions drawn at random
// (a hit), keys never created (a miss), and Create of a fresh key followed
// by its Delete (an insert, the table's size unchanged), at 10 k and 200 k
// sessions. Hashes are computed before the timer starts.
func BenchmarkSessionLookup(b *testing.B) {
	const sample = 1 << 16
	for _, n := range []int{10_000, 200_000} {
		st := NewSessionTableIn(nil, 0, 0)
		for i := range n {
			k := tuple(i)
			st.Create(k, k.Hash(), 0)
		}
		r := sim.NewRand(uint64(n))
		draw := func(off int) ([]packet.FiveTuple, []uint32) {
			keys, hashes := make([]packet.FiveTuple, sample), make([]uint32, sample)
			for j := range keys {
				keys[j] = tuple(off + r.Intn(n))
				hashes[j] = keys[j].Hash()
			}
			return keys, hashes
		}
		hitKeys, hitHashes := draw(0)
		missKeys, missHashes := draw(n)
		for _, bc := range []struct {
			name   string
			keys   []packet.FiveTuple
			hashes []uint32
			op     func(packet.FiveTuple, uint32, sim.Time) bool
		}{
			{"hit", hitKeys, hitHashes, func(k packet.FiveTuple, h uint32, now sim.Time) bool { return st.Lookup(k, h, now) != nil }},
			{"miss", missKeys, missHashes, func(k packet.FiveTuple, h uint32, now sim.Time) bool { return st.Lookup(k, h, now) == nil }},
			{"insert", missKeys, missHashes, func(k packet.FiveTuple, h uint32, now sim.Time) bool {
				st.Create(k, h, now)
				return st.Delete(k, h)
			}},
		} {
			b.Run(bc.name+"-"+strconv.Itoa(n/1000)+"k", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					j := i & (sample - 1)
					if !bc.op(bc.keys[j], bc.hashes[j], sim.Time(i)) {
						b.Fatalf("%s %d failed", bc.name, j)
					}
				}
			})
		}
	}
}
