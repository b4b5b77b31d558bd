package flowtable

import (
	"runtime"
	"strconv"
	"testing"
	"unsafe"

	"albatross/internal/packet"
	"albatross/internal/sim"
)

// refSessionBackend is Backend over a Go map from key to pinned pod: the
// oracle the insert-only slot table must agree with, pinning for pinning.
// It uses the caller's hash only to assign pods.
type refSessionBackend struct {
	m     map[packet.FiveTuple]int32
	pool  []int
	live  podSet
	stats BackendStats
}

func newRefSessionBackend(pool []int) *refSessionBackend {
	b := &refSessionBackend{m: map[packet.FiveTuple]int32{}}
	b.setPool(pool)
	return b
}

func (b *refSessionBackend) setPool(pool []int) {
	b.pool = append(b.pool[:0], pool...)
	b.live.set(b.pool)
}

func (b *refSessionBackend) Lookup(key packet.FiveTuple) (int, bool) {
	b.stats.Lookups++
	pod, ok := b.m[key]
	if !ok {
		return -1, false
	}
	b.stats.Hits++
	return int(pod), true
}

func (b *refSessionBackend) Insert(key packet.FiveTuple, h uint32) int {
	pod := AssignPod(b.pool, h)
	if pod < 0 {
		return -1
	}
	b.m[key] = int32(pod)
	b.stats.Inserts++
	return pod
}

// Update is Backend.Update; hashOf is the program's hash function.
func (b *refSessionBackend) Update(pool []int, hashOf func(packet.FiveTuple) uint32) int {
	b.setPool(pool)
	moved := 0
	for k, pod := range b.m {
		switch {
		case len(b.pool) == 0:
			delete(b.m, k)
			moved++
		case !b.live.has(int(pod)):
			b.m[k] = int32(AssignPod(b.pool, hashOf(k)))
			moved++
		}
	}
	b.stats.Moved += uint64(moved)
	return moved
}

// sessionProgramKeys caps the live sessions of one program, per hash
// function of indexHashes: the real hash reaches 8192 slots and 96 pages,
// the colliding ones (whose chains make every probe linear) 1024 slots and
// 8 pages.
var sessionProgramKeys = [len(indexHashes)]int{6144, 512, 512, 512}

// Session program ops, one (op, arg) byte pair each; op is taken mod 5.
const (
	sessCreate = iota // Insert universe key arg (re-pinning a live one)
	sessLookup        // Lookup universe key arg
	sessBulk          // Insert (arg+1)×8 fresh keys, up to the key cap
	sessSelect        // Lookup, else Insert, universe key arg
	sessUpdate        // Update to the pods in bitmask arg (0: empty the pool)
)

// sessionRun is what a program passed through, for the seed checks.
type sessionRun struct {
	slotSizes []int
	pages     int
	moves     int // pinnings re-assigned by updates to a non-empty pool
	resets    int // updates to an empty pool that dropped pinnings
	refilled  int // the most sessions held after the first such update
}

// runSessionProgram drives a Backend and a refSessionBackend through one
// program: a hash-function byte, then (op, arg) pairs over a pool that
// starts at pods 0-7. It fails on the first operation whose pod, ok, Len
// or Stats differ; after every update, whenever the slot array doubles and
// at the end it compares the pinnings and checks the slot invariants.
func runSessionProgram(t *testing.T, data []byte) sessionRun {
	var run sessionRun
	if len(data) < 1 {
		return run
	}
	hashFn := indexHashes[int(data[0])%len(indexHashes)]
	maxKeys := sessionProgramKeys[int(data[0])%len(indexHashes)]
	pool := []int{0, 1, 2, 3, 4, 5, 6, 7}
	b, err := NewBackend("session", pool, BackendConfig{Space: NewAddrSpace()})
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefSessionBackend(pool)
	x := b.st
	// held is every record insert returned for a live key: records must
	// never move.
	held := map[packet.FiveTuple]*session{}
	run.slotSizes = []int{len(x.slots)}
	reset := false
	next := 256 // fresh keys start past the universe
	universe := func(arg byte) packet.FiveTuple { return tuple(int(arg)) }

	same := func(op int, what string, k packet.FiveTuple, got, want int) {
		t.Helper()
		if got != want || b.Stats() != ref.stats || x.Len() != len(ref.m) {
			t.Fatalf("op %d: %s(%v) = %d (%+v, Len %d), reference %d (%+v, Len %d)",
				op, what, k, got, b.Stats(), x.Len(), want, ref.stats, len(ref.m))
		}
		if len(x.slots) != run.slotSizes[len(run.slotSizes)-1] {
			run.slotSizes = append(run.slotSizes, len(x.slots))
			compareSessions(t, op, x, ref, held, hashFn)
		}
		run.pages = max(run.pages, len(x.pages))
		if reset {
			run.refilled = max(run.refilled, x.Len())
		}
	}
	hold := func(op int, k packet.FiveTuple, h uint32) {
		s := x.lookup(k, h)
		if s == nil {
			return
		}
		if prev, ok := held[k]; ok && prev != s {
			t.Fatalf("op %d: %v's record moved", op, k)
		}
		held[k] = s
	}
	insert := func(op int, k packet.FiveTuple) {
		h := hashFn(k)
		got, want := b.Insert(k, h), ref.Insert(k, h)
		hold(op, k, h)
		same(op, "Insert", k, got, want)
	}
	ops := data[1:]
	for p := 0; p+1 < len(ops); p += 2 {
		op, arg := p/2, ops[p+1]
		switch ops[p] % 5 {
		case sessCreate:
			if x.Len() < maxKeys {
				insert(op, universe(arg))
			}
		case sessLookup:
			k := universe(arg)
			got, ok := b.Lookup(k, hashFn(k))
			want, wok := ref.Lookup(k)
			if ok != wok {
				t.Fatalf("op %d: Lookup(%v) ok = %v, reference %v", op, k, ok, wok)
			}
			same(op, "Lookup", k, got, want)
		case sessBulk:
			for n := (int(arg) + 1) * 8; n > 0 && x.Len() < maxKeys; n-- {
				insert(op, tuple(next))
				next++
			}
		case sessSelect:
			k := universe(arg)
			h := hashFn(k)
			got, ok := b.Lookup(k, h)
			if !ok {
				got = b.Insert(k, h)
			}
			want, ok := ref.Lookup(k)
			if !ok {
				want = ref.Insert(k, h)
			}
			hold(op, k, h)
			same(op, "Select", k, got, want)
		case sessUpdate:
			var np []int
			for pod := range 8 {
				if arg&(1<<pod) != 0 {
					np = append(np, pod)
				}
			}
			moved := b.Update(np)
			same(op, "Update", packet.FiveTuple{}, moved, ref.Update(np, hashFn))
			if len(np) == 0 {
				clear(held)
				if moved > 0 {
					run.resets++
					reset = true
				}
			} else {
				run.moves += moved
			}
			compareSessions(t, op, x, ref, held, hashFn)
		}
	}
	compareSessions(t, len(ops)/2, x, ref, held, hashFn)
	return run
}

// compareSessions fails unless x holds ref's pinnings: ordinals 0 .. Len-1
// hold one record per pinned key, with ref's pod, the key's hash, and the
// address insert returned for it; every record has exactly one slot,
// holding its hash and reachable from its home slot without crossing an
// empty one.
func compareSessions(t *testing.T, op int, x *sessionTable, ref *refSessionBackend, held map[packet.FiveTuple]*session, hashFn func(packet.FiveTuple) uint32) {
	t.Helper()
	if x.Len() != len(ref.m) {
		t.Fatalf("op %d: Len %d, reference %d", op, x.Len(), len(ref.m))
	}
	// held[key] is one record, so no two ordinals pass with the same key.
	for o := range uint32(x.Len()) {
		s := x.record(o)
		pod, ok := ref.m[s.key]
		if !ok || s.pod != pod || s.hash != hashFn(s.key) || held[s.key] != s {
			t.Fatalf("op %d: ordinal %d holds %+v; reference pod %d (pinned %v)", op, o, s, pod, ok)
		}
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
		if sl.ordp > x.n || x.record(sl.ordp-1).hash != sl.hash {
			t.Fatalf("op %d: slot %d = %+v points past the %d sessions or at another hash", op, i, sl, x.n)
		}
		if (i-sl.hash)&x.mask >= run {
			t.Fatalf("op %d: slot %d (home %d) is cut off by an empty slot", op, i, sl.hash&x.mask)
		}
	}
	if full != x.Len() {
		t.Fatalf("op %d: %d full slots, Len %d", op, full, x.Len())
	}
}

// sessionSeeds are FuzzSessionMatchesReference's seeds, two per hash
// function. The first bulk-inserts to the key cap — every slot doubling and
// page boundary — interleaving lookups, selects and pool updates that drop
// and restore a pod, then empties the pool and refills the table to the
// cap on the pages the reset kept. The second cycles a table of a few pages
// through pod losses, an empty pool and a refill, eight times.
func sessionSeeds() [][]byte {
	universe := []byte{
		sessCreate, 3, sessCreate, 9, sessLookup, 3, sessLookup, 9, sessSelect, 3, sessSelect, 40,
		sessLookup, 200, sessCreate, 3,
	}
	var seeds [][]byte
	for hash := range byte(len(indexHashes)) {
		keys := sessionProgramKeys[hash]
		grow := append([]byte{hash}, universe...)
		for range keys / 256 {
			grow = append(grow, sessBulk, 31, sessLookup, 3, sessSelect, 7, sessUpdate, 0xf7, sessSelect, 3,
				sessUpdate, 0xff)
		}
		grow = append(grow, sessUpdate, 0x3c, sessSelect, 5, sessUpdate, 0, sessLookup, 3, sessBulk, 0,
			sessSelect, 3, sessUpdate, 0xff)
		grow = append(grow, universe...)
		for range keys / 256 {
			grow = append(grow, sessBulk, 31, sessLookup, 5)
		}
		grow = append(grow, sessUpdate, 0x81)

		churn := []byte{hash}
		for c := range byte(8) {
			churn = append(churn, sessBulk, 15+c, sessSelect, c, sessUpdate, 0xff^(1<<c), sessLookup, c,
				sessCreate, 100+c, sessUpdate, 0x55, sessSelect, 200, sessUpdate, 0, sessSelect, c,
				sessUpdate, 0xff)
			churn = append(churn, universe...)
		}
		seeds = append(seeds, grow, churn)
	}
	return seeds
}

// TestSessionMatchesReference runs the seeds and random programs under
// every hash function, and requires the seeds, per hash function, to hold
// every slot-array size and page up to the key cap, to move pinnings off a
// dropped pod, and to empty the pool and refill the table to the cap.
func TestSessionMatchesReference(t *testing.T) {
	type cover struct {
		sizes                   map[int]bool
		pages                   int
		moves, resets, refilled int
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
		c.moves += run.moves
		c.resets += run.resets
		c.refilled = max(c.refilled, run.refilled)
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
		if c.moves == 0 || c.resets == 0 || c.refilled < keys {
			t.Errorf("hash function %d: seeds move %d pinnings, empty the pool %d times and refill to %d sessions, want >0, >0 and %d",
				hash, c.moves, c.resets, c.refilled, keys)
		}
	}
	r := sim.NewRand(41)
	for n := range 64 {
		prog := make([]byte, 1+2*(50+r.Intn(400)))
		for i := range prog {
			prog[i] = byte(r.Intn(256))
		}
		prog[0] = byte(n)
		runSessionProgram(t, prog)
	}
}

// FuzzSessionMatchesReference holds Backend's session table to
// refSessionBackend operation by operation (see runSessionProgram).
func FuzzSessionMatchesReference(f *testing.F) {
	for _, seed := range sessionSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) { runSessionProgram(t, data) })
}

// TestSessionBytesPerSession bounds the host footprint of 100 000 sessions
// at 48 bytes each, measured as the live heap the table adds (the
// allocator's size classes included): about 45, against 99 for a Go map of
// 64-byte records. Records must stay at most 24 bytes.
func TestSessionBytesPerSession(t *testing.T) {
	const sessions, bound = 100_000, 48.0
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	st := newSessionTable()
	for i := range sessions {
		k := tuple(i)
		st.insert(k, k.Hash(), 0)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perSession := float64(after.HeapAlloc-before.HeapAlloc) / sessions
	t.Logf("%d slots, %d pages of %d-byte records: %.1f B per session",
		len(st.slots), len(st.pages), unsafe.Sizeof(session{}), perSession)
	if unsafe.Sizeof(session{}) > 24 || perSession > bound {
		t.Errorf("%d-byte records, %.1f B per session; bounds 24 and %.0f", unsafe.Sizeof(session{}), perSession, bound)
	}
	runtime.KeepAlive(st)
}

// BenchmarkSessionLookup times lookup over 1<<16 sessions drawn at random
// (a hit), keys never inserted (a miss), and insert of fresh keys (the
// table is rebuilt at its size, off the clock, before every 1<<16 inserts), at
// 10 k and 200 k sessions. Hashes are computed before the timer starts.
func BenchmarkSessionLookup(b *testing.B) {
	const sample = 1 << 16
	for _, n := range []int{10_000, 200_000} {
		fill := func() *sessionTable {
			st := newSessionTable()
			for i := range n {
				k := tuple(i)
				st.insert(k, k.Hash(), 0)
			}
			return st
		}
		st := fill()
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
		freshKeys, freshHashes := make([]packet.FiveTuple, sample), make([]uint32, sample)
		for j := range freshKeys {
			freshKeys[j] = tuple(n + j)
			freshHashes[j] = freshKeys[j].Hash()
		}
		for _, bc := range []struct {
			name   string
			keys   []packet.FiveTuple
			hashes []uint32
			op     func(packet.FiveTuple, uint32) bool
		}{
			{"hit", hitKeys, hitHashes, func(k packet.FiveTuple, h uint32) bool { return st.lookup(k, h) != nil }},
			{"miss", missKeys, missHashes, func(k packet.FiveTuple, h uint32) bool { return st.lookup(k, h) == nil }},
			{"insert", freshKeys, freshHashes, func(k packet.FiveTuple, h uint32) bool { return st.insert(k, h, 0).key == k }},
		} {
			b.Run(bc.name+"-"+strconv.Itoa(n/1000)+"k", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					j := i & (sample - 1)
					if j == 0 && bc.name == "insert" {
						b.StopTimer()
						st = fill()
						b.StartTimer()
					}
					if !bc.op(bc.keys[j], bc.hashes[j]) {
						b.Fatalf("%s %d failed", bc.name, j)
					}
				}
			})
		}
	}
}
