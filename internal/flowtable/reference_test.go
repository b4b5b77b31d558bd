package flowtable

import (
	"strconv"
	"testing"
	"unsafe"

	"albatross/internal/packet"
	"albatross/internal/sim"
)

// refIndex is the Index that 8-byte (hash, ordinal+1) slots over a dense key
// array replaced: 32-byte slots carrying the key, its hash, a full flag and
// the ordinal inline, with the same size and growth rule. It is the oracle
// the compact layout must agree with, slot for slot.
type refIndex struct {
	slots []refSlot
	mask  uint32
	count int
}

type refSlot struct {
	key  packet.FiveTuple
	hash uint32
	full bool
	ord  uint64
}

func newRefIndex(capacity int) *refIndex {
	size := indexMinSlots
	for capacity*4 >= size*3 {
		size *= 2
	}
	return &refIndex{slots: make([]refSlot, size), mask: uint32(size - 1)}
}

func (x *refIndex) Len() int { return x.count }

func (x *refIndex) InsertHash(key packet.FiveTuple, h uint32) (ord uint64, fresh bool) {
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

func (x *refIndex) LookupHash(key packet.FiveTuple, h uint32) (ord uint64, ok bool) {
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

func (x *refIndex) grow() {
	size := len(x.slots) * 2
	old := x.slots
	x.slots = make([]refSlot, size)
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

// indexHashes are the hash functions an index program runs under: the real
// one, then three that force collisions — every key's probe chain starting
// at slot 0 (distinct hashes, one head), five hash values shared by all
// keys, and one hash for every key. A program uses one function throughout,
// as callers of InsertHash/LookupHash do.
var indexHashes = [...]func(packet.FiveTuple) uint32{
	packet.FiveTuple.Hash,
	func(k packet.FiveTuple) uint32 { return k.Hash() & 0xffff0000 },
	func(k packet.FiveTuple) uint32 { return k.Hash() % 5 },
	func(packet.FiveTuple) uint32 { return 0x9e3779b9 },
}

// indexProgramKeys caps the keys one program inserts, per hash function: the
// real hash reaches 8192 slots, the colliding ones (whose chains make every
// probe quadratic) 2048.
var indexProgramKeys = [len(indexHashes)]int{6144, 1536, 1536, 1536}

// Program ops, one (op, arg) byte pair each; op is taken mod 4.
const (
	opInsert = iota // Insert universe key arg: repeats are likely
	opLookup        // LookupHash universe key arg: may be unknown yet
	opBulk          // insert (arg+1)×8 fresh keys, up to the program's cap
	opMiss          // LookupHash a key no program ever inserts
)

// runIndexProgram drives an Index and a refIndex through one program — a
// hash-function byte, a pre-size byte, then (op, arg) pairs — and
// fails on the first operation whose ordinal, freshness, hit/miss or Len
// differ. Whenever the slot array has grown, and at the end, it compares the
// two slot for slot. It returns the slot-array sizes the program passed
// through.
func runIndexProgram(t *testing.T, data []byte) []int {
	if len(data) < 2 {
		return nil
	}
	hashFn := indexHashes[int(data[0])%len(indexHashes)]
	maxKeys := indexProgramKeys[int(data[0])%len(indexHashes)]
	capacity := 0
	if data[1] != 0 {
		capacity = int(data[1]) * 24
	}
	x, ref := NewIndex(capacity), newRefIndex(capacity)
	sizes := []int{len(x.slots)}
	universe := func(arg byte) packet.FiveTuple { return tuple(int(arg)) }
	next := 256 // bulk keys start past the universe
	insert := func(op int, k packet.FiveTuple) {
		h := hashFn(k)
		ord, fresh := x.InsertHash(k, h)
		wantOrd, wantFresh := ref.InsertHash(k, h)
		if ord != wantOrd || fresh != wantFresh || x.Len() != ref.Len() {
			t.Fatalf("op %d: InsertHash(%v) = %d/%v (Len %d), reference %d/%v (Len %d)",
				op, k, ord, fresh, x.Len(), wantOrd, wantFresh, ref.Len())
		}
		if len(x.slots) != sizes[len(sizes)-1] {
			sizes = append(sizes, len(x.slots))
			compareIndexSlots(t, op, x, ref)
		}
	}
	lookup := func(op int, k packet.FiveTuple) {
		h := hashFn(k)
		ord, ok := x.LookupHash(k, h)
		wantOrd, wantOK := ref.LookupHash(k, h)
		if ord != wantOrd || ok != wantOK {
			t.Fatalf("op %d: LookupHash(%v) = %d/%v, reference %d/%v", op, k, ord, ok, wantOrd, wantOK)
		}
	}
	ops := data[2:]
	for p := 0; p+1 < len(ops); p += 2 {
		op, arg := p/2, ops[p+1]
		switch ops[p] % 4 {
		case opInsert:
			if x.Len() < maxKeys {
				insert(op, universe(arg))
			}
		case opLookup:
			lookup(op, universe(arg))
		case opBulk:
			for n := (int(arg) + 1) * 8; n > 0 && x.Len() < maxKeys; n-- {
				insert(op, tuple(next))
				next++
			}
		case opMiss:
			lookup(op, tuple(1<<22+int(arg)))
		}
	}
	compareIndexSlots(t, len(ops)/2, x, ref)
	return sizes
}

// compareIndexSlots fails unless x's slot array is ref's with each key moved
// to the dense array: the same size, the same empty slots, and in each full
// slot the same hash, ordinal+1 for the ordinal, and that ordinal's key.
func compareIndexSlots(t *testing.T, op int, x *Index, ref *refIndex) {
	t.Helper()
	if len(x.slots) != len(ref.slots) || x.mask != ref.mask || len(x.keys) != ref.count {
		t.Fatalf("op %d: %d slots (mask %#x), %d keys; reference %d slots (mask %#x), %d keys",
			op, len(x.slots), x.mask, len(x.keys), len(ref.slots), ref.mask, ref.count)
	}
	for i, r := range ref.slots {
		s := x.slots[i]
		if !r.full {
			if s != (indexSlot{}) {
				t.Fatalf("op %d: slot %d = %+v, reference empty", op, i, s)
			}
			continue
		}
		if s.hash != r.hash || uint64(s.ordp) != r.ord+1 || x.keys[r.ord] != r.key {
			t.Fatalf("op %d: slot %d = %+v (key %v), reference hash %#x ordinal %d key %v",
				op, i, s, x.keys[s.ordp-1], r.hash, r.ord, r.key)
		}
	}
}

// indexSeeds are FuzzIndexMatchesReference's seeds besides the committed
// files: a bulk program to 6144 keys under the real hash crosses every
// doubling from 16 to 8192 slots, and one to 1536 keys under each colliding
// hash every doubling to 2048, both with repeated, unknown and never-inserted
// keys looked up between the bulks.
func indexSeeds() [][]byte {
	mixed := func(hash, presize byte, bulk byte, bulks int) []byte {
		prog := []byte{hash, presize, opInsert, 3, opInsert, 3, opLookup, 3, opLookup, 200, opMiss, 1}
		for range bulks {
			prog = append(prog, opBulk, bulk, opInsert, 7, opLookup, 7, opInsert, 3, opLookup, 9, opMiss, 2)
		}
		return prog
	}
	var seeds [][]byte
	for hash := range byte(len(indexHashes)) {
		keys := indexProgramKeys[hash]
		seeds = append(seeds, mixed(hash, 0, 63, keys/512+1), mixed(hash, 40, 255, keys/2048+1))
	}
	return seeds
}

// TestIndexMatchesReference runs the seeds and random programs under every
// hash function and pre-size, and requires the seeds to have crossed every
// doubling of the slot array up to each hash function's key cap.
func TestIndexMatchesReference(t *testing.T) {
	crossed := make([]map[int]bool, len(indexHashes))
	for i := range crossed {
		crossed[i] = map[int]bool{}
	}
	for _, prog := range indexSeeds() {
		for _, size := range runIndexProgram(t, prog) {
			crossed[int(prog[0])%len(indexHashes)][size] = true
		}
	}
	for hash, keys := range indexProgramKeys {
		for size := indexMinSlots; size <= len(NewIndex(keys-1).slots); size *= 2 {
			if !crossed[hash][size] {
				t.Errorf("hash function %d: no seed holds a %d-slot array", hash, size)
			}
		}
	}
	r := sim.NewRand(40)
	for n := range 64 {
		prog := make([]byte, 2+2*(50+r.Intn(400)))
		for i := range prog {
			prog[i] = byte(r.Intn(256))
		}
		prog[0] = byte(n)
		runIndexProgram(t, prog)
	}
}

// FuzzIndexMatchesReference holds the compact Index to refIndex operation by
// operation and slot by slot (see runIndexProgram). The committed files under
// testdata/fuzz add programs that pre-size the index, mix every op on a tiny
// table and repeat one key.
func FuzzIndexMatchesReference(f *testing.F) {
	for _, seed := range indexSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) { runIndexProgram(t, data) })
}

// TestIndexBytesPerKey bounds the host footprint of a 200 000-key index,
// slot array plus key array: 35 bytes per key now, 84 with 32-byte slots
// holding the key inline. It holds for a pre-sized index, as BuildTables
// makes, and for one grown from empty.
func TestIndexBytesPerKey(t *testing.T) {
	const keys, bound = 200_000, 40.0
	for _, capacity := range []int{keys, 0} {
		x := NewIndex(capacity)
		for i := range keys {
			x.Insert(tuple(i))
		}
		bytes := uintptr(cap(x.slots))*unsafe.Sizeof(indexSlot{}) +
			uintptr(cap(x.keys))*unsafe.Sizeof(packet.FiveTuple{})
		perKey := float64(bytes) / keys
		t.Logf("capacity %d: %d slots, %d key cells: %.1f B per key", capacity, cap(x.slots), cap(x.keys), perKey)
		if perKey > bound {
			t.Errorf("capacity %d: %.1f B per key, bound %.0f", capacity, perKey, bound)
		}
	}
}

// BenchmarkIndexLookup times LookupHash over 1<<16 keys drawn at random (a
// hit), keys never inserted (a miss), and hits in an index where every hash
// value is shared by four keys (a colliding chain: up to four key compares),
// at 10 k, 200 k and 750 k keys. Hashes are computed before the timer starts.
func BenchmarkIndexLookup(b *testing.B) {
	const sample = 1 << 16
	for _, n := range []int{10_000, 200_000, 750_000} {
		plain, colliding := NewIndex(n), NewIndex(n)
		for i := range n {
			k := tuple(i)
			plain.InsertHash(k, k.Hash())
			colliding.InsertHash(k, tuple(i/4).Hash())
		}
		r := sim.NewRand(uint64(n))
		draw := func(hashOf func(int) uint32, key func(int) packet.FiveTuple) ([]packet.FiveTuple, []uint32) {
			keys, hashes := make([]packet.FiveTuple, sample), make([]uint32, sample)
			for j := range keys {
				i := r.Intn(n)
				keys[j], hashes[j] = key(i), hashOf(i)
			}
			return keys, hashes
		}
		hitKeys, hitHashes := draw(func(i int) uint32 { return tuple(i).Hash() }, tuple)
		missKeys, missHashes := draw(func(i int) uint32 { return tuple(n + i).Hash() },
			func(i int) packet.FiveTuple { return tuple(n + i) })
		chainKeys, chainHashes := draw(func(i int) uint32 { return tuple(i / 4).Hash() }, tuple)
		for _, bc := range []struct {
			name   string
			x      *Index
			keys   []packet.FiveTuple
			hashes []uint32
			hit    bool
		}{
			{"hit", plain, hitKeys, hitHashes, true},
			{"miss", plain, missKeys, missHashes, false},
			{"collide", colliding, chainKeys, chainHashes, true},
		} {
			b.Run(bc.name+"-"+strconv.Itoa(n/1000)+"k", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					j := i & (sample - 1)
					if _, ok := bc.x.LookupHash(bc.keys[j], bc.hashes[j]); ok != bc.hit {
						b.Fatalf("lookup %d: found %v, want %v", j, ok, bc.hit)
					}
				}
			})
		}
	}
}
