package lpm

import (
	"fmt"
	"testing"
	"testing/quick"

	"albatross/internal/sim"
)

// referenceLPM is a brute-force oracle: a linear scan over all routes for
// lookups, and the node set the routes imply for the trie's bookkeeping.
type referenceLPM struct {
	routes map[[2]uint32]uint32 // [prefix, plen] -> val
	order  [][2]uint32          // distinct routes in first-insert order
}

func newReferenceLPM() *referenceLPM {
	return &referenceLPM{routes: map[[2]uint32]uint32{}}
}

func (r *referenceLPM) insert(prefix uint32, plen int, val uint32) {
	k := [2]uint32{prefix, uint32(plen)}
	if _, ok := r.routes[k]; !ok {
		r.order = append(r.order, k)
	}
	r.routes[k] = val
}

func (r *referenceLPM) lookup(addr uint32) (uint32, bool) {
	bestLen := -1
	var bestVal uint32
	for k, v := range r.routes {
		p, l := k[0], int(k[1])
		if addr&Mask(l) == p && l > bestLen {
			bestLen = l
			bestVal = v
		}
	}
	return bestVal, bestLen >= 0
}

// refNode is what the reference knows of one trie node.
type refNode struct {
	routes   int // routes ending in the node
	children bool
}

// nodes returns the trie nodes the routes imply, keyed by (level, the
// prefix's first 8·level bits): the root, plus every 8-bit-aligned prefix of
// a route shorter than the route itself. A route ends in its deepest node.
func (r *referenceLPM) nodes() map[[2]uint32]*refNode {
	key := func(prefix uint32, level int) [2]uint32 {
		return [2]uint32{uint32(level), uint32(uint64(prefix) >> (32 - stride*level))}
	}
	nodes := map[[2]uint32]*refNode{key(0, 0): {}}
	for k := range r.routes {
		prefix, plen := k[0], int(k[1])
		last := 0
		if plen > 0 {
			last = (plen - 1) / stride
		}
		for level := 1; level <= last; level++ {
			if nodes[key(prefix, level)] == nil {
				nodes[key(prefix, level)] = &refNode{}
			}
			nodes[key(prefix, level-1)].children = true
		}
		nodes[key(prefix, last)].routes++
	}
	return nodes
}

func (r *referenceLPM) memoryBytes() int64 {
	var size int64
	for _, n := range r.nodes() {
		size += slotCount*4 + slotCount + 48 + int64(n.routes)*16
		if n.children {
			size += slotCount * 8
		}
	}
	return size
}

// matchReference compares tbl with ref: Len, NodeCount and MemoryBytes, then
// Lookup at each probe and at every route's first and last address.
func matchReference(tbl *Table, ref *referenceLPM, probes []uint32) error {
	if got, want := tbl.Len(), len(ref.routes); got != want {
		return fmt.Errorf("Len = %d, reference %d", got, want)
	}
	if got, want := tbl.NodeCount(), len(ref.nodes()); got != want {
		return fmt.Errorf("NodeCount = %d, reference %d", got, want)
	}
	if got, want := tbl.MemoryBytes(), ref.memoryBytes(); got != want {
		return fmt.Errorf("MemoryBytes = %d, reference %d", got, want)
	}
	addrs := append([]uint32(nil), probes...)
	for _, k := range ref.order {
		addrs = append(addrs, k[0], k[0]|^Mask(int(k[1])))
	}
	for _, addr := range addrs {
		gv, gok := tbl.Lookup(addr)
		wv, wok := ref.lookup(addr)
		if gok != wok || (gok && gv != wv) {
			return fmt.Errorf("Lookup(%08x) = %d, %v; reference %d, %v", addr, gv, gok, wv, wok)
		}
	}
	return nil
}

func TestAgainstReferenceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := sim.NewRand(seed)
		tbl := New()
		ref := newReferenceLPM()
		// Random inserts; a quarter re-insert an existing route with a new
		// value.
		for op := 0; op < 300; op++ {
			plen := r.Intn(33)
			prefix := Canonical(r.Uint32(), plen)
			if len(ref.order) > 0 && r.Float64() < 0.25 {
				k := ref.order[r.Intn(len(ref.order))]
				prefix, plen = k[0], int(k[1])
			}
			val := r.Uint32() % 1000000
			if err := tbl.Insert(prefix, plen, val); err != nil {
				return false
			}
			ref.insert(prefix, plen, val)
		}
		probes := make([]uint32, 300)
		for i := range probes {
			probes[i] = r.Uint32()
		}
		if err := matchReference(tbl, ref, probes); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// FuzzTrieMatchesReference decodes ops into inserts and holds the trie to
// referenceLPM. Each op is four bytes, k a b v. With k's top bit set (and a
// route installed) it re-inserts installed route number a<<8|b, modulo the
// count, with value k&0x7f<<8|v; otherwise it inserts route
// a.b.b.a/(k mod 33), masked to its length, with value v. Mirrored address
// bytes give the routes shared nodes at every level.
func FuzzTrieMatchesReference(f *testing.F) {
	f.Add([]byte("\x08\x0a\x00\x01\x10\x0a\x01\x02\x18\x0a\x01\x03\x20\x0a\x01\x04"))
	f.Add([]byte("\x16\xc0\xa8\x01\x17\xc0\xa8\x02\x1e\xc0\xa8\x03\x80\x00\x01\x09"))
	f.Fuzz(func(t *testing.T, ops []byte) {
		tbl := New()
		ref := newReferenceLPM()
		for ; len(ops) >= 4; ops = ops[4:] {
			k, a, b, v := ops[0], uint32(ops[1]), uint32(ops[2]), uint32(ops[3])
			var prefix, val uint32
			var plen int
			if k&0x80 != 0 && len(ref.order) > 0 {
				route := ref.order[int(a<<8|b)%len(ref.order)]
				prefix, plen, val = route[0], int(route[1]), uint32(k&0x7f)<<8|v
			} else {
				plen = int(k) % 33
				prefix, val = Canonical(a<<24|b<<16|b<<8|a, plen), v
			}
			if err := tbl.Insert(prefix, plen, val); err != nil {
				t.Fatalf("Insert(%08x/%d, %d): %v", prefix, plen, val, err)
			}
			ref.insert(prefix, plen, val)
		}
		// Random addresses, and one random host inside every route.
		r := sim.NewRand(uint64(len(ref.order)))
		probes := make([]uint32, 64, 64+len(ref.order))
		for i := range probes {
			probes[i] = r.Uint32()
		}
		for _, k := range ref.order {
			probes = append(probes, k[0]|r.Uint32()&^Mask(int(k[1])))
		}
		if err := matchReference(tbl, ref, probes); err != nil {
			t.Fatal(err)
		}
	})
}
