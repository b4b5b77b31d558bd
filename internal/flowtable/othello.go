package flowtable

import (
	"math/bits"

	"albatross/internal/packet"
)

// Othello is a Concury-style minimal perfect hashing classifier (an "Othello
// map"): two arrays a and b of 16-bit values, two seeded hash functions, and
// the invariant value(key) = a[ha(key)] XOR b[hb(key)] for every key the
// control plane has inserted.
//
// The data-plane lookup (Get) is stateless and O(1): two independent array
// reads and one XOR, no per-flow record, no locks. All mutability lives on
// the control plane: keys form edges of a bipartite graph between the a- and
// b-vertices, the control plane keeps that graph acyclic, and setting a
// key's value flips one side of its tree component by the XOR delta — which
// preserves every other key's value exactly. That is the zero-disruption
// update property Concury claims for LB pool changes: flows not assigned to
// a removed pod keep their mapping bit-for-bit.
//
// When an insert would close a cycle (or a seed hashes two keys onto the
// same edge), the structure rebuilds with a fresh seed, growing the arrays
// as needed. Rebuilds re-insert keys in their original insertion order, so
// the structure is deterministic for a given seed and operation sequence.
//
// Not safe for concurrent use.
type Othello struct {
	seed   uint64
	ma, mb uint32 // power-of-two array sizes
	a, b   []uint16

	vals  map[packet.FiveTuple]uint16 // control-plane membership + values
	order []packet.FiveTuple          // insertion order (may hold removed keys)

	// Union-find over vertices (a-side [0,ma), b-side [ma,ma+mb)) tracks
	// acyclicity. Removals do not split components, so connectivity is
	// conservative: a stale union can only force a spurious rebuild, never
	// admit a cycle.
	parent []int32
	size   []int32

	adj     map[uint32][]packet.FiveTuple // vertex -> incident keys
	queue   []uint32                      // BFS scratch
	visited map[uint32]struct{}           // BFS scratch

	// Rebuilds counts full reseed-and-reinsert passes.
	Rebuilds uint64
}

// NewOthello creates an Othello map seeded deterministically. sizeHint
// pre-sizes the arrays for about that many keys (0 for the minimum).
func NewOthello(seed uint64, sizeHint int) *Othello {
	o := &Othello{
		seed:    splitmix64(seed),
		vals:    make(map[packet.FiveTuple]uint16),
		adj:     make(map[uint32][]packet.FiveTuple),
		visited: make(map[uint32]struct{}),
	}
	o.resize(sizeHint, 0)
	return o
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// tupleWords packs the 13-byte canonical five-tuple into two words so the
// seeded hash covers every bit (the unseeded FiveTuple.Hash is only 32 bits
// wide — two colliding keys there would collide under every reseed).
func tupleWords(k packet.FiveTuple) (uint64, uint64) {
	w0 := uint64(k.Src[0])<<56 | uint64(k.Src[1])<<48 | uint64(k.Src[2])<<40 | uint64(k.Src[3])<<32 |
		uint64(k.Dst[0])<<24 | uint64(k.Dst[1])<<16 | uint64(k.Dst[2])<<8 | uint64(k.Dst[3])
	w1 := uint64(k.Proto)<<32 | uint64(k.SPort)<<16 | uint64(k.DPort)
	return w0, w1
}

func (o *Othello) hashKey(k packet.FiveTuple) uint64 {
	w0, w1 := tupleWords(k)
	return splitmix64(splitmix64(w0^o.seed) ^ w1)
}

// vertices returns the key's endpoints as union-find vertex ids: the a-index
// and ma+b-index.
func (o *Othello) vertices(k packet.FiveTuple) (uint32, uint32) {
	h := o.hashKey(k)
	return uint32(h) & (o.ma - 1), o.ma + (uint32(h>>32) & (o.mb - 1))
}

// Get returns the data-plane value for key: two array reads and an XOR.
// It is defined for every key; for keys never inserted it returns whatever
// the arrays hold (the caller decides membership, as real Othello LBs do
// with a separate filter or by accepting any in-pool value).
func (o *Othello) Get(k packet.FiveTuple) uint16 {
	h := o.hashKey(k)
	return o.a[uint32(h)&(o.ma-1)] ^ o.b[uint32(h>>32)&(o.mb-1)]
}

// Slots returns the two array indices the data-plane lookup for key touches
// (for memory-model accounting in experiments).
func (o *Othello) Slots(k packet.FiveTuple) (uint32, uint32) {
	h := o.hashKey(k)
	return uint32(h) & (o.ma - 1), uint32(h>>32) & (o.mb - 1)
}

// Contains reports control-plane membership.
func (o *Othello) Contains(k packet.FiveTuple) bool {
	_, ok := o.vals[k]
	return ok
}

// ValueOf returns the control-plane value for key and whether it is a member.
func (o *Othello) ValueOf(k packet.FiveTuple) (uint16, bool) {
	v, ok := o.vals[k]
	return v, ok
}

// Len returns the number of member keys.
func (o *Othello) Len() int { return len(o.vals) }

// ArrayBytes returns the modelled data-plane footprint: 2 bytes per slot in
// each array. This is what makes the stateless backend cache-resident where
// 128-byte session entries are not.
func (o *Othello) ArrayBytes() int64 { return int64(o.ma+o.mb) * 2 }

// Keys returns the live keys in insertion order.
func (o *Othello) Keys() []packet.FiveTuple {
	out := make([]packet.FiveTuple, 0, len(o.vals))
	seen := make(map[packet.FiveTuple]struct{}, len(o.vals))
	for _, k := range o.order {
		if _, dup := seen[k]; dup {
			continue
		}
		if _, live := o.vals[k]; live {
			seen[k] = struct{}{}
			out = append(out, k)
		}
	}
	return out
}

// Put inserts key with the given value, or updates it in place. Existing
// keys keep their data-plane values untouched unless this key's own value
// changes (and then only this key's tree side flips).
func (o *Othello) Put(k packet.FiveTuple, val uint16) {
	if old, ok := o.vals[k]; ok {
		if old != val {
			o.updateVal(k, old, val)
		}
		return
	}
	if !o.tryInsert(k, val) {
		o.vals[k] = val
		o.order = append(o.order, k)
		o.rebuild()
		return
	}
	o.vals[k] = val
	o.order = append(o.order, k)
}

// Remove deletes key from the control plane, reporting whether it existed.
// The arrays are left as-is (a stateless lookup for a removed key returns a
// stale value until membership is consulted); connectivity bookkeeping stays
// conservative until the next rebuild.
func (o *Othello) Remove(k packet.FiveTuple) bool {
	if _, ok := o.vals[k]; !ok {
		return false
	}
	delete(o.vals, k)
	u, v := o.vertices(k)
	o.adj[u] = dropKey(o.adj[u], k)
	o.adj[v] = dropKey(o.adj[v], k)
	o.order = dropKey(o.order, k)
	return true
}

func dropKey(s []packet.FiveTuple, k packet.FiveTuple) []packet.FiveTuple {
	for i := range s {
		if s[i] == k {
			copy(s[i:], s[i+1:])
			return s[:len(s)-1]
		}
	}
	return s
}

// Reset drops all keys and reinitializes the arrays.
func (o *Othello) Reset() {
	n := 0
	o.vals = make(map[packet.FiveTuple]uint16)
	o.order = o.order[:0]
	o.resize(n, 0)
}

// tryInsert attempts to add a brand-new key as a graph edge. It returns
// false when the edge would close a cycle (including the multigraph case of
// two keys hashing to the same vertex pair), in which case the caller must
// rebuild with a fresh seed. It does NOT touch vals/order.
func (o *Othello) tryInsert(k packet.FiveTuple, val uint16) bool {
	u, v := o.vertices(k)
	ru, rv := o.find(u), o.find(v)
	if ru == rv {
		return false
	}
	if delta := val ^ o.a[u] ^ o.b[v-o.ma]; delta != 0 {
		// Flip the smaller component so a[u]^b[v] lands on val; every edge
		// inside the flipped component has both endpoints flipped, so all
		// existing values are preserved.
		if o.size[ru] <= o.size[rv] {
			o.flipComponent(u, delta)
		} else {
			o.flipComponent(v, delta)
		}
	}
	// Union by size.
	if o.size[ru] < o.size[rv] {
		ru, rv = rv, ru
	}
	o.parent[rv] = ru
	o.size[ru] += o.size[rv]
	o.adj[u] = append(o.adj[u], k)
	o.adj[v] = append(o.adj[v], k)
	return true
}

// updateVal changes an existing key's value by cutting its edge and flipping
// the b-side subtree by old^new. The graph is a forest, so excluding the
// edge itself splits the component in two; flipping one side changes exactly
// this key's XOR.
func (o *Othello) updateVal(k packet.FiveTuple, old, val uint16) {
	_, v := o.vertices(k)
	o.flipSubtree(v, k, old^val)
	o.vals[k] = val
}

// flipComponent XORs delta into every vertex reachable from start.
func (o *Othello) flipComponent(start uint32, delta uint16) {
	o.walkAndFlip(start, packet.FiveTuple{}, false, delta)
}

// flipSubtree XORs delta into every vertex reachable from start without
// traversing the excluded edge.
func (o *Othello) flipSubtree(start uint32, exclude packet.FiveTuple, delta uint16) {
	o.walkAndFlip(start, exclude, true, delta)
}

func (o *Othello) walkAndFlip(start uint32, exclude packet.FiveTuple, hasExclude bool, delta uint16) {
	o.queue = o.queue[:0]
	o.queue = append(o.queue, start)
	o.visited[start] = struct{}{}
	for i := 0; i < len(o.queue); i++ {
		x := o.queue[i]
		if x < o.ma {
			o.a[x] ^= delta
		} else {
			o.b[x-o.ma] ^= delta
		}
		for _, k2 := range o.adj[x] {
			if hasExclude && k2 == exclude {
				continue
			}
			u2, v2 := o.vertices(k2)
			next := u2
			if u2 == x {
				next = v2
			}
			if _, seen := o.visited[next]; !seen {
				o.visited[next] = struct{}{}
				o.queue = append(o.queue, next)
			}
		}
	}
	for _, x := range o.queue {
		delete(o.visited, x)
	}
}

// rebuild reseeds and re-inserts every live key in insertion order, growing
// the arrays every few failed attempts. Deterministic: seed evolution and
// key order depend only on the operation history.
func (o *Othello) rebuild() {
	o.Rebuilds++
	keys := o.Keys()
	for attempt := 0; ; attempt++ {
		o.seed = splitmix64(o.seed)
		o.resize(len(keys), attempt/4)
		ok := true
		for _, k := range keys {
			if !o.tryInsert(k, o.vals[k]) {
				ok = false
				break
			}
		}
		if ok {
			o.order = keys
			return
		}
	}
}

// resize (re)allocates the arrays and resets the graph bookkeeping for
// about n keys, with grow extra doublings. Both sides are sized to the next
// power of two above 1.5n, so the edge/vertex ratio stays ≤ 1/3 and a
// random seed is acyclic with high probability.
func (o *Othello) resize(n int, grow int) {
	target := n + n/2
	if target < 16 {
		target = 16
	}
	m := uint32(1) << uint(bits.Len(uint(target-1))+grow)
	o.ma, o.mb = m, m
	o.a = make([]uint16, m)
	o.b = make([]uint16, m)
	o.parent = make([]int32, 2*m)
	o.size = make([]int32, 2*m)
	for i := range o.parent {
		o.parent[i] = int32(i)
		o.size[i] = 1
	}
	o.adj = make(map[uint32][]packet.FiveTuple, n*2)
}

func (o *Othello) find(x uint32) int32 {
	i := int32(x)
	for o.parent[i] != i {
		o.parent[i] = o.parent[o.parent[i]] // path halving
		i = o.parent[i]
	}
	return i
}
