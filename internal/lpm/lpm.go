// Package lpm implements IPv4 longest-prefix matching for the gateway's
// VXLAN routing tables.
//
// Albatross's headline capacity claim (Tab. 6) is that DRAM-backed tables
// hold >10M LPM rules versus Sailfish's 0.2M SRAM-bound entries. This
// package provides the DRAM-style structure: a four-level stride-8 multibit
// trie with controlled prefix expansion inside each node. The trie is *not*
// leaf-pushed: a lookup walks at most four nodes, remembering the best match
// seen on the path, so inserts and deletes touch exactly one node and cost
// at most a 256-slot expansion.
package lpm

import "fmt"

// NoRoute is returned by Lookup when no prefix matches.
const NoRoute = ^uint32(0)

const (
	stride    = 8
	slotCount = 1 << stride
	levels    = 32 / stride
)

// routeKey identifies a route terminating in a node: the canonical base
// slot of its expansion range and its prefix length.
type routeKey struct {
	base uint16
	plen int8
}

// node is one stride of the trie. vals/plens hold the controlled prefix
// expansion of routes terminating inside this stride; children (lazily
// allocated) descend to the next stride. rmap records the authoritative
// (route -> value) set for delete restoration.
type node struct {
	vals     [slotCount]uint32
	plens    [slotCount]int8 // prefix length of the stored route, -1 = none
	children *[slotCount]*node
	rmap     map[routeKey]uint32
}

func newNode() *node {
	n := &node{}
	for i := range n.plens {
		n.plens[i] = -1
		n.vals[i] = NoRoute
	}
	return n
}

// Table is an IPv4 LPM table. The zero value is not usable; call New.
type Table struct {
	root  *node
	count int
	nodes int
}

// New returns an empty LPM table.
func New() *Table {
	return &Table{root: newNode(), nodes: 1}
}

// Len returns the number of installed routes.
func (t *Table) Len() int { return t.count }

// NodeCount returns the number of allocated trie nodes (memory proxy).
func (t *Table) NodeCount() int { return t.nodes }

// MemoryBytes estimates resident memory of the trie structure.
func (t *Table) MemoryBytes() int64 {
	var walk func(n *node) int64
	walk = func(n *node) int64 {
		// vals (1KB) + plens (256B) + header/map overhead.
		size := int64(slotCount*4+slotCount+48) + int64(len(n.rmap))*16
		if n.children != nil {
			size += slotCount * 8
			for _, c := range n.children {
				if c != nil {
					size += walk(c)
				}
			}
		}
		return size
	}
	return walk(t.root)
}

func validate(prefix uint32, plen int) error {
	if plen < 0 || plen > 32 {
		return fmt.Errorf("lpm: prefix length %d out of [0,32]", plen)
	}
	if plen < 32 && plen > 0 && prefix<<uint(plen) != 0 {
		return fmt.Errorf("lpm: prefix %08x has bits set beyond /%d", prefix, plen)
	}
	if plen == 0 && prefix != 0 {
		return fmt.Errorf("lpm: default route must have prefix 0, got %08x", prefix)
	}
	return nil
}

// Mask returns the network mask for a prefix length.
func Mask(plen int) uint32 {
	if plen <= 0 {
		return 0
	}
	return ^uint32(0) << uint(32-plen)
}

// Canonical masks an address to a prefix length (helper for callers holding
// host addresses).
func Canonical(addr uint32, plen int) uint32 { return addr & Mask(plen) }

// locate walks to the node owning prefix/plen, creating nodes on the way,
// and returns it plus the expansion base slot and span.
func (t *Table) locate(prefix uint32, plen int) (n *node, base, span int) {
	n = t.root
	level := 0
	for plen > (level+1)*stride {
		idx := byte(prefix >> uint(32-stride*(level+1)))
		if n.children == nil {
			n.children = new([slotCount]*node)
		}
		if n.children[idx] == nil {
			n.children[idx] = newNode()
			t.nodes++
		}
		n = n.children[idx]
		level++
	}
	base, span = expansion(prefix, plen, level)
	return n, base, span
}

// expansion returns the base slot and span of prefix/plen's controlled
// prefix expansion inside the node it terminates in at the given level.
func expansion(prefix uint32, plen, level int) (base, span int) {
	r := plen - level*stride // bits of the prefix inside this stride, 0..8
	if r > 0 {
		base = int(byte(prefix>>uint(32-stride*(level+1)))) &^ (1<<(stride-r) - 1)
	}
	return base, 1 << (stride - r)
}

// Insert adds or replaces the route (prefix/plen -> val). prefix must be in
// canonical form (no bits beyond plen). val must not be NoRoute.
func (t *Table) Insert(prefix uint32, plen int, val uint32) error {
	if err := validate(prefix, plen); err != nil {
		return err
	}
	if val == NoRoute {
		return fmt.Errorf("lpm: value %#x is the NoRoute sentinel", val)
	}
	n, base, span := t.locate(prefix, plen)
	for i := base; i < base+span; i++ {
		if n.plens[i] <= int8(plen) {
			n.plens[i] = int8(plen)
			n.vals[i] = val
		}
	}
	rk := routeKey{uint16(base), int8(plen)}
	if n.rmap == nil {
		n.rmap = make(map[routeKey]uint32)
	}
	if _, existed := n.rmap[rk]; !existed {
		t.count++
	}
	n.rmap[rk] = val
	return nil
}

// Lookup returns the value of the longest matching prefix for addr, or
// (NoRoute, false) when nothing matches.
func (t *Table) Lookup(addr uint32) (uint32, bool) {
	best := NoRoute
	n := t.root
	for level := 0; ; level++ {
		idx := byte(addr >> uint(32-stride*(level+1)))
		if n.plens[idx] >= 0 {
			best = n.vals[idx]
		}
		if n.children == nil || level == levels-1 {
			break
		}
		c := n.children[idx]
		if c == nil {
			break
		}
		n = c
	}
	return best, best != NoRoute
}

// Delete removes the route (prefix/plen). It reports whether the route was
// present.
func (t *Table) Delete(prefix uint32, plen int) bool {
	if validate(prefix, plen) != nil {
		return false
	}
	// Walk to the owning node, creating nothing, and keep the (parent,
	// child index) steps taken for pruning.
	type step struct {
		n   *node
		idx byte
	}
	var path []step
	n := t.root
	for plen > (len(path)+1)*stride {
		idx := byte(prefix >> uint(32-stride*(len(path)+1)))
		if n.children == nil || n.children[idx] == nil {
			return false
		}
		path = append(path, step{n, idx})
		n = n.children[idx]
	}
	level := len(path)
	base, span := expansion(prefix, plen, level)
	rk := routeKey{uint16(base), int8(plen)}
	if _, ok := n.rmap[rk]; !ok {
		return false
	}
	delete(n.rmap, rk)
	t.count--

	// Restore the expansion range to the next-best route terminating in
	// this node (longest plen' < plen whose range covers each slot).
	for i := base; i < base+span; i++ {
		if n.plens[i] != int8(plen) {
			continue // a longer route owns this slot; leave it
		}
		bestPlen := int8(-1)
		bestVal := NoRoute
		for cand, val := range n.rmap {
			if cand.plen >= int8(plen) || cand.plen <= bestPlen {
				continue
			}
			cspan := 1 << (stride - (int(cand.plen) - level*stride))
			if i >= int(cand.base) && i < int(cand.base)+cspan {
				bestPlen = cand.plen
				bestVal = val
			}
		}
		n.plens[i] = bestPlen
		n.vals[i] = bestVal
	}

	// Prune now-empty nodes up the path.
	for len(path) > 0 && len(n.rmap) == 0 && n.children == nil {
		last := path[len(path)-1]
		last.n.children[last.idx] = nil
		t.nodes--
		path = path[:len(path)-1]
		n = last.n
		empty := true
		for _, c := range n.children {
			if c != nil {
				empty = false
				break
			}
		}
		if empty {
			n.children = nil
		}
	}
	return true
}
