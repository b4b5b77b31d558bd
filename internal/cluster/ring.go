package cluster

import (
	"cmp"
	"math"
	"slices"
	"sort"
)

// ring is the consistent-hash ECMP table: every member owns a number of
// pseudo-random points on a 64-bit ring, and a flow hash maps to the first
// point clockwise from it. Flow affinity follows directly (the same hash
// always lands on the same point), and membership churn has bounded blast
// radius: removing a member only remaps the hash ranges its own points
// covered — in expectation 1/N of flows, ≤ 2/N with the vnode counts used
// here — instead of reshuffling everything the way modular hashing would.
//
// Members are weighted by vnode count: weight w owns round(w×vnodes)
// points (min 1 while w > 0), so a canary at weight 0.1 draws ~10% of a
// full member's share. Point positions depend only on (member, ordinal) —
// a member at count c owns exactly the first c of its full point sequence
// — so shifting a weight moves only the hash ranges of the points added or
// removed, and rings built through any mutation history with the same final
// counts are identical.
//
// Failover is handled at lookup time, not by rebuilding the ring: points of
// ineligible members (route withdrawn, crashed, admin down) are walked over
// to the next eligible point. Keeping dead members' points in place means
// recovery restores the exact pre-failure assignment. Weight changes and
// removal DO rebuild — they are deliberate control-plane reassignments,
// not failures to recover from. The rebuild is deferred to the next lookup,
// so a batch of membership changes (building an N-member cluster is N adds)
// sorts the table once, not once per change.

// ringPoint is one vnode: a position on the hash ring owned by a member.
type ringPoint struct {
	hash   uint64
	member int32
}

// vnodesPerNode is a full-weight member's point count.
const vnodesPerNode = 64

type ring struct {
	points []ringPoint // sorted by hash; out of date while dirty
	// counts[member] is the member's current vnode count (0 = absent).
	counts []int
	// dirty is set when counts has changed since points was built.
	dirty bool
}

// mix64 is a splitmix64-style finalizer used to place vnodes and spread
// flow hashes around the ring.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// weightCount converts an ECMP weight to a vnode count: round(w×vnodes),
// at least 1 while the weight is positive, 0 at weight 0.
func (r *ring) weightCount(w float64) int {
	if w <= 0 {
		return 0
	}
	c := int(math.Round(w * float64(vnodesPerNode)))
	if c < 1 {
		c = 1
	}
	return c
}

// add inserts member at full weight.
func (r *ring) add(member int) { r.setCount(member, vnodesPerNode) }

// remove deletes every point the member owns.
func (r *ring) remove(member int) { r.setCount(member, 0) }

// setCount pins member's vnode count and marks the point table out of date;
// the next lookup rebuilds it. No-op when the count already matches.
func (r *ring) setCount(member, count int) {
	for member >= len(r.counts) {
		r.counts = append(r.counts, 0)
	}
	if r.counts[member] == count {
		return
	}
	r.counts[member] = count
	r.dirty = true
}

// rebuild regenerates the sorted point table from counts. Deterministic:
// point hashes depend only on (member, ordinal) and the sort order is
// total (hash, then member).
func (r *ring) rebuild() {
	r.dirty = false
	r.points = r.points[:0]
	for m, count := range r.counts {
		for v := 0; v < count; v++ {
			h := mix64(uint64(m)<<32 | uint64(v) | 0xec3f<<48)
			r.points = append(r.points, ringPoint{hash: h, member: int32(m)})
		}
	}
	slices.SortFunc(r.points, func(a, b ringPoint) int {
		if c := cmp.Compare(a.hash, b.hash); c != 0 {
			return c
		}
		return cmp.Compare(a.member, b.member)
	})
}

// lookup maps flow hash h to (home, owner): home is the member the ring
// assigns with full membership; owner is the first eligible member walking
// clockwise from h (-1 when no member is eligible). home == owner in the
// healthy case; they differ exactly for the flows remapped by a failure.
func (r *ring) lookup(h uint64, eligible func(member int) bool) (home, owner int) {
	if r.dirty {
		r.rebuild()
	}
	n := len(r.points)
	if n == 0 {
		return -1, -1
	}
	h = mix64(h)
	i := sort.Search(n, func(i int) bool { return r.points[i].hash >= h })
	if i == n {
		i = 0 // wrap
	}
	home = int(r.points[i].member)
	for k := 0; k < n; k++ {
		p := r.points[(i+k)%n]
		if eligible(int(p.member)) {
			return home, int(p.member)
		}
	}
	return home, -1
}
