package flowtable

import (
	"testing"

	"albatross/internal/packet"
	"albatross/internal/sim"
)

// testTuple derives a distinct deterministic five-tuple from (i, salt): i is
// encoded directly into Src so tuples are distinct, salt into Dst so
// different tests draw different key sets.
func testTuple(i int, salt uint64) packet.FiveTuple {
	m := (uint64(i)*0x9e37 + salt) * 0x9e3779b97f4a7c15
	m ^= m >> 29
	m *= 0xbf58476d1ce4e5b9
	m ^= m >> 32
	return packet.FiveTuple{
		Src:   packet.IPv4Addr{byte(i >> 24), byte(i >> 16), byte(i >> 8), byte(i)},
		Dst:   packet.IPv4Addr{byte(m >> 24), byte(m >> 16), byte(m >> 8), byte(m)},
		Proto: 6,
		SPort: uint16(m >> 32),
		DPort: 443,
	}
}

func mustBackend(t *testing.T, pool []int, cfg BackendConfig) *Backend {
	t.Helper()
	b, err := NewBackend("session", pool, cfg)
	if err != nil {
		t.Fatalf("NewBackend: %v", err)
	}
	return b
}

// On a healthy static pool every flow lands on the pod AssignPod picks, and
// stays there across repeat lookups.
func TestBackendsAgreeOnStaticPool(t *testing.T) {
	pool := []int{0, 1, 2, 3, 4, 5, 6, 7}
	b := mustBackend(t, pool, BackendConfig{})

	const flows = 5000
	first := make([]int, flows)
	now := sim.Time(0)
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < flows; i++ {
			k := testTuple(i, 0xA11CE)
			ps := Select(b, k, now)
			if want := AssignPod(pool, k.Hash()); ps != want {
				t.Fatalf("flow %d: assigned %d, AssignPod says %d", i, ps, want)
			}
			if pass == 0 {
				first[i] = ps
			} else if ps != first[i] {
				t.Fatalf("flow %d moved %d->%d with no pool change", i, first[i], ps)
			}
			now = now.Add(100)
		}
	}
	if st := b.Stats(); st.Inserts != flows || st.Hits != 2*flows {
		t.Fatalf("stats: %+v, want %d inserts / %d hits", st, flows, 2*flows)
	}
}

// A pool update that removes one pod moves exactly the flows pinned to it,
// every surviving flow keeps its pod, and restoring the pod moves none.
func TestSessionBackendZeroDisruptionUpdate(t *testing.T) {
	pool := []int{0, 1, 2, 3, 4, 5, 6, 7}
	b := mustBackend(t, pool, BackendConfig{})

	const flows = 2000
	before := make(map[packet.FiveTuple]int, flows)
	for i := 0; i < flows; i++ {
		k := testTuple(i, 0xBEEF)
		before[k] = Select(b, k, 0)
	}
	onDead := 0
	for _, pod := range before {
		if pod == 3 {
			onDead++
		}
	}
	if onDead == 0 {
		t.Fatal("test needs flows on the removed pod")
	}

	if moved := b.Update([]int{0, 1, 2, 4, 5, 6, 7}); moved != onDead {
		t.Fatalf("Update moved %d flows, want exactly the %d on pod 3", moved, onDead)
	}
	after := make(map[packet.FiveTuple]int, flows)
	for k, pod := range before {
		got, ok := b.Lookup(k, k.Hash())
		if !ok {
			t.Fatalf("flow %v lost its pinning across the update", k)
		}
		if pod == 3 {
			if got == 3 {
				t.Fatalf("flow %v still on removed pod 3", k)
			}
		} else if got != pod {
			t.Fatalf("flow %v disrupted: %d->%d though pod %d survived", k, pod, got, pod)
		}
		after[k] = got
	}

	if moved := b.Update(pool); moved != 0 {
		t.Fatalf("restoring pod 3 moved %d flows, want 0", moved)
	}
	for k, pod := range after {
		if got := Select(b, k, 0); got != pod {
			t.Fatalf("flow %v moved %d->%d when pod 3 was restored", k, pod, got)
		}
	}
}

// An update to an empty pool forgets every pinning at once and returns how
// many it dropped; after a refill every flow pins again by AssignPod over
// the new pool.
func TestSessionBackendEmptyPoolForgetsPinnings(t *testing.T) {
	b := mustBackend(t, []int{0, 1, 2, 3}, BackendConfig{})
	const flows = 1000
	for i := 0; i < flows; i++ {
		Select(b, testTuple(i, 0xCAFE), 0)
	}
	if dropped := b.Update(nil); dropped != flows {
		t.Fatalf("Update(nil) dropped %d pinnings, want %d", dropped, flows)
	}
	if n := b.st.Len(); n != 0 {
		t.Fatalf("table holds %d sessions after the pool emptied", n)
	}
	for i := 0; i < flows; i++ {
		k := testTuple(i, 0xCAFE)
		if pod, ok := b.Lookup(k, k.Hash()); ok {
			t.Fatalf("flow %d still pinned to %d after the pool emptied", i, pod)
		}
		if pod := Select(b, k, 0); pod != -1 {
			t.Fatalf("flow %d pinned to %d on an empty pool", i, pod)
		}
	}
	refill := []int{4, 5, 6}
	if moved := b.Update(refill); moved != 0 {
		t.Fatalf("refilling an empty table moved %d pinnings", moved)
	}
	for i := 0; i < flows; i++ {
		k := testTuple(i, 0xCAFE)
		if pod, want := Select(b, k, 0), AssignPod(refill, k.Hash()); pod != want {
			t.Fatalf("flow %d pinned to %d after the refill, AssignPod says %d", i, pod, want)
		}
	}
	if n := b.st.Len(); n != flows {
		t.Fatalf("table holds %d sessions after the refill, want %d", n, flows)
	}
}
