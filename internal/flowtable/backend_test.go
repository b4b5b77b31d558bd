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
	m := splitmix64(uint64(i)*0x9e37 + salt)
	return packet.FiveTuple{
		Src:   packet.IPv4Addr{byte(i >> 24), byte(i >> 16), byte(i >> 8), byte(i)},
		Dst:   packet.IPv4Addr{byte(m >> 24), byte(m >> 16), byte(m >> 8), byte(m)},
		Proto: 6,
		SPort: uint16(m >> 32),
		DPort: 443,
	}
}

func mustBackend(t *testing.T, name string, pool []int, cfg BackendConfig) Backend {
	t.Helper()
	b, err := NewBackend(name, pool, cfg)
	if err != nil {
		t.Fatalf("NewBackend(%s): %v", name, err)
	}
	return b
}

// On a healthy static pool the two backends must produce identical pod
// assignments for every flow, and assignments must be stable across repeat
// lookups — the property that makes `backend:` a pure performance knob in
// steady state.
func TestBackendsAgreeOnStaticPool(t *testing.T) {
	pool := []int{0, 1, 2, 3, 4, 5, 6, 7}
	sess := mustBackend(t, "session", pool, BackendConfig{})
	oth := mustBackend(t, "othello", pool, BackendConfig{Seed: 42})

	const flows = 5000
	first := make([]int, flows)
	now := sim.Time(0)
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < flows; i++ {
			k := testTuple(i, 0xA11CE)
			ps := Select(sess, k, now)
			po := Select(oth, k, now)
			if ps != po {
				t.Fatalf("pass %d flow %d: session->%d othello->%d", pass, i, ps, po)
			}
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
	if st := oth.Stats(); st.Inserts != flows || st.Hits != 2*flows {
		t.Fatalf("othello stats: %+v, want %d inserts / %d hits", st, flows, 2*flows)
	}
}

// The zero-disruption claim as a unit test: after a pool update that removes
// one pod, only the flows pinned to that pod move; every other flow keeps
// its exact assignment, on the control plane and on the stateless data plane.
func TestOthelloBackendZeroDisruptionUpdate(t *testing.T) {
	pool := []int{0, 1, 2, 3, 4, 5, 6, 7}
	b := mustBackend(t, "othello", pool, BackendConfig{Seed: 7}).(*othelloBackend)

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

	newPool := []int{0, 1, 2, 4, 5, 6, 7}
	moved := b.Update(newPool)
	if moved != onDead {
		t.Fatalf("Update moved %d flows, want exactly the %d on pod 3", moved, onDead)
	}
	for k, pod := range before {
		got, ok := b.Lookup(k, k.Hash(), 0)
		if !ok {
			t.Fatalf("flow %v lost its pinning across the update", k)
		}
		if pod == 3 {
			if got == 3 {
				t.Fatalf("flow %v still on removed pod 3", k)
			}
			continue
		}
		if got != pod {
			t.Fatalf("flow %v disrupted: %d->%d though pod %d survived", k, pod, got, pod)
		}
		// The data-plane arrays must agree with the control plane.
		if dp := int(b.Map().Get(k)); dp != got {
			t.Fatalf("flow %v: data-plane %d != control-plane %d", k, dp, got)
		}
	}
}

// The session backend, by contrast, loses pinnings under capacity pressure:
// re-hashing after eviction is the disruption mode Concury measures against.
func TestSessionBackendCapacityEviction(t *testing.T) {
	pool := []int{0, 1, 2, 3}
	b := mustBackend(t, "session", pool, BackendConfig{Capacity: 100}).(*sessionBackend)
	for i := 0; i < 500; i++ {
		Select(b, testTuple(i, 0xCAFE), sim.Time(i*100))
	}
	if st := b.Stats(); st.Evictions == 0 {
		t.Fatalf("expected capacity evictions, got %+v", st)
	}
	if b.Table().Len() != 100 {
		t.Fatalf("table holds %d sessions, capacity is 100", b.Table().Len())
	}
}

// Direct Othello unit test: inserts, in-place updates, removals and forced
// rebuilds all preserve Get(k) == value for every member key.
func TestOthelloPutGetRebuild(t *testing.T) {
	o := NewOthello(1, 0) // size hint 0 forces growth rebuilds
	const n = 4000
	want := make(map[packet.FiveTuple]uint16, n)
	for i := 0; i < n; i++ {
		k := testTuple(i, 0xD00D)
		v := uint16(splitmix64(uint64(i)) % 256)
		o.Put(k, v)
		want[k] = v
	}
	if o.Rebuilds == 0 {
		t.Fatal("expected at least one growth rebuild from a cold start")
	}
	verify := func() {
		t.Helper()
		for k, v := range want {
			if got := o.Get(k); got != v {
				t.Fatalf("Get(%v) = %d, want %d (rebuilds=%d)", k, got, v, o.Rebuilds)
			}
		}
		if o.Len() != len(want) {
			t.Fatalf("Len() = %d, want %d", o.Len(), len(want))
		}
	}
	verify()
	// In-place value updates (the pool-update path).
	for i := 0; i < n; i += 3 {
		k := testTuple(i, 0xD00D)
		want[k] ^= 0x5A
		o.Put(k, want[k])
	}
	verify()
	// Removals, then enough fresh inserts to force another rebuild.
	for i := 0; i < n; i += 5 {
		k := testTuple(i, 0xD00D)
		if !o.Remove(k) {
			t.Fatalf("Remove(%v) = false for member", k)
		}
		delete(want, k)
	}
	for i := n; i < 3*n; i++ {
		k := testTuple(i, 0xD00D)
		v := uint16(i % 512)
		o.Put(k, v)
		want[k] = v
	}
	verify()
}

// Keys returns the live keys in insertion order — the determinism contract
// rebuilds rely on.
func TestOthelloKeysOrder(t *testing.T) {
	o := NewOthello(3, 0)
	var ks []packet.FiveTuple
	for i := 0; i < 100; i++ {
		k := testTuple(i, 0xFACE)
		o.Put(k, uint16(i))
		ks = append(ks, k)
	}
	o.Remove(ks[10])
	o.Put(ks[10], 999) // re-insert goes to the back
	wantOrder := append(append(append([]packet.FiveTuple{}, ks[:10]...), ks[11:]...), ks[10])
	got := o.Keys()
	if len(got) != len(wantOrder) {
		t.Fatalf("Keys() len %d, want %d", len(got), len(wantOrder))
	}
	for i := range got {
		if got[i] != wantOrder[i] {
			t.Fatalf("Keys()[%d] = %v, want %v", i, got[i], wantOrder[i])
		}
	}
}

// FuzzOthello drives a random operation sequence (insert / update / remove /
// re-insert) against a model map and checks the core invariant after every
// step: the stateless lookup returns the control-plane value for every
// member — no false negatives, at any size, across rebuilds.
func FuzzOthello(f *testing.F) {
	f.Add([]byte{0x01, 0x02, 0x03}, uint64(1))
	f.Add([]byte{0xFF, 0x00, 0xFF, 0x00, 0xAA, 0x55}, uint64(99))
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7}, uint64(7))
	f.Fuzz(func(t *testing.T, ops []byte, seed uint64) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		o := NewOthello(seed, 0)
		model := make(map[packet.FiveTuple]uint16)
		for step, op := range ops {
			// Key universe of 64 keys so removes and re-inserts actually hit.
			k := testTuple(int(op&0x3F), seed)
			switch {
			case op&0xC0 == 0xC0 && len(model) > 0:
				o.Remove(k)
				delete(model, k)
			default:
				v := uint16(op) ^ uint16(step<<3)
				o.Put(k, v)
				model[k] = v
			}
			if o.Len() != len(model) {
				t.Fatalf("step %d: Len %d != model %d", step, o.Len(), len(model))
			}
			for mk, mv := range model {
				if !o.Contains(mk) {
					t.Fatalf("step %d: member %v reported absent", step, mk)
				}
				if got := o.Get(mk); got != mv {
					t.Fatalf("step %d: Get(%v) = %d, want %d", step, mk, got, mv)
				}
			}
		}
	})
}
