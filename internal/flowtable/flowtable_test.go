package flowtable

import (
	"testing"

	"albatross/internal/packet"
	"albatross/internal/sim"
)

func tuple(i int) packet.FiveTuple {
	return packet.FiveTuple{
		Src:   packet.IPv4FromUint32(0x0a000000 + uint32(i)),
		Dst:   packet.IPv4Addr{10, 1, 0, 1},
		Proto: packet.IPProtocolTCP,
		SPort: uint16(1024 + i%60000),
		DPort: 443,
	}
}

func TestTableInsertLookup(t *testing.T) {
	tb := NewTableIn(nil, "vm-nc", 256)
	k := tuple(1)
	if tb.LookupHash(k, k.Hash()) != nil {
		t.Fatal("lookup on empty table")
	}
	e := tb.Insert(k, 42)
	if e.Value != 42 || e.SizeBytes != 256 {
		t.Fatalf("entry = %+v", e)
	}
	if got := tb.LookupHash(k, k.Hash()); got != e {
		t.Fatal("lookup mismatch")
	}
	// Replace keeps the address stable (same memory entry).
	e2 := tb.Insert(k, 43)
	if e2.Addr != e.Addr || e2.Value != 43 {
		t.Fatalf("replace changed address: %+v vs %+v", e2, e)
	}
	if tb.idx.Len() != 1 {
		t.Fatalf("len = %d", tb.idx.Len())
	}
}

func TestTableAddressesDistinct(t *testing.T) {
	tb := NewTableIn(nil, "a", 128)
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		e := tb.Insert(tuple(i), uint64(i))
		if seen[e.Addr] {
			t.Fatalf("address %#x reused", e.Addr)
		}
		seen[e.Addr] = true
	}
}

func TestTablesDoNotShareAddressSpace(t *testing.T) {
	a := NewTableIn(nil, "a", 64)
	b := NewTableIn(nil, "b", 64)
	ea := a.Insert(tuple(0), 1)
	eb := b.Insert(tuple(0), 1)
	if ea.Addr == eb.Addr {
		t.Fatal("tables share addresses")
	}
}

func TestTableDefaultEntrySize(t *testing.T) {
	tb := NewTableIn(nil, "x", 0)
	if tb.entrySize != 64 {
		t.Fatalf("default entry size = %d", tb.entrySize)
	}
}

// A session is inserted once and found by later lookups at the same
// record; re-inserting its key re-pins that record, and reset forgets it.
// After a reset an insert reuses the first record with the new pinning.
func TestSessionLifecycle(t *testing.T) {
	st := newSessionTable()
	k := tuple(7)
	h := k.Hash()
	if st.lookup(k, h) != nil {
		t.Fatal("lookup on empty")
	}
	s := st.insert(k, h, 3)
	if s.key != k || s.hash != h || s.pod != 3 {
		t.Fatalf("session = %+v", s)
	}
	if got := st.lookup(k, h); got != s {
		t.Fatalf("lookup = %+v, want the inserted record %+v", got, s)
	}
	if got := st.insert(k, h, 5); got != s || got.pod != 5 || st.Len() != 1 {
		t.Fatalf("re-insert = %+v with Len %d, want the live record on pod 5 and Len 1", got, st.Len())
	}
	st.reset()
	if st.Len() != 0 || st.lookup(k, h) != nil {
		t.Fatalf("after reset: Len %d, lookup %+v", st.Len(), st.lookup(k, h))
	}
	k2 := tuple(8)
	if got := st.insert(k2, k2.Hash(), 0); got != s || *got != (session{key: k2, hash: k2.Hash()}) {
		t.Fatalf("insert after reset = %p %+v, want record %p holding only the new key", got, got, s)
	}
}

func BenchmarkTableLookup(b *testing.B) {
	tb := NewTableIn(nil, "bench", 256)
	for i := 0; i < 100000; i++ {
		tb.Insert(tuple(i), uint64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := tuple(i % 100000)
		_ = tb.LookupHash(k, k.Hash())
	}
}

// TestIndexMatchesMap drives an Index and a map through random inserts and
// re-inserts over a small key universe: ordinals count fresh inserts, a key
// keeps its ordinal, and a pre-sized index agrees with one grown from empty.
// In both, the dense key array is the map's keys in ordinal order and the
// full slots are exactly one (key hash, ordinal+1) pair per key.
func TestIndexMatchesMap(t *testing.T) {
	r := sim.NewRand(5)
	grown, sized := NewIndex(0), NewIndex(3000)
	want := map[packet.FiveTuple]uint64{}
	var next uint64
	for op := 0; op < 200_000; op++ {
		k := tuple(r.Intn(4000))
		ord, fresh := grown.Insert(k)
		sord, sfresh := sized.Insert(k)
		wantOrd, had := want[k]
		if !had {
			wantOrd = next
			next++
			want[k] = wantOrd
		}
		if ord != wantOrd || sord != wantOrd || fresh == had || sfresh == had {
			t.Fatalf("op %d: Insert = %d/%v and %d/%v, want %d/%v", op, ord, fresh, sord, sfresh, wantOrd, !had)
		}
	}
	if grown.Len() != len(want) || sized.Len() != len(want) {
		t.Fatalf("Len = %d and %d, want %d", grown.Len(), sized.Len(), len(want))
	}
	for i := 0; i < 4000; i++ {
		k := tuple(i)
		wantOrd, wantOK := want[k]
		for _, x := range []*Index{grown, sized} {
			ord, ok := x.LookupHash(k, k.Hash())
			if ok != wantOK || (ok && ord != wantOrd) {
				t.Fatalf("LookupHash(%d) = %d/%v, want %d/%v", i, ord, ok, wantOrd, wantOK)
			}
		}
	}
	for _, x := range []*Index{grown, sized} {
		for k, ord := range want {
			if x.keys[ord] != k {
				t.Fatalf("keys[%d] = %v, want %v", ord, x.keys[ord], k)
			}
		}
		seen := make([]bool, len(want))
		for i, s := range x.slots {
			if s.ordp == 0 {
				continue
			}
			ord := s.ordp - 1
			if int(ord) >= len(want) || seen[ord] || s.hash != x.keys[ord].Hash() {
				t.Fatalf("slot %d = %+v: ordinal out of range, repeated, or hash not its key's", i, s)
			}
			seen[ord] = true
		}
		for ord, ok := range seen {
			if !ok {
				t.Fatalf("no slot holds ordinal %d", ord)
			}
		}
	}
}
