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

func TestSessionLifecycle(t *testing.T) {
	st := NewSessionTable(0, 100*sim.Microsecond)
	k := tuple(7)
	if st.Lookup(k, 0) != nil {
		t.Fatal("lookup on empty")
	}
	s := st.Create(k, 10)
	if s.State != StateNew || s.Created != 10 {
		t.Fatalf("session = %+v", s)
	}
	s.State = StateEstablished
	// Within idle window: refreshed.
	got := st.Lookup(k, 50)
	if got == nil || got.LastActive != 50 || got.State != StateEstablished {
		t.Fatalf("refresh failed: %+v", got)
	}
	// Past idle window: expired.
	if st.Lookup(k, 50+sim.Time(101*sim.Microsecond)) != nil {
		t.Fatal("expired session returned")
	}
	if st.Expirations != 1 {
		t.Fatalf("expirations = %d", st.Expirations)
	}
	if st.Len() != 0 {
		t.Fatalf("len = %d", st.Len())
	}
}

func TestSessionCapacityEviction(t *testing.T) {
	st := NewSessionTable(10, 0)
	for i := 0; i < 10; i++ {
		s := st.Create(tuple(i), sim.Time(i))
		s.State = StateEstablished
	}
	// Touch session 0 so it's most recent; oldest is now tuple(1).
	if st.Lookup(tuple(0), 100) == nil {
		t.Fatal("session 0 missing")
	}
	st.Create(tuple(99), 200)
	if st.Len() != 10 {
		t.Fatalf("len = %d, want 10", st.Len())
	}
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d", st.Evictions)
	}
	if st.Lookup(tuple(1), 201) != nil {
		t.Fatal("LRU eviction removed wrong session (1 should be gone)")
	}
	if st.Lookup(tuple(0), 201) == nil {
		t.Fatal("recently used session evicted")
	}
}

func TestSessionStateString(t *testing.T) {
	if StateNew.String() != "new" || StateEstablished.String() != "established" ||
		StateClosing.String() != "closing" || SessionState(9).String() != "invalid" {
		t.Fatal("state strings wrong")
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
		ord, ok := grown.LookupHash(k, k.Hash())
		wantOrd, wantOK := want[k]
		if ok != wantOK || (ok && ord != wantOrd) {
			t.Fatalf("LookupHash(%d) = %d/%v, want %d/%v", i, ord, ok, wantOrd, wantOK)
		}
	}
}
