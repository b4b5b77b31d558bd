package lpm

import (
	"testing"

	"albatross/internal/sim"
)

func mustInsert(t testing.TB, tbl *Table, prefix uint32, plen int, val uint32) {
	t.Helper()
	if err := tbl.Insert(prefix, plen, val); err != nil {
		t.Fatalf("Insert(%#08x/%d, %d): %v", prefix, plen, val, err)
	}
}

func TestEmptyTable(t *testing.T) {
	tbl := New()
	if v, ok := tbl.Lookup(0x0a000001); ok || v != NoRoute {
		t.Fatalf("lookup on empty table = %v, %v", v, ok)
	}
	if tbl.Len() != 0 {
		t.Fatalf("len = %d", tbl.Len())
	}
}

func TestBasicLongestMatch(t *testing.T) {
	tbl := New()
	mustInsert(t, tbl, 0x0a000000, 8, 100)  // 10/8
	mustInsert(t, tbl, 0x0a010000, 16, 200) // 10.1/16
	mustInsert(t, tbl, 0x0a010100, 24, 300) // 10.1.1/24
	mustInsert(t, tbl, 0x0a010101, 32, 400) // 10.1.1.1/32

	cases := []struct {
		addr uint32
		want uint32
	}{
		{0x0a010101, 400}, // exact /32
		{0x0a010102, 300}, // /24
		{0x0a010201, 200}, // /16
		{0x0a020101, 100}, // /8
		{0x0b000001, NoRoute},
	}
	for _, c := range cases {
		got, ok := tbl.Lookup(c.addr)
		if c.want == NoRoute {
			if ok {
				t.Errorf("lookup %08x = %d, want miss", c.addr, got)
			}
			continue
		}
		if !ok || got != c.want {
			t.Errorf("lookup %08x = %d (%v), want %d", c.addr, got, ok, c.want)
		}
	}
	if tbl.Len() != 4 {
		t.Fatalf("len = %d, want 4", tbl.Len())
	}
}

func TestDefaultRoute(t *testing.T) {
	tbl := New()
	mustInsert(t, tbl, 0, 0, 7)
	if v, ok := tbl.Lookup(0xdeadbeef); !ok || v != 7 {
		t.Fatalf("default route lookup = %d, %v", v, ok)
	}
	mustInsert(t, tbl, 0x0a000000, 8, 9)
	if v, _ := tbl.Lookup(0x0a000001); v != 9 {
		t.Fatalf("more-specific should win: %d", v)
	}
}

func TestNonOctetAlignedPrefixes(t *testing.T) {
	tbl := New()
	// /22 and /30: partial-stride expansion paths.
	mustInsert(t, tbl, 0xc0a80400, 22, 1) // 192.168.4.0/22 covers .4-.7
	mustInsert(t, tbl, 0xc0a80600, 23, 2) // 192.168.6.0/23 covers .6-.7
	mustInsert(t, tbl, 0xc0a80630, 30, 3) // 192.168.6.48/30

	if v, _ := tbl.Lookup(0xc0a80401); v != 1 {
		t.Fatalf(".4.1 = %d, want 1", v)
	}
	if v, _ := tbl.Lookup(0xc0a80501); v != 1 {
		t.Fatalf(".5.1 = %d, want 1", v)
	}
	if v, _ := tbl.Lookup(0xc0a80601); v != 2 {
		t.Fatalf(".6.1 = %d, want 2", v)
	}
	if v, _ := tbl.Lookup(0xc0a80701); v != 2 {
		t.Fatalf(".7.1 = %d, want 2", v)
	}
	if v, _ := tbl.Lookup(0xc0a80631); v != 3 {
		t.Fatalf(".6.49 = %d, want 3", v)
	}
	if v, _ := tbl.Lookup(0xc0a80634); v != 2 {
		t.Fatalf(".6.52 = %d, want 2 (outside /30)", v)
	}
	if _, ok := tbl.Lookup(0xc0a80801); ok {
		t.Fatal(".8.1 should miss")
	}
}

func TestInsertReplace(t *testing.T) {
	tbl := New()
	mustInsert(t, tbl, 0x0a000000, 8, 1)
	mustInsert(t, tbl, 0x0a000000, 8, 2)
	if tbl.Len() != 1 {
		t.Fatalf("len after replace = %d", tbl.Len())
	}
	if v, _ := tbl.Lookup(0x0a123456); v != 2 {
		t.Fatalf("value after replace = %d", v)
	}
}

func TestInsertValidation(t *testing.T) {
	tbl := New()
	if err := tbl.Insert(0x0a000001, 8, 1); err == nil {
		t.Fatal("non-canonical prefix accepted")
	}
	if err := tbl.Insert(0, 33, 1); err == nil {
		t.Fatal("plen 33 accepted")
	}
	if err := tbl.Insert(0, -1, 1); err == nil {
		t.Fatal("negative plen accepted")
	}
	if err := tbl.Insert(0x0a000000, 8, NoRoute); err == nil {
		t.Fatal("NoRoute sentinel accepted")
	}
	if err := tbl.Insert(1, 0, 1); err == nil {
		t.Fatal("nonzero default prefix accepted")
	}
}

func TestMaskAndCanonical(t *testing.T) {
	if Mask(0) != 0 || Mask(8) != 0xff000000 || Mask(32) != 0xffffffff {
		t.Fatal("mask values wrong")
	}
	if Canonical(0x0a0b0c0d, 16) != 0x0a0b0000 {
		t.Fatal("canonical wrong")
	}
}

// Inserting or replacing a route in a node that already holds one allocates
// nothing: route bookkeeping is a fixed bitset per node, not a map.
func TestLPMInsertDoesNotAllocate(t *testing.T) {
	tbl := New()
	mustInsert(t, tbl, 0, 0, 1)           // the root's route bitset
	mustInsert(t, tbl, 0x0a010100, 24, 1) // 10.1/16's node and its bitset
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		i++
		mustInsert(t, tbl, 0x0a010000|uint32(i%256)<<8, 24, uint32(i)) // new, then replaced
		mustInsert(t, tbl, 0x0a010000|uint32(i%16)<<12, 20, uint32(i))
		mustInsert(t, tbl, 0x0a010100, 24, uint32(i))
		mustInsert(t, tbl, 0, 0, uint32(i))
	}); n != 0 {
		t.Fatalf("Insert into existing nodes allocates %v times per round", n)
	}
	if tbl.Len() != 1+256+16 {
		t.Fatalf("len = %d, want %d", tbl.Len(), 1+256+16)
	}
}

func TestScaleClusteredRoutes(t *testing.T) {
	// A scaled-down version of the Tab. 6 capacity experiment: clustered
	// tenant routes (how VXLAN routing tables look in production).
	tbl := New()
	r := sim.NewRand(1)
	const subnets = 512
	const perSubnet = 200
	n := 0
	for s := 0; s < subnets; s++ {
		base := 0x0a000000 | uint32(s)<<8
		mustInsert(t, tbl, base, 24, uint32(s))
		n++
		for h := 0; h < perSubnet; h++ {
			host := base | uint32(1+r.Intn(254))
			if err := tbl.Insert(host, 32, uint32(s)*1000+uint32(h)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if tbl.Len() < subnets {
		t.Fatalf("len = %d", tbl.Len())
	}
	// All /24 network addresses resolve.
	for s := 0; s < subnets; s++ {
		base := 0x0a000000 | uint32(s)<<8
		if v, ok := tbl.Lookup(base | 0xfe); !ok {
			t.Fatalf("subnet %d unreachable", s)
		} else if v >= subnets && v < 1000 {
			t.Fatalf("unexpected value %d", v)
		}
	}
	if tbl.MemoryBytes() <= 0 {
		t.Fatal("memory estimate not positive")
	}
}

func BenchmarkLookup(b *testing.B) {
	tbl := New()
	r := sim.NewRand(2)
	for i := 0; i < 100000; i++ {
		plen := 16 + r.Intn(17)
		if err := tbl.Insert(Canonical(r.Uint32(), plen), plen, uint32(i)); err != nil {
			b.Fatal(err)
		}
	}
	addrs := make([]uint32, 1024)
	for i := range addrs {
		addrs[i] = r.Uint32()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Lookup(addrs[i&1023])
	}
}

func BenchmarkInsert(b *testing.B) {
	r := sim.NewRand(3)
	tbl := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		plen := 16 + r.Intn(17)
		tbl.Insert(Canonical(r.Uint32(), plen), plen, uint32(i))
	}
}
