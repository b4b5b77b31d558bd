package packet

import "testing"

func TestIPv4AddrHelpers(t *testing.T) {
	a := IPv4Addr{10, 20, 30, 40}
	if a.String() != "10.20.30.40" {
		t.Fatalf("string = %q", a.String())
	}
	if IPv4FromUint32(a.Uint32()) != a {
		t.Fatal("uint32 round trip failed")
	}
	if a.Uint32() != 0x0a141e28 {
		t.Fatalf("uint32 = %#x", a.Uint32())
	}
}

func TestFiveTupleHashStability(t *testing.T) {
	f := FiveTuple{Src: IPv4Addr{1, 2, 3, 4}, Dst: IPv4Addr{5, 6, 7, 8}, Proto: IPProtocolTCP, SPort: 80, DPort: 8080}
	h1, h2 := f.Hash(), f.Hash()
	if h1 != h2 {
		t.Fatal("hash not deterministic")
	}
	g := f
	g.SPort = 81
	if g.Hash() == h1 {
		t.Fatal("port change did not alter hash")
	}
}

func TestFiveTupleHashDistribution(t *testing.T) {
	// Hash must spread sequential flows across buckets reasonably evenly.
	const flows, buckets = 100000, 64
	counts := make([]int, buckets)
	for i := 0; i < flows; i++ {
		f := FiveTuple{
			Src:   IPv4FromUint32(0x0a000000 + uint32(i)),
			Dst:   IPv4Addr{10, 1, 0, 1},
			Proto: IPProtocolTCP,
			SPort: uint16(1024 + i%50000),
			DPort: 443,
		}
		counts[f.Hash()%buckets]++
	}
	want := flows / buckets
	for i, c := range counts {
		if c < want*7/10 || c > want*13/10 {
			t.Fatalf("bucket %d has %d flows, want %d±30%%", i, c, want)
		}
	}
}

func TestMetaRoundTrip(t *testing.T) {
	pkt := []byte{1, 2, 3, 4, 5}
	m := Meta{PSN: 0x8123, OrdQ: 3, Flags: MetaFlagDrop | MetaFlagHeaderOnly, PodID: 42, IngressNS: 123456789}
	tagged := AppendMeta(pkt, &m)
	if len(tagged) != len(pkt)+MetaLen {
		t.Fatalf("tagged len = %d", len(tagged))
	}
	var got Meta
	body, err := StripMeta(tagged, &got)
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Fatalf("meta mismatch: %+v != %+v", got, m)
	}
	if len(body) != 5 || body[0] != 1 {
		t.Fatalf("body = %v", body)
	}
}

func TestMetaMissing(t *testing.T) {
	var m Meta
	if _, err := StripMeta([]byte{1, 2, 3}, &m); err != ErrNoMeta {
		t.Fatalf("short err = %v", err)
	}
	junk := make([]byte, 32)
	if _, err := StripMeta(junk, &m); err != ErrNoMeta {
		t.Fatalf("bad magic err = %v", err)
	}
}

func TestAppendMetaDoesNotAlias(t *testing.T) {
	// Append must behave like append: capacity-limited base slice stays
	// intact.
	base := make([]byte, 4, 4)
	tagged := AppendMeta(base, &Meta{PSN: 1})
	tagged[0] = 0xFF
	if base[0] == 0xFF {
		t.Skip("append reused capacity (allowed, mirrors stdlib append)")
	}
}

func BenchmarkFiveTupleHash(b *testing.B) {
	f := FiveTuple{Src: IPv4Addr{1, 2, 3, 4}, Dst: IPv4Addr{5, 6, 7, 8}, Proto: IPProtocolTCP, SPort: 80, DPort: 8080}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = f.Hash()
	}
}

func BenchmarkMetaAppendStrip(b *testing.B) {
	pkt := make([]byte, 256, 256+MetaLen)
	m := Meta{PSN: 100, OrdQ: 1, PodID: 2, IngressNS: 42}
	var out Meta
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tagged := AppendMeta(pkt, &m)
		if _, err := StripMeta(tagged, &out); err != nil {
			b.Fatal(err)
		}
	}
}
