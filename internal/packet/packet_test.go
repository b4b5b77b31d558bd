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

func BenchmarkFiveTupleHash(b *testing.B) {
	f := FiveTuple{Src: IPv4Addr{1, 2, 3, 4}, Dst: IPv4Addr{5, 6, 7, 8}, Proto: IPProtocolTCP, SPort: 80, DPort: 8080}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = f.Hash()
	}
}
