package rss

import (
	"testing"

	"albatross/internal/packet"
	"albatross/internal/sim"
)

// Microsoft RSS verification suite vectors (IPv4 with TCP ports), the
// canonical test set every RSS implementation is validated against.
func TestToeplitzKnownVectors(t *testing.T) {
	cases := []struct {
		srcIP, dstIP     [4]byte
		srcPort, dstPort uint16
		want             uint32
	}{
		// dst 161.142.100.80:1766 <- src 66.9.149.187:2794
		{[4]byte{66, 9, 149, 187}, [4]byte{161, 142, 100, 80}, 2794, 1766, 0x51ccc178},
		// dst 65.69.140.83:4739 <- src 199.92.111.2:14230
		{[4]byte{199, 92, 111, 2}, [4]byte{65, 69, 140, 83}, 14230, 4739, 0xc626b0ea},
		// dst 12.22.207.184:38024 <- src 24.19.198.95:12898
		{[4]byte{24, 19, 198, 95}, [4]byte{12, 22, 207, 184}, 12898, 38024, 0x5c2b394a},
		// dst 209.142.163.6:2217 <- src 38.27.205.30:48228
		{[4]byte{38, 27, 205, 30}, [4]byte{209, 142, 163, 6}, 48228, 2217, 0xafc7327f},
		// dst 202.188.127.2:1303 <- src 153.39.163.191:44251
		{[4]byte{153, 39, 163, 191}, [4]byte{202, 188, 127, 2}, 44251, 1303, 0x10e828a2},
	}
	for i, c := range cases {
		f := packet.FiveTuple{
			Src: packet.IPv4Addr(c.srcIP), Dst: packet.IPv4Addr(c.dstIP),
			Proto: packet.IPProtocolTCP, SPort: c.srcPort, DPort: c.dstPort,
		}
		if got := HashTCPv4(DefaultKey[:], f); got != c.want {
			t.Errorf("vector %d: hash = %#08x, want %#08x", i, got, c.want)
		}
	}
}

// IPv4-only (2-tuple) vectors from the same suite.
func TestToeplitzIPOnlyVectors(t *testing.T) {
	cases := []struct {
		src, dst [4]byte
		want     uint32
	}{
		{[4]byte{66, 9, 149, 187}, [4]byte{161, 142, 100, 80}, 0x323e8fc2},
		{[4]byte{199, 92, 111, 2}, [4]byte{65, 69, 140, 83}, 0xd718262a},
		{[4]byte{24, 19, 198, 95}, [4]byte{12, 22, 207, 184}, 0xd2d0a5de},
	}
	for i, c := range cases {
		if got := HashIPv4(DefaultKey[:], packet.IPv4Addr(c.src), packet.IPv4Addr(c.dst)); got != c.want {
			t.Errorf("vector %d: hash = %#08x, want %#08x", i, got, c.want)
		}
	}
}

func TestToeplitzShortKey(t *testing.T) {
	if Toeplitz([]byte{1, 2}, []byte{3}) != 0 {
		t.Fatal("short key should return 0")
	}
}

func TestToeplitzZeroInput(t *testing.T) {
	if Toeplitz(DefaultKey[:], []byte{0, 0, 0, 0}) != 0 {
		t.Fatal("all-zero input must hash to 0")
	}
	if Toeplitz(DefaultKey[:], nil) != 0 {
		t.Fatal("empty input must hash to 0")
	}
}

func TestEngineValidation(t *testing.T) {
	if _, err := NewEngine(0, 128); err == nil {
		t.Fatal("0 queues accepted")
	}
	if _, err := NewEngine(4, 100); err == nil {
		t.Fatal("non-power-of-two table accepted")
	}
	e, err := NewEngine(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.table) != 128 {
		t.Fatalf("default table size = %d", len(e.table))
	}
}

func TestEngineFlowAffinity(t *testing.T) {
	e, _ := NewEngine(8, 128)
	f := packet.FiveTuple{
		Src: packet.IPv4Addr{10, 0, 0, 1}, Dst: packet.IPv4Addr{10, 0, 0, 2},
		Proto: packet.IPProtocolTCP, SPort: 1234, DPort: 80,
	}
	q := e.Queue(f)
	for i := 0; i < 100; i++ {
		if e.Queue(f) != q {
			t.Fatal("flow affinity broken")
		}
	}
	if q < 0 || q >= 8 {
		t.Fatalf("queue %d out of range", q)
	}
}

func TestEngineSpreadsFlows(t *testing.T) {
	e, _ := NewEngine(8, 128)
	r := sim.NewRand(1)
	counts := make([]int, 8)
	const flows = 20000
	for i := 0; i < flows; i++ {
		f := packet.FiveTuple{
			Src:   packet.IPv4FromUint32(r.Uint32()),
			Dst:   packet.IPv4FromUint32(r.Uint32()),
			Proto: packet.IPProtocolTCP,
			SPort: uint16(r.Uint32()), DPort: 443,
		}
		counts[e.Queue(f)]++
	}
	for q, c := range counts {
		if c < flows/8*7/10 || c > flows/8*13/10 {
			t.Fatalf("queue %d has %d flows, want ~%d", q, c, flows/8)
		}
	}
}

func TestEngineNonTCPUsesTwoTuple(t *testing.T) {
	e, _ := NewEngine(4, 128)
	// Two ICMP "flows" with different ports must map identically (ports
	// ignored for non-TCP/UDP).
	base := packet.FiveTuple{
		Src: packet.IPv4Addr{1, 2, 3, 4}, Dst: packet.IPv4Addr{5, 6, 7, 8},
		Proto: packet.IPProtocolICMP,
	}
	other := base
	other.SPort, other.DPort = 111, 222
	if e.Queue(base) != e.Queue(other) {
		t.Fatal("ICMP hashing should ignore ports")
	}
}

func TestSetIndirection(t *testing.T) {
	e, _ := NewEngine(4, 8)
	e.table = []int{0, 0, 0, 0, 1, 1, 1, 1}
	// All queues now 0 or 1.
	r := sim.NewRand(2)
	for i := 0; i < 1000; i++ {
		f := packet.FiveTuple{
			Src:   packet.IPv4FromUint32(r.Uint32()),
			Dst:   packet.IPv4FromUint32(r.Uint32()),
			Proto: packet.IPProtocolUDP,
			SPort: uint16(r.Uint32()), DPort: 53,
		}
		if q := e.Queue(f); q != 0 && q != 1 {
			t.Fatalf("queue %d after reprogramming", q)
		}
	}
}

func TestSetKeyChangesMapping(t *testing.T) {
	e, _ := NewEngine(16, 128)
	r := sim.NewRand(3)
	flows := make([]packet.FiveTuple, 500)
	for i := range flows {
		flows[i] = packet.FiveTuple{
			Src:   packet.IPv4FromUint32(r.Uint32()),
			Dst:   packet.IPv4FromUint32(r.Uint32()),
			Proto: packet.IPProtocolTCP,
			SPort: uint16(r.Uint32()), DPort: 80,
		}
	}
	before := make([]int, len(flows))
	for i, f := range flows {
		before[i] = e.Queue(f)
	}
	var newKey [40]byte
	for i := range newKey {
		newKey[i] = byte(r.Uint32())
	}
	e.key = newKey
	moved := 0
	for i, f := range flows {
		if e.Queue(f) != before[i] {
			moved++
		}
	}
	if moved < len(flows)/2 {
		t.Fatalf("only %d/%d flows moved after key change", moved, len(flows))
	}
}

func BenchmarkToeplitzHash(b *testing.B) {
	f := packet.FiveTuple{
		Src: packet.IPv4Addr{192, 168, 1, 1}, Dst: packet.IPv4Addr{10, 0, 0, 1},
		Proto: packet.IPProtocolTCP, SPort: 12345, DPort: 443,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = HashTCPv4(DefaultKey[:], f)
	}
}

func BenchmarkEngineQueue(b *testing.B) {
	e, _ := NewEngine(44, 128)
	f := packet.FiveTuple{
		Src: packet.IPv4Addr{192, 168, 1, 1}, Dst: packet.IPv4Addr{10, 0, 0, 1},
		Proto: packet.IPProtocolTCP, SPort: 12345, DPort: 443,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = e.Queue(f)
	}
}
