package nicsim

import (
	"math"
	"testing"
	"testing/quick"

	"albatross/internal/packet"
	"albatross/internal/sim"
)

func flow(proto packet.IPProtocol, dport uint16) packet.FiveTuple {
	return packet.FiveTuple{
		Src: packet.IPv4Addr{10, 0, 0, 1}, Dst: packet.IPv4Addr{10, 0, 0, 2},
		Proto: proto, SPort: 40000, DPort: dport,
	}
}

func TestClassStrings(t *testing.T) {
	if ClassPLB.String() != "PLB" || ClassRSS.String() != "RSS" || ClassPriority.String() != "priority" {
		t.Fatal("class strings")
	}
	if Class(9).String() != "class(9)" {
		t.Fatal("unknown class string")
	}
	if FullPacket.String() != "full-packet" || HeaderOnly.String() != "header-only" {
		t.Fatal("mode strings")
	}
}

func TestDefaultClassifier(t *testing.T) {
	c := DefaultClassifier()
	cases := []struct {
		f    packet.FiveTuple
		want Class
	}{
		{flow(packet.IPProtocolTCP, 179), ClassPriority},  // BGP
		{flow(packet.IPProtocolUDP, 3784), ClassPriority}, // BFD
		{flow(packet.IPProtocolUDP, 4784), ClassPriority}, // multihop BFD
		{flow(packet.IPProtocolICMP, 0), ClassRSS},        // health check
		{flow(packet.IPProtocolTCP, 443), ClassPLB},       // tenant data
		{flow(packet.IPProtocolUDP, 53), ClassPLB},
	}
	for i, cse := range cases {
		got, _ := c.ClassifyFlow(cse.f)
		if got != cse.want {
			t.Errorf("case %d: class = %v, want %v", i, got, cse.want)
		}
	}
	if len(c.rules) != 4 {
		t.Fatalf("rules = %d", len(c.rules))
	}
}

func TestClassifierFirstMatchWins(t *testing.T) {
	c := NewClassifier(ClassPLB, FullPacket)
	c.AddRule(Rule{Proto: packet.IPProtocolTCP, Class: ClassRSS})
	c.AddRule(Rule{Proto: packet.IPProtocolTCP, DstPort: 179, Class: ClassPriority})
	got, _ := c.ClassifyFlow(flow(packet.IPProtocolTCP, 179))
	if got != ClassRSS {
		t.Fatalf("first-match = %v, want RSS (rule order)", got)
	}
}

func TestClassifierHeaderOnlyMode(t *testing.T) {
	c := NewClassifier(ClassPLB, HeaderOnly)
	_, mode := c.ClassifyFlow(flow(packet.IPProtocolTCP, 80))
	if mode != HeaderOnly {
		t.Fatal("default mode not applied")
	}
	c.AddRule(Rule{Proto: packet.IPProtocolUDP, Class: ClassPLB, Mode: FullPacket})
	_, mode = c.ClassifyFlow(flow(packet.IPProtocolUDP, 80))
	if mode != FullPacket {
		t.Fatal("rule mode not applied")
	}
}

func TestLatencyModelTab4(t *testing.T) {
	m := DefaultLatencyModel()
	us := func(d sim.Duration) float64 { return d.Micros() }

	// Tab. 4 sums: RX 3.90µs, TX 4.17µs for the PLB path.
	rx := m.IngressLatency(ClassPLB)
	tx := m.EgressLatency(ClassPLB)
	if math.Abs(us(rx)-3.90) > 0.01 {
		t.Fatalf("PLB ingress = %.2fµs, want 3.90", us(rx))
	}
	if math.Abs(us(tx)-4.17) > 0.01 {
		t.Fatalf("PLB egress = %.2fµs, want 4.17", us(tx))
	}
	// Paper: overall NIC RX+TX ≈ 8µs.
	if rt := m.RoundTrip(ClassPLB); math.Abs(us(rt)-8.07) > 0.02 {
		t.Fatalf("round trip = %.2fµs", us(rt))
	}
	// Priority path skips overload detection and PLB.
	if m.IngressLatency(ClassPriority) >= rx {
		t.Fatal("priority ingress should be cheaper than PLB")
	}
	// RSS path skips only PLB.
	rss := m.IngressLatency(ClassRSS)
	if rss >= rx || rss <= m.IngressLatency(ClassPriority) {
		t.Fatalf("RSS ingress = %v, want between priority and PLB", rss)
	}
	// DMA dominates (paper's observation).
	if m.DMA.RX < m.Basic.RX+m.OverloadDet.RX+m.PLB.RX {
		t.Fatal("DMA should dominate the ingress latency")
	}
}

func TestResourceModelTab5(t *testing.T) {
	r := DefaultResourceModel()
	s := r.Sum()
	if math.Abs(s.LUTPct-60.0) > 0.01 {
		t.Fatalf("LUT sum = %.1f%%, want 60.0%%", s.LUTPct)
	}
	if math.Abs(s.BRAMPct-44.5) > 0.01 {
		t.Fatalf("BRAM sum = %.1f%%, want 44.5%%", s.BRAMPct)
	}
	h := r.Headroom()
	if h.LUTPct < 39 || h.BRAMPct < 55 {
		t.Fatalf("headroom = %+v, paper reserves room for future offloads", h)
	}
	if r.TotalLUTs != 912800 || r.TotalBRAMBits != 265<<20 {
		t.Fatal("FPGA totals wrong")
	}
}

func TestPLBBRAMWithinBudget(t *testing.T) {
	// 8 queues x 4K entries must fit inside PLB's 5% BRAM share of a
	// 265Mbit chip (= ~1.66MB).
	bytes := PLBBRAMBytes(8, 4096)
	budget := int64(float64(265<<20) * 0.05 / 8)
	if bytes > budget {
		t.Fatalf("PLB reorder structures = %d B > 5%% BRAM budget %d B", bytes, budget)
	}
	if bytes <= 0 {
		t.Fatal("non-positive BRAM estimate")
	}
	// Scales linearly in queues.
	if PLBBRAMBytes(4, 4096)*2 != bytes {
		t.Fatal("BRAM not linear in queue count")
	}
}

func TestPayloadBufferStoreTake(t *testing.T) {
	b := NewPayloadBuffer(1000)
	if !b.Store(1, 400) || !b.Store(2, 400) {
		t.Fatal("stores failed")
	}
	if b.used != 800 {
		t.Fatalf("used = %d", b.used)
	}
	if b.Store(1, 100) {
		t.Fatal("duplicate id accepted")
	}
	if !b.Has(1) || !b.Take(1) {
		t.Fatal("take failed")
	}
	if b.Take(1) {
		t.Fatal("double take succeeded")
	}
	if b.used != 400 {
		t.Fatalf("used = %d", b.used)
	}
}

func TestPayloadBufferEviction(t *testing.T) {
	b := NewPayloadBuffer(1000)
	b.Store(1, 400)
	b.Store(2, 400)
	// Needs 400 more: evicts id 1 (oldest).
	if !b.Store(3, 400) {
		t.Fatal("store with eviction failed")
	}
	if b.Has(1) {
		t.Fatal("oldest payload not evicted")
	}
	if !b.Has(2) || !b.Has(3) {
		t.Fatal("wrong payloads evicted")
	}
	if b.Evictions != 1 {
		t.Fatalf("evictions = %d", b.Evictions)
	}
	// Oversized store rejected outright.
	if b.Store(9, 2000) {
		t.Fatal("oversized store accepted")
	}
}

func TestPayloadBufferDefaults(t *testing.T) {
	b := NewPayloadBuffer(0)
	if !b.Store(1, 1<<20) {
		t.Fatal("default-capacity store failed")
	}
}

func TestPayloadBufferInvariantProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		b := NewPayloadBuffer(4096)
		id := uint64(0)
		for _, op := range ops {
			if op%3 == 0 {
				id++
				b.Store(id, int(op%2048)+1)
			} else if id > 0 {
				b.Take(uint64(op) % id)
			}
			if b.used < 0 || b.used > 4096 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPCIeSavings(t *testing.T) {
	// A jumbo frame: 8500B payload, ~100B headers => >98% savings.
	s := PCIeSavings(8600, 100)
	if s < 0.98 {
		t.Fatalf("jumbo savings = %v", s)
	}
	// 256B packet with 100B headers.
	if got := PCIeSavings(256, 100); math.Abs(got-0.609) > 0.01 {
		t.Fatalf("small packet savings = %v", got)
	}
	if PCIeSavings(100, 100) != 0 || PCIeSavings(0, 10) != 0 {
		t.Fatal("degenerate savings not zero")
	}
}

func BenchmarkClassifyFlow(b *testing.B) {
	c := DefaultClassifier()
	f := flow(packet.IPProtocolTCP, 443)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.ClassifyFlow(f)
	}
}
