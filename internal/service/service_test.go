package service

import (
	"testing"

	"albatross/internal/cachesim"
	"albatross/internal/flowtable"
	"albatross/internal/packet"
	"albatross/internal/sim"
)

func testFlows(n int, seed uint64) []Flow {
	r := sim.NewRand(seed)
	flows := make([]Flow, n)
	for i := range flows {
		flows[i] = Flow{
			Tuple: packet.FiveTuple{
				Src:   packet.IPv4FromUint32(0x0a000000 | r.Uint32()&0x00ffffff),
				Dst:   packet.IPv4FromUint32(0x30000000 | r.Uint32()&0x000fffff),
				Proto: packet.IPProtocolTCP,
				SPort: uint16(1024 + r.Intn(60000)),
				DPort: 443,
			},
			VNI: r.Uint32() % 100000,
		}
	}
	return flows
}

func newService(t testing.TB, typ Type, flows []Flow) *Service {
	t.Helper()
	s, err := New(Config{
		Type:  typ,
		Cache: cachesim.New(cachesim.Config{SizeBytes: 4 << 20, Ways: 16, LineBytes: 64}),
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Populate(flows)
	return s
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Type: Type(99), Cache: cachesim.New(cachesim.DefaultL3())}); err == nil {
		t.Fatal("unknown type accepted")
	}
	if _, err := New(Config{Type: VPCVPC}); err == nil {
		t.Fatal("nil cache accepted")
	}
}

func TestTypeStrings(t *testing.T) {
	names := map[Type]string{
		VPCVPC: "VPC-VPC", VPCInternet: "VPC-Internet",
		VPCIDC: "VPC-IDC", VPCCloudService: "VPC-CloudService",
	}
	for typ, want := range names {
		if typ.String() != want {
			t.Errorf("%d = %q, want %q", typ, typ.String(), want)
		}
	}
	if Type(42).String() != "service(42)" {
		t.Error("unknown type string")
	}
	if len(All) != 4 {
		t.Error("All should list 4 services")
	}
}

func TestProcessKnownFlow(t *testing.T) {
	flows := testFlows(100, 1)
	s := newService(t, VPCVPC, flows)
	res := s.Process(flows[0].Tuple, flows[0].VNI)
	if res.Drop {
		t.Fatal("known flow dropped")
	}
	if res.Cost <= 0 {
		t.Fatalf("cost = %v", res.Cost)
	}
	if res.Hits+res.Misses == 0 {
		t.Fatal("no memory accesses recorded")
	}
	// 3 tables x 2 lines + 1 LPM x 3 lines = 9 accesses.
	if res.Hits+res.Misses != 9 {
		t.Fatalf("accesses = %d, want 9 for VPC-VPC", res.Hits+res.Misses)
	}
}

func TestProcessUnknownFlowDrops(t *testing.T) {
	s := newService(t, VPCVPC, testFlows(10, 1))
	unknown := packet.FiveTuple{Src: packet.IPv4Addr{1, 2, 3, 4}, Dst: packet.IPv4Addr{5, 6, 7, 8}, Proto: packet.IPProtocolUDP, SPort: 9, DPort: 9}
	if res := s.Process(unknown, 0); !res.Drop {
		t.Fatal("unknown flow passed")
	}
}

func TestACLDeniedFlowDrops(t *testing.T) {
	flows := testFlows(10, 1)
	flows[3].Denied = true
	s := newService(t, VPCInternet, flows)
	if res := s.Process(flows[3].Tuple, flows[3].VNI); !res.Drop {
		t.Fatal("denied flow passed")
	}
	if res := s.Process(flows[4].Tuple, flows[4].VNI); res.Drop {
		t.Fatal("allowed flow dropped")
	}
}

func TestServiceChains(t *testing.T) {
	for _, typ := range All {
		s := newService(t, typ, testFlows(10, 2))
		if s.Type() != typ {
			t.Fatalf("type = %v", s.Type())
		}
		if s.NumTables() < 3 {
			t.Fatalf("%v has %d tables", typ, s.NumTables())
		}
		if s.LPMLookups() < 1 {
			t.Fatalf("%v has %d LPM lookups", typ, s.LPMLookups())
		}
	}
	inet := newService(t, VPCInternet, testFlows(10, 2))
	vpc := newService(t, VPCVPC, testFlows(10, 2))
	if inet.NumTables() <= vpc.NumTables() {
		t.Fatal("VPC-Internet must chain more tables than VPC-VPC")
	}
}

func TestCostOrderingAcrossServices(t *testing.T) {
	// With a shared cold cache and identical flows, VPC-Internet must be
	// the most expensive service (paper Tab. 3: 81.6 vs ~120+ Mpps).
	flows := testFlows(50000, 3)
	cost := map[Type]float64{}
	for _, typ := range All {
		s := newService(t, typ, flows)
		var total sim.Duration
		const probes = 20000
		r := sim.NewRand(7)
		for i := 0; i < probes; i++ {
			f := flows[r.Intn(len(flows))]
			total += s.Process(f.Tuple, f.VNI).Cost
		}
		cost[typ] = float64(total) / probes
	}
	for _, typ := range []Type{VPCVPC, VPCIDC, VPCCloudService} {
		if cost[VPCInternet] <= cost[typ] {
			t.Fatalf("VPC-Internet (%.0fns) not slower than %v (%.0fns)",
				cost[VPCInternet], typ, cost[typ])
		}
	}
	if cost[VPCVPC] >= cost[VPCIDC] {
		t.Fatalf("VPC-VPC (%.0fns) should be cheaper than VPC-IDC (%.0fns)",
			cost[VPCVPC], cost[VPCIDC])
	}
}

func TestMemoryMultIncreasesCost(t *testing.T) {
	flows := testFlows(20000, 4)
	mk := func(memMult float64) float64 {
		s, err := New(Config{
			Type:       VPCVPC,
			Cache:      cachesim.New(cachesim.Config{SizeBytes: 1 << 20, Ways: 16, LineBytes: 64}),
			MemoryMult: memMult,
		})
		if err != nil {
			t.Fatal(err)
		}
		s.Populate(flows)
		var total sim.Duration
		r := sim.NewRand(5)
		for i := 0; i < 10000; i++ {
			f := flows[r.Intn(len(flows))]
			total += s.Process(f.Tuple, f.VNI).Cost
		}
		return float64(total) / 10000
	}
	base := mk(1.0)
	cross := mk(1.3)
	if cross <= base {
		t.Fatalf("cross-NUMA cost %.0f <= intra %.0f", cross, base)
	}
	// Memory-bound service: a 30% memory penalty should show up as a
	// 10-30% total increase (diluted by the compute portion).
	ratio := cross / base
	if ratio < 1.05 || ratio > 1.35 {
		t.Fatalf("cross/intra ratio = %.3f, outside plausible range", ratio)
	}
}

func TestFasterDRAMReducesCost(t *testing.T) {
	flows := testFlows(20000, 6)
	mk := func(mhz float64) float64 {
		s, err := New(Config{
			Type:    VPCInternet,
			Cache:   cachesim.New(cachesim.Config{SizeBytes: 1 << 20, Ways: 16, LineBytes: 64}),
			Latency: cachesim.DefaultLatency().WithDRAMFrequency(mhz),
		})
		if err != nil {
			t.Fatal(err)
		}
		s.Populate(flows)
		var total sim.Duration
		r := sim.NewRand(5)
		for i := 0; i < 10000; i++ {
			f := flows[r.Intn(len(flows))]
			total += s.Process(f.Tuple, f.VNI).Cost
		}
		return float64(total) / 10000
	}
	slow := mk(4800)
	fast := mk(5600)
	improvement := (slow - fast) / slow
	// Paper §4.2: 4800->5600MHz gave ~8% end-to-end improvement.
	if improvement < 0.03 || improvement > 0.15 {
		t.Fatalf("memory frequency improvement = %.1f%%, want ~8%%", improvement*100)
	}
}

func TestCacheHitRateInPaperRange(t *testing.T) {
	// The Fig. 5 reproduction at test scale: a scaled cache (4MB) with a
	// proportionally scaled flow count must settle in a thrashing regime,
	// well below 80% and above 10%.
	flows := testFlows(50000, 8)
	cache := cachesim.New(cachesim.Config{SizeBytes: 4 << 20, Ways: 16, LineBytes: 64})
	s, err := New(Config{Type: VPCInternet, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	s.Populate(flows)
	r := sim.NewRand(9)
	for i := 0; i < 100000; i++ {
		f := flows[r.Intn(len(flows))]
		s.Process(f.Tuple, f.VNI)
	}
	cache.ResetStats()
	for i := 0; i < 100000; i++ {
		f := flows[r.Intn(len(flows))]
		s.Process(f.Tuple, f.VNI)
	}
	hr := cache.HitRate()
	if hr < 0.10 || hr > 0.80 {
		t.Fatalf("L3 hit rate = %.2f, want thrashing regime", hr)
	}
}

func TestTableMemory(t *testing.T) {
	flows := testFlows(1000, 10)
	s := newService(t, VPCVPC, flows)
	if s.TableMemoryBytes() < int64(1000*3*100) {
		t.Fatalf("table memory = %d", s.TableMemoryBytes())
	}
}

func TestProcessDeterministic(t *testing.T) {
	run := func() sim.Duration {
		flows := testFlows(1000, 11)
		s := newService(t, VPCIDC, flows)
		var total sim.Duration
		for i := 0; i < 5000; i++ {
			f := flows[i%len(flows)]
			total += s.Process(f.Tuple, f.VNI).Cost
		}
		return total
	}
	if run() != run() {
		t.Fatal("service cost not deterministic")
	}
}

// benchProcess times Process on the shapes of the repo benchmark's two
// single-node workloads: hot-10k sweeps 10 000 flows in a cycle (node-perpkt:
// tables and modelled working set fit the host cache), cold-750k draws
// uniformly from 750 000 (node-burst-miss: every index probe and every tag
// set is a host cache miss).
func benchProcess(b *testing.B, typ Type) {
	for _, bc := range []struct {
		name    string
		flows   int
		uniform bool
	}{
		{"hot-10k", 10_000, false},
		{"cold-750k", 750_000, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			flows := testFlows(bc.flows, 12)
			s, err := New(Config{Type: typ, Cache: cachesim.New(cachesim.DefaultL3())})
			if err != nil {
				b.Fatal(err)
			}
			s.Populate(flows)
			order := make([]int32, len(flows))
			r := sim.NewRand(13)
			for i := range order {
				order[i] = int32(i)
				if bc.uniform {
					order[i] = int32(r.Intn(len(flows)))
				}
			}
			for _, i := range order { // fill the cache model to steady state
				s.Process(flows[i].Tuple, flows[i].VNI)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i, j := 0, 0; i < b.N; i++ {
				f := flows[order[j]]
				if j++; j == len(order) {
					j = 0
				}
				s.Process(f.Tuple, f.VNI)
			}
		})
	}
}

func BenchmarkProcessVPCVPC(b *testing.B)      { benchProcess(b, VPCVPC) }
func BenchmarkProcessVPCInternet(b *testing.B) { benchProcess(b, VPCInternet) }

// BenchmarkBuildTables times BuildTables on the two shapes above: 10k flows
// build a slot array that fits the host cache, 750k a 32 MB one that does not.
func BenchmarkBuildTables(b *testing.B) {
	for _, bc := range []struct {
		name  string
		flows int
	}{{"10k", 10_000}, {"750k", 750_000}} {
		b.Run(bc.name, func(b *testing.B) {
			flows := testFlows(bc.flows, 12)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				BuildTables(flows)
			}
		})
	}
}

// BuildTables' grouping changes when each flow is hashed, not the order flows
// go in: every flow's ordinal, the key count and every probe slot's (hash,
// ordinal+1), read through WarmHash, equal those of an index filled by
// one-at-a-time Insert. The small sizes straddle buildGroup, and every fifth
// flow repeats one up to 19 places back, in its group or before.
func TestBuildTablesMatchesSequentialInsert(t *testing.T) {
	for _, n := range []int{0, 1, buildGroup - 1, buildGroup, buildGroup + 1, 10_000, 100_000} {
		flows := testFlows(n, uint64(n)+5)
		for i := range flows {
			if i%5 == 4 {
				flows[i].Tuple = flows[max(0, i-1-i%19)].Tuple
			}
		}
		seq := flowtable.NewIndex(len(flows))
		want := make([]uint64, len(flows))
		for i, f := range flows {
			want[i], _ = seq.Insert(f.Tuple)
		}
		got := BuildTables(flows).index
		if got.Len() != seq.Len() {
			t.Fatalf("%d flows: Len = %d, sequential Insert %d", n, got.Len(), seq.Len())
		}
		for i, f := range flows {
			if ord, ok := got.LookupHash(f.Tuple, f.Tuple.Hash()); !ok || ord != want[i] {
				t.Fatalf("%d flows: flow %d has ordinal %d (found %v), sequential Insert %d", n, i, ord, ok, want[i])
			}
		}
		// Slot arrays hold fewer than 4n+16 slots, so these heads cover each
		// of them, wrapping.
		for h := uint32(0); h < uint32(4*n+16); h++ {
			if a, b := got.WarmHash(h), seq.WarmHash(h); a != b {
				t.Fatalf("%d flows: probe head %d holds %#x, sequential Insert %#x", n, h, a, b)
			}
		}
	}
}

// TestTenantOrdinals holds BuildTables' tenant ordinals to a map built in
// flow order: each distinct VNI gets the next ordinal on its first flow,
// across every growth of the tenant array, and a VNI no flow carries has
// none.
func TestTenantOrdinals(t *testing.T) {
	for _, n := range []int{0, 1, 7, 3000} {
		flows := testFlows(n, uint64(n))
		for i := range flows {
			flows[i].VNI %= 1500 // repeats, and VNI 0
		}
		tb := BuildTables(flows)
		want := map[uint32]int{}
		for _, f := range flows {
			if _, ok := want[f.VNI]; !ok {
				want[f.VNI] = len(want)
			}
		}
		if tb.Tenants() != len(want) {
			t.Fatalf("%d flows: Tenants() = %d, want %d", n, tb.Tenants(), len(want))
		}
		for vni := uint32(0); vni < 1600; vni++ {
			ord, ok := tb.TenantOrdinal(vni)
			wantOrd, wantOK := want[vni]
			if ok != wantOK || ord != wantOrd {
				t.Fatalf("%d flows: TenantOrdinal(%d) = %d/%v, want %d/%v", n, vni, ord, ok, wantOrd, wantOK)
			}
		}
	}
}
