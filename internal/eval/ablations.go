package eval

import (
	"runtime"
	"sync"
	"time"

	"albatross/internal/cachesim"
	"albatross/internal/core"
	"albatross/internal/flowtable"
	"albatross/internal/gop"
	"albatross/internal/packet"
	"albatross/internal/pod"
	"albatross/internal/service"
	"albatross/internal/stats"
	"albatross/internal/workload"
)

func init() {
	register("memfreq", "Ablation: DRAM frequency 4800 vs 5600 MHz", runMemFreq)
	registerVolatile("meta", "Ablation: PLB meta at packet tail vs head", runMetaPlacement)
	registerVolatile("stateful", "Ablation: write-heavy vs write-light stateful NFs", runStateful)
	register("gopmem", "Ablation: two-stage rate limiter memory", runGopMem)
}

// runMemFreq reproduces the §4.2 lesson: raising memory frequency from
// 4800 to 5600 MHz improved gateway performance by ~8%.
func runMemFreq(cfg Config) *Result {
	r := &Result{ID: "memfreq", Title: "Gateway performance vs memory frequency"}
	wf := workload.GenerateFlows(30000, 100, cfg.Seed)
	sf := workload.ServiceFlows(wf, 0)

	measure := func(mhz float64) float64 {
		n, err := core.NewNode(core.NodeConfig{Seed: cfg.Seed,
			Cache: cachesim.Config{SizeBytes: 4 << 20, Ways: 16, LineBytes: 64},
			Mem:   cachesim.DefaultLatency().WithDRAMFrequency(mhz),
		})
		if err != nil {
			panic(err)
		}
		pr, err := n.AddPod(core.PodConfig{
			Spec:  pod.Spec{Name: "gw", Service: service.VPCInternet, DataCores: 4, CtrlCores: 1},
			Flows: sf,
		})
		if err != nil {
			panic(err)
		}
		return pr.SaturationMpps(sf, 20000)
	}
	slow := measure(4800)
	fast := measure(5600)
	gain := (fast - slow) / slow

	table := stats.NewTable("DRAM", "Mpps (4 cores)", "Gain %")
	table.AddRow("4800 MHz", slow, 0.0)
	table.AddRow("5600 MHz", fast, gain*100)
	r.Table = table
	r.check("~8% improvement from faster memory", gain > 0.04 && gain < 0.14,
		"measured %.1f%%, paper ~8%%", gain*100)
	return r
}

// runMetaPlacement measures the real byte-shuffling cost of the two meta
// header placements from §7: appending at the packet tail (chosen) versus
// inserting at the head, which forces the packet body to shift/copy and
// cost the paper 33.6% of forwarding performance via mbuf copies.
func runMetaPlacement(cfg Config) *Result {
	r := &Result{ID: "meta", Title: "PLB meta header placement: tail append vs head insert"}

	const pktLen = 256
	iters := 100000
	if cfg.Quick {
		iters = 30000
	}
	meta := packet.Meta{PSN: 77, OrdQ: 2, PodID: 3, IngressNS: 1234567}
	pkt := make([]byte, pktLen, pktLen+packet.MetaLen)
	scratch := make([]byte, pktLen+packet.MetaLen)
	var m packet.Meta

	// Both paths do symmetric work (attach meta on ingress, detach on
	// egress); the head-insert variant additionally pays the body copies
	// that making/removing headroom forces. Each path is timed in
	// interleaved trials and the minimum is kept, so scheduler noise on a
	// shared host cannot invert the comparison.
	tailOnce := func() float64 {
		start := time.Now()
		for i := 0; i < iters; i++ {
			tagged := packet.AppendMeta(pkt[:pktLen], &meta)
			if _, err := packet.StripMeta(tagged, &m); err != nil {
				panic(err)
			}
		}
		return float64(time.Since(start).Nanoseconds()) / float64(iters)
	}
	headOnce := func() float64 {
		start := time.Now()
		for i := 0; i < iters; i++ {
			encoded := packet.AppendMeta(scratch[:0], &meta) // 16B meta at front
			copy(scratch[packet.MetaLen:], pkt)              // shift body to make headroom
			if _, err := packet.StripMeta(scratch[:packet.MetaLen+pktLen][pktLen:], &m); err == nil {
				_ = encoded
			}
			copy(scratch, scratch[packet.MetaLen:pktLen+packet.MetaLen]) // shift back
		}
		return float64(time.Since(start).Nanoseconds()) / float64(iters)
	}
	tailNS, headNS := 1e18, 1e18
	for trial := 0; trial < 5; trial++ {
		if v := tailOnce(); v < tailNS {
			tailNS = v
		}
		if v := headOnce(); v < headNS {
			headNS = v
		}
	}

	table := stats.NewTable("Placement", "ns/packet (256B)", "Relative")
	table.AddRow("tail append (chosen)", tailNS, 1.0)
	table.AddRow("head insert (copy)", headNS, headNS/tailNS)
	r.Table = table

	r.check("head insertion is slower", headNS > tailNS*1.2,
		"head %.1fns vs tail %.1fns", headNS, tailNS)
	r.notef("the paper measured a 33.6%% end-to-end forwarding hit from the extra copies; this isolates the per-packet copy cost")
	return r
}

// runStateful reproduces the §7 stateful-NF lesson: write-light NFs scale
// nearly linearly with cores, while write-heavy NFs (per-packet counter
// updates on shared state) degrade as cores are added because of lock and
// cache-coherence contention. We measure the real contention of the shared
// vs sharded tables under goroutines, and model the multi-core coherence
// curve explicitly.
func runStateful(cfg Config) *Result {
	r := &Result{ID: "stateful", Title: "Stateful NF scaling: shared vs per-core session state"}

	flows := workload.GenerateFlows(1024, 8, cfg.Seed)
	opsPerG := 200000
	if cfg.Quick {
		opsPerG = 50000
	}

	measure := func(goroutines int, shared bool) float64 {
		// Shared state: one table behind one lock, as every core of a
		// write-heavy NF under PLB sees it. Local state: one table per
		// worker, owned outright (flows are pinned, state never
		// migrates), so the write path takes no lock at all.
		var mu sync.Mutex
		sharedTable := flowtable.NewSessionTable(0, 0)
		local := make([]*flowtable.SessionTable, goroutines)
		for g := range local {
			local[g] = flowtable.NewSessionTable(0, 0)
		}
		touch := func(st *flowtable.SessionTable, key packet.FiveTuple) {
			s := st.Lookup(key, 0)
			if s == nil {
				s = st.Create(key, 0)
			}
			s.Packets++
		}
		var wg sync.WaitGroup
		start := time.Now()
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < opsPerG; i++ {
					f := flows[(i+g*31)&1023]
					if shared {
						mu.Lock()
						touch(sharedTable, f.Tuple)
						mu.Unlock()
					} else {
						touch(local[g], f.Tuple)
					}
				}
			}(g)
		}
		wg.Wait()
		total := float64(goroutines * opsPerG)
		return total / time.Since(start).Seconds() / 1e6 // Mops/s
	}

	table := stats.NewTable("Goroutines", "Shared Mops/s", "Sharded Mops/s")
	gs := []int{1, 2, 4}
	sharedAt := map[int]float64{}
	shardedAt := map[int]float64{}
	for _, g := range gs {
		sharedAt[g] = measure(g, true)
		shardedAt[g] = measure(g, false)
		table.AddRow(g, sharedAt[g], shardedAt[g])
	}
	r.Table = table

	if runtime.GOMAXPROCS(0) > 1 {
		// With real parallelism, the lock-free sharded table must win.
		r.check("sharded >= shared throughput at 4 workers",
			shardedAt[4] >= sharedAt[4]*0.95,
			"sharded %.2f vs shared %.2f Mops/s", shardedAt[4], sharedAt[4])
	} else {
		// Single-CPU host: goroutines serialize, so the shared lock is
		// never contended and the micro-benchmark only sanity-checks that
		// both mechanisms are in the same cost class.
		r.check("sharded within 2x of shared (no parallelism available)",
			shardedAt[4] >= sharedAt[4]*0.5,
			"sharded %.2f vs shared %.2f Mops/s on GOMAXPROCS=1", shardedAt[4], sharedAt[4])
	}
	r.notef("host has GOMAXPROCS=%d; true multi-core coherence collapse needs real cores", runtime.GOMAXPROCS(0))

	// Coherence model: per-packet cost on shared state grows by a
	// cache-line ping-pong penalty per extra writer, so aggregate
	// throughput flattens then falls; per-core local state scales linearly.
	model := stats.NewTable("Cores", "Write-heavy shared (rel)", "Write-light/local (rel)")
	base, coherence := 1.0, 0.45
	peak := 0.0
	last := 0.0
	for _, c := range []int{1, 2, 4, 8, 16, 32} {
		shared := float64(c) * base / (base + coherence*float64(c-1))
		local := float64(c)
		model.AddRow(c, shared, local)
		if shared > peak {
			peak = shared
		}
		last = shared
	}
	r.notef("coherence model:\n%s", model.String())
	r.check("modelled write-heavy scaling saturates", last < float64(32)*0.25,
		"32-core shared throughput %.1fx vs 32x ideal", last)
	r.check("model peak bounded", peak < 3.5, "peak %.2fx", peak)
	return r
}

func runGopMem(cfg Config) *Result {
	r := &Result{ID: "gopmem", Title: "Two-stage rate limiter SRAM budget"}
	l, err := gop.NewLimiter(gop.DefaultConfig())
	if err != nil {
		panic(err)
	}
	naive := gop.NaiveSRAMBytes(1_000_000)
	two := l.SRAMBytes()

	table := stats.NewTable("Scheme", "SRAM for 1M tenants", "Entries")
	table.AddRow("Per-tenant meters (naive)", naive, 1000000)
	table.AddRow("Two-stage (color+meter+pre)", two, 4096+4096+2*128)
	r.Table = table

	r.check(">200MB naive", naive >= 200e6, "%d bytes", naive)
	r.check("<=2MB two-stage", two <= 2<<20, "%d bytes", two)
	r.check("~100x reduction", naive/two >= 100, "%dx", naive/two)
	return r
}
