package eval

import (
	"fmt"

	"albatross/internal/cachesim"
	"albatross/internal/flowtable"
	"albatross/internal/packet"
	"albatross/internal/sim"
	"albatross/internal/stats"
	"albatross/internal/workload"
)

func init() {
	register("concury", "Concury comparison: stateless Othello steering vs a stateful session table", runConcury)
}

// runConcury reproduces the Concury argument for a stateless flow-table
// tier (PAPERS.md: "Concury: a scalable and loss-free L4 load balancer"):
//
//  1. Dataplane memory: a session table keeps a 128B record per flow and
//     thrashes the LLC once the flow count outgrows it; the Othello
//     classifier reads two 2B array cells that stay cache-resident. Both
//     backends serve the same lookup stream against the same cache model
//     and the per-packet memory cost is priced with DRAM/L3 latencies.
//  2. Update disruption: removing a pod from the pool may move only the
//     flows that were pinned to it — and restoring the pool moves none.
func runConcury(cfg Config) *Result {
	r := &Result{ID: "concury", Title: "Stateless Othello steering vs stateful session table (Concury)"}

	nflows, lookups, cacheMB := 200000, 1200000, 8
	if cfg.Quick {
		nflows, lookups, cacheMB = 20000, 120000, 1
	}
	const npods = 8
	pool := make([]int, npods)
	for i := range pool {
		pool[i] = i
	}

	flows := workload.GenerateFlows(nflows, 1000, cfg.Seed)
	sessB, err := flowtable.NewBackend("session", pool, flowtable.BackendConfig{
		Space: flowtable.NewAddrSpace(),
	})
	if err != nil {
		panic(err)
	}
	othB, err := flowtable.NewBackend("othello", pool, flowtable.BackendConfig{
		Seed: cfg.Seed, SizeHint: nflows,
	})
	if err != nil {
		panic(err)
	}

	// Pin every flow in both backends; on a healthy static pool the shared
	// AssignPod hash must make them agree flow for flow.
	assign := make([]int8, nflows)
	agree := 0
	for i, f := range flows {
		ps := flowtable.Select(sessB, f.Tuple, 0)
		po := flowtable.Select(othB, f.Tuple, 0)
		if ps == po {
			agree++
		}
		assign[i] = int8(po)
	}
	r.check("assignments-agree", agree == nflows,
		"session and othello agree on %d/%d flows of a healthy static pool", agree, nflows)

	// Dataplane memory cost: the same uniform lookup stream through two
	// identical cache models, session records vs Othello array cells. One
	// full pass warms both caches, the second is measured.
	sessTab := sessB.(interface {
		Table() *flowtable.SessionTable
	}).Table()
	othMap := othB.(interface{ Map() *flowtable.Othello }).Map()
	ccfg := cachesim.Config{SizeBytes: cacheMB << 20, Ways: 16, LineBytes: 64}
	cacheS, cacheO := cachesim.New(ccfg), cachesim.New(ccfg)
	lat := cachesim.DefaultLatency()
	const aBase, bBase = uint64(0x5a) << 40, uint64(0x5b) << 40
	touch := func(t packet.FiveTuple) {
		s := sessTab.Peek(t)
		cacheS.Access(s.Addr, 128)
		ia, ib := othMap.Slots(t)
		cacheO.Access(aBase+uint64(ia)*2, 2)
		cacheO.Access(bBase+uint64(ib)*2, 2)
	}
	rnd := sim.NewRand(cfg.Seed ^ 0xC0C0)
	stream := make([]int, lookups)
	for i := range stream {
		stream[i] = int(rnd.Uint64() % uint64(nflows))
	}
	for _, fi := range stream {
		touch(flows[fi].Tuple)
	}
	cacheS.ResetStats()
	cacheO.ResetStats()
	for _, fi := range stream {
		touch(flows[fi].Tuple)
	}
	nsS := lat.Cost(int(cacheS.Hits()), int(cacheS.Misses())) / float64(lookups)
	nsO := lat.Cost(int(cacheO.Hits()), int(cacheO.Misses())) / float64(lookups)
	ratio := nsS / nsO

	sessBytes := int64(sessTab.Len()) * 128 // sessions model 128B records
	table := stats.NewTable("Backend", "State bytes", "LLC hit rate", "Mem ns/pkt")
	table.AddRow("session", sessBytes, fmt.Sprintf("%.3f", cacheS.HitRate()), fmt.Sprintf("%.1f", nsS))
	table.AddRow("othello", othMap.ArrayBytes(), fmt.Sprintf("%.3f", cacheO.HitRate()), fmt.Sprintf("%.1f", nsO))
	r.Table = table
	r.notef("dataplane memory cost ratio session/othello = %sx on a %dMB LLC",
		fmt.Sprintf("%.2f", ratio), cacheMB)
	r.check("othello-cache-resident", cacheO.HitRate() > 0.9,
		"othello array hit rate %s (arrays %dB fit the cache)",
		fmt.Sprintf("%.3f", cacheO.HitRate()), othMap.ArrayBytes())
	r.check("session-thrashes", cacheS.HitRate() < cacheO.HitRate(),
		"session hit rate %s < othello %s (%dB of 128B records vs %dMB LLC)",
		fmt.Sprintf("%.3f", cacheS.HitRate()), fmt.Sprintf("%.3f", cacheO.HitRate()),
		sessBytes, cacheMB)
	r.check("throughput-ratio", ratio >= 1.5,
		"per-packet memory cost %s ns vs %s ns, ratio %sx >= 1.5x",
		fmt.Sprintf("%.1f", nsS), fmt.Sprintf("%.1f", nsO), fmt.Sprintf("%.2f", ratio))

	// Update disruption under pod churn: drop one pod, count moved flows.
	const dead = 3
	expected := 0
	for _, a := range assign {
		if a == dead {
			expected++
		}
	}
	shrunk := make([]int, 0, npods-1)
	for _, p := range pool {
		if p != dead {
			shrunk = append(shrunk, p)
		}
	}
	movedS := sessB.Update(shrunk)
	movedO := othB.Update(shrunk)
	rebuilds := othB.Stats().Rebuilds
	stable := 0
	for i, f := range flows {
		if assign[i] == dead {
			continue
		}
		if p, ok := othB.Lookup(f.Tuple, 0); ok && p == int(assign[i]) {
			stable++
		}
	}
	churn := stats.NewTable("Event", "session moved", "othello moved", "flows on dead pod")
	churn.AddRow("remove pod", movedS, movedO, expected)
	movedSBack := sessB.Update(pool)
	movedOBack := othB.Update(pool)
	churn.AddRow("restore pod", movedSBack, movedOBack, 0)
	r.Extras = append(r.Extras, churn)
	r.check("zero-disruption-update", movedO == expected && movedS == expected,
		"pool update moved exactly the dead pod's flows (othello %d, session %d, expected %d)",
		movedO, movedS, expected)
	r.check("survivors-pinned", stable == nflows-expected,
		"%d/%d flows on surviving pods kept their assignment", stable, nflows-expected)
	r.check("no-rebuild", rebuilds == 0,
		"othello pool update rewrote values in place (%d rebuilds)", rebuilds)
	r.check("restore-moves-none", movedOBack == 0 && movedSBack == 0,
		"restoring the pod moved no flows (othello %d, session %d)", movedOBack, movedSBack)
	return r
}
