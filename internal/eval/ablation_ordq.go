package eval

import (
	"albatross/internal/plb"
	"albatross/internal/sim"
	"albatross/internal/stats"
)

func init() {
	register("ordq", "Ablation: reorder queue count, the paper's C1/C2 tradeoff", runOrdQ)
}

// runOrdQ reproduces the §4.1 design discussion: with a fixed FPGA buffer,
// splitting it into more order-preserving queues shrinks each queue —
// reducing the heavy-hitter burst a single queue can absorb (C1) — while
// fewer queues concentrate HOL blocking: one stuck head stalls a larger
// share of traffic (C2). Albatross picks 1-8 queues per pod as the
// balance; this experiment measures both extremes directly on the real
// reorder engine.
func runOrdQ(cfg Config) *Result {
	r := &Result{ID: "ordq", Title: "Reorder queues: heavy-hitter tolerance (C1) vs HOL exposure (C2)"}

	const totalBuffer = 32768 // entries across all queues (fixed FPGA RAM)

	// --- C1: single-flow burst absorption ----------------------------
	// A heavy hitter bursts B packets into ONE flow (= one order queue)
	// while the CPU drains slowly. Queues beyond the hitter's are idle, so
	// only its own queue's depth matters.
	burstDrops := func(queues int) uint64 {
		e := sim.NewEngine()
		p, err := plb.New(e, plb.Config{
			NumOrderQueues: queues,
			QueueDepth:     totalBuffer / queues,
			Timeout:        100 * sim.Microsecond,
			NumCores:       8,
		}, func(plb.Emission) {})
		if err != nil {
			panic(err)
		}
		const burst = 24000
		var drops uint64
		for i := 0; i < burst; i++ {
			// Same flow hash: one queue takes the whole burst.
			_, m, ok := p.Dispatch(42)
			if !ok {
				drops++
				continue
			}
			// CPU far behind: returns happen ~1ms later (past timeout, so
			// nothing frees the FIFO during the burst).
			e.After(sim.Millisecond, func() { p.Return(nil, m) })
		}
		e.Run()
		return drops
	}

	// --- C2: HOL blast radius of a silent drop ------------------------
	// Uniform traffic across many flows; a fraction of packets is silently
	// lost at the CPU (never returned). Each loss HOL-blocks its queue
	// until the 100µs timeout; with more queues, the blast radius shrinks.
	holP99 := func(queues int) float64 {
		e := sim.NewEngine()
		lat := stats.NewLatencyHistogram()
		type pend struct {
			t0 sim.Time
		}
		var p *plb.PLB
		var err error
		p, err = plb.New(e, plb.Config{
			NumOrderQueues: queues,
			QueueDepth:     totalBuffer / queues,
			Timeout:        100 * sim.Microsecond,
			NumCores:       8,
		}, func(em plb.Emission) {
			if ctx, ok := em.Item.(*pend); ok && ctx != nil {
				lat.Record(int64(e.Now().Sub(ctx.t0)))
			}
		})
		if err != nil {
			panic(err)
		}
		rng := sim.NewRand(cfg.Seed ^ 0x0dd)
		n := 200000
		if cfg.Quick {
			n = 60000
		}
		for i := 0; i < n; i++ {
			i := i
			at := sim.Time(i) * sim.Time(500) // 2Mpps offered
			e.At(at, func() {
				flow := rng.Uint32()
				_, m, ok := p.Dispatch(flow)
				if !ok {
					return
				}
				if rng.Float64() < 0.001 {
					return // silent CPU loss: HOL until timeout
				}
				ctx := &pend{t0: e.Now()}
				e.After(5*sim.Microsecond, func() { p.Return(ctx, m) })
			})
		}
		e.Run()
		return float64(lat.Quantile(0.99)) / 1000 // µs
	}

	table := stats.NewTable("Queues", "Per-queue depth", "C1: burst drops (24K burst)", "C2: p99 µs (0.1% silent loss)")
	drops := map[int]uint64{}
	p99s := map[int]float64{}
	for _, q := range []int{1, 2, 4, 8} {
		drops[q] = burstDrops(q)
		p99s[q] = holP99(q)
		table.AddRow(q, totalBuffer/q, drops[q], p99s[q])
	}
	r.Table = table

	r.check("C1: fewer queues absorb bigger single-flow bursts",
		drops[1] == 0 && drops[8] > 10000,
		"1 queue drops %d, 8 queues drop %d", drops[1], drops[8])
	r.check("C1: drops monotone in queue count",
		drops[1] <= drops[2] && drops[2] <= drops[4] && drops[4] <= drops[8],
		"%d <= %d <= %d <= %d", drops[1], drops[2], drops[4], drops[8])
	r.check("C2: more queues shrink the HOL blast radius",
		p99s[8] < p99s[1],
		"p99 %0.1fµs (8 queues) < %0.1fµs (1 queue)", p99s[8], p99s[1])
	r.notef("Albatross allocates 1-8 queues per pod, proportional to cores — the balance between these extremes")
	return r
}
