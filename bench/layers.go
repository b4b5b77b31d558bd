package main

import (
	"runtime"
	"time"

	"albatross"
	"albatross/internal/cachesim"
	"albatross/internal/flowtable"
	"albatross/internal/gop"
	"albatross/internal/lpm"
	"albatross/internal/packet"
	"albatross/internal/plb"
	"albatross/internal/service"
	"albatross/internal/sim"
	"albatross/internal/stats"
)

// This file is the traced round's per-layer breakdown. Everything here is
// measured from outside the program: spans the harness recorded around its
// facade calls, exported counters, and a replay of the workload's own key
// stream into each layer's exported hot function. It is the only file of
// the harness that imports internal packages; the end-to-end path uses the
// public facade alone.

// replayKeys is how many packets' worth of keys the layer replay cycles.
const replayKeys = 1 << 16

// replayBudget is the host time each layer's replay may take (a tenth of
// it at -smoke scale).
const replayBudget = 150 * time.Millisecond

// replayInput is what a packet workload hands the layer replay.
type replayInput struct {
	keys  []albatross.Flow   // the next packets' flows, in injection order
	flows []albatross.Flow   // the flow set installed in every pod
	node  *albatross.Node    // a live node (member 0 of a cluster)
	cl    *albatross.Cluster // nil on single-node workloads
	pods  int                // pods deployed across the fleet
	// source builds the workload's own open-loop source on eng (nil on
	// closed-loop workloads).
	source func(eng *albatross.Engine, sink func(albatross.Flow, int)) (*albatross.Source, error)
	// autoShards re-runs the workload on auto-sized engine shards and
	// returns its ns_per_pkt (nil on single-node workloads).
	autoShards func() (float64, error)
}

func (l *loop) replay() *replayInput {
	// Two blocks' worth of keys at most, so the smoke scale replays little.
	in := &replayInput{keys: l.keys(min(replayKeys, 2*l.p.blockPkts)), flows: l.flows, node: l.nodes()[0], cl: l.cl, pods: len(l.nodes())}
	if l.cl != nil {
		in.autoShards = func() (float64, error) {
			p := l.p
			p.shards = 0
			p.crashFor = 0
			sp := newSpanLog("auto-shards", false)
			auto, err := buildLoop(p, l.seed, sp, sp.begin("setup", -1))
			if err != nil {
				return 0, err
			}
			var per []float64
			for i := -1; i < 12; i++ {
				pkts, host, err := auto.block(i, sp, 0, false)
				if err != nil {
					return 0, err
				}
				if i >= 0 {
					per = append(per, float64(host.Nanoseconds())/float64(pkts))
				}
			}
			return percentile(per, 0.25), nil
		}
	}
	return in
}

func (f *faulted) replay() *replayInput {
	return &replayInput{keys: f.keys(replayKeys), flows: f.flows, node: f.node, pods: len(f.node.Pods()),
		source: func(eng *albatross.Engine, sink func(albatross.Flow, int)) (*albatross.Source, error) {
			src, err := f.newSource(sink)
			if err != nil {
				return nil, err
			}
			return src, src.Start(eng)
		}}
}

// timeRounds calls round, which performs ops operations, until the budget
// is spent (at least five times) and returns the lower quartile of the
// per-round ns/op — the same estimator as ns_per_pkt.
func timeRounds(budget time.Duration, ops int, round func()) float64 {
	var per []float64
	deadline := time.Now().Add(budget)
	for len(per) < 5 || time.Now().Before(deadline) {
		t0 := time.Now()
		round()
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(ops))
	}
	return percentile(per, 0.25)
}

// heapMB returns the live heap after a collection, in MB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// sinks keep replayed results alive so the compiler cannot drop the calls.
var (
	sinkInt  int
	sinkBool bool
)

// layerMetrics computes every per-layer metric of a traced run. A metric
// whose layer is not on the workload's path reads 0.
func (r *run) layerMetrics() map[string]metricValue {
	v := map[string]float64{}
	for name, x := range r.res.Detail.Exact {
		v[name] = x
	}
	sp, win := r.sp, r.window
	untraced := r.nsPerPkt(false)
	v["core.allocs_per_pkt"] = r.res.Detail.AllocsPerPkt

	// Set-up phases of the measured build.
	v["workload.generate_s"] = sp.last("workload.generate").Seconds()
	v["core.new_node_s"] = sp.last("core.new_node").Seconds()
	v["core.add_pod_s"] = sp.last("core.add_pod").Seconds()
	v["cluster.new_s"] = sp.last("cluster.new").Seconds()
	v["cluster.add_pod_s"] = sp.last("cluster.add_pod").Seconds()
	v["scenario.load_s"] = sp.last("scenario.load").Seconds()

	switch inst := r.inst.(type) {
	case *gameday:
		r.drillMetrics(inst, v)
	case interface{ replay() *replayInput }:
		in := inst.replay()
		var tracedPkts float64
		for _, s := range r.samples {
			if s.traced {
				tracedPkts += float64(s.pkts)
			}
		}
		inject := float64(sp.total("inject").Nanoseconds()) / tracedPkts
		v["sim.drain_ns_per_pkt"] = float64(sp.total("drain").Nanoseconds()) / tracedPkts
		if in.cl != nil {
			v["cluster.inject_ns_per_pkt"] = inject
			v["cluster.outcome_s"] = sp.last("outcome").Seconds()
			v["cluster.mb_per_node"] = r.buildHeapMB / float64(in.pods)
		} else {
			v["core.inject_ns_per_pkt"] = inject
		}
		v["trace.overhead_share"] = r.nsPerPkt(true)/untraced - 1
		r.replayLayers(in, win, untraced, v)
	}

	out := make(map[string]metricValue, len(perLayer))
	for _, m := range perLayer {
		out[m.Name] = metricValue{v[m.Name], m.Unit}
	}
	return out
}

// drillMetrics fills the gameday-only metrics: each drill's host seconds
// (lower quartile of its runs) and the share spent in reconcile drills.
func (r *run) drillMetrics(g *gameday, v map[string]float64) {
	for k, name := range g.names {
		hosts, _ := r.ofKind(k)
		sec := percentile(hosts, 0.25)
		v["scenario.drill_s."+name] = sec
		if g.drills[k].Spec != nil {
			v["controlplane.reconcile_drills_s"] += sec
		}
	}
}

// replayLayers replays the key stream into each layer and derives the
// coverage of the end-to-end figure.
func (r *run) replayLayers(in *replayInput, win tally, untraced float64, v map[string]float64) {
	budget := replayBudget
	if r.o.smoke {
		budget /= 10
	}
	keys := in.keys
	n := len(keys)
	hashes := make([]uint32, n)
	for i, k := range keys {
		hashes[i] = k.Tuple.Hash()
	}
	pod := in.node.Pods()[0]
	svc := pod.Svc
	live := in.node.Cache(pod.Pod.NUMANode)
	geometry := cachesim.Config{SizeBytes: live.SizeBytes(), Ways: live.Ways(), LineBytes: live.LineBytes()}

	// sim: one AfterArg + Step with the heap at the depth the run reached.
	eng := sim.NewEngine()
	rng := splitmix(1)
	delay := func() sim.Duration { return sim.Duration(1 + rng.next()%uint64(100*sim.Microsecond)) }
	nop := func(any) {}
	for i := uint64(0); i < win.HeapDepthMax; i++ {
		eng.AfterArg(delay(), nop, nil)
	}
	v["sim.event_ns"] = timeRounds(budget, n, func() {
		for i := 0; i < n; i++ {
			eng.AfterArg(delay(), nop, nil)
			eng.Step()
		}
	})

	// flowtable and lpm: stand-alone tables built from the workload's own
	// flow set, as Service.Populate builds them.
	tables := svc.NumTables()
	entry := int(svc.TableMemoryBytes() / int64(tables*len(in.flows)))
	space := flowtable.NewAddrSpace()
	tbls := make([]*flowtable.Table, tables)
	t0 := time.Now()
	for t := range tbls {
		tbls[t] = flowtable.NewTableIn(space, "replay", entry)
		for i, f := range in.flows {
			tbls[t].Insert(f.Tuple, uint64(i))
		}
	}
	v["flowtable.insert_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(tables*len(in.flows))
	entries := make([]*flowtable.Entry, 0, n*tables)
	v["flowtable.lookup_ns"] = timeRounds(budget, n*tables, func() {
		entries = entries[:0]
		for i, k := range keys {
			for _, tb := range tbls {
				entries = append(entries, tb.LookupHash(k.Tuple, hashes[i]))
			}
		}
	})

	routes := lpm.New()
	t0 = time.Now()
	for i, f := range in.flows {
		_ = routes.Insert(lpm.Canonical(f.Tuple.Dst.Uint32(), 24), 24, uint32(i))
	}
	v["lpm.insert_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(len(in.flows))
	v["lpm.lookup_ns"] = timeRounds(budget, n, func() {
		for _, k := range keys {
			_, sinkBool = routes.Lookup(k.Tuple.Dst.Uint32())
		}
	})

	// cachesim: the exact-match entries' addresses through a stand-alone
	// cache of the workload's geometry, priced per cache line touched.
	before := heapMB()
	cache := cachesim.New(geometry)
	v["cachesim.host_mb"] = heapMB() - before
	var lines uint64
	perRound := timeRounds(budget, 1, func() {
		was := cache.Hits() + cache.Misses()
		for _, e := range entries {
			h, m := cache.Access(e.Addr, e.SizeBytes)
			sinkInt += h + m
		}
		lines = cache.Hits() + cache.Misses() - was
	})
	v["cachesim.access_ns"] = perRound / float64(lines)
	tbls, entries = nil, nil

	// service: the live pod's own ProcessHash (the parent of the three
	// above), and one pod's Populate times the pods deployed.
	v["service.process_ns"] = timeRounds(budget, n, func() {
		for i, k := range keys {
			res := svc.ProcessHash(k.Tuple, k.VNI, hashes[i])
			sinkInt += res.Hits
		}
	})
	children := v["flowtable.lookup_ns"]*ratio(win.TableLookups, win.SvcPkts) +
		v["lpm.lookup_ns"]*ratio(win.LPMLookups, win.SvcPkts) +
		v["cachesim.access_ns"]*ratio(win.CacheHits+win.CacheMisses, win.SvcPkts)
	v["service.self_ns"] = v["service.process_ns"] - children
	if fresh, err := service.New(service.Config{Type: svc.Type(), Cache: cache, Addrs: flowtable.NewAddrSpace()}); err == nil {
		svcFlows := albatross.ServiceFlows(in.flows, 0)
		t0 = time.Now()
		fresh.Populate(svcFlows)
		v["service.populate_s"] = time.Since(t0).Seconds() * float64(in.pods)
	}

	// plb: dispatch a core's worth of packets, return them in order.
	if pod.PLB != nil {
		peng := sim.NewEngine()
		cores := len(pod.Cores)
		unit, err := plb.New(peng, plb.DefaultConfig(1, cores), func(plb.Emission) {})
		if err == nil {
			item := new(int)
			metas := make([]packet.Meta, 0, cores)
			v["plb.dispatch_return_ns"] = timeRounds(budget, n, func() {
				for i := 0; i < n; i += cores {
					metas = metas[:0]
					for _, h := range hashes[i:min(i+cores, n)] {
						if _, m, ok := unit.Dispatch(h); ok {
							metas = append(metas, m)
						}
					}
					for _, m := range metas {
						unit.Return(item, m)
					}
				}
			})
		}
	}

	// gop: the two-stage limiter on the key stream's tenants at 3 Mpps.
	if lim, err := gop.NewLimiter(gop.DefaultConfig()); err == nil {
		var now sim.Time
		v["gop.process_ns"] = timeRounds(budget, n, func() {
			for _, k := range keys {
				now += 333
				sinkBool = lim.Process(k.VNI, now) == gop.VerdictDrop
			}
		})
	}

	v["nicsim.classify_ns"] = timeRounds(budget, n, func() {
		for _, k := range keys {
			c, _ := pod.Classifier.ClassifyFlow(k.Tuple)
			sinkInt += int(c)
		}
	})

	hist := stats.NewLatencyHistogram()
	v["stats.record_ns"] = timeRounds(budget, n, func() {
		for _, h := range hashes {
			hist.Record(int64(1000 + h%64000))
		}
	})

	// flowtable backend: Select on a stand-alone session backend.
	if in.node.Backend() != nil {
		if b, err := flowtable.NewBackend(in.node.FlowBackendName(), []int{0, 1},
			flowtable.BackendConfig{Space: flowtable.NewAddrSpace()}); err == nil {
			var now sim.Time
			v["flowtable.select_ns"] = timeRounds(budget, n, func() {
				for _, k := range keys {
					now += 333
					sinkInt += flowtable.Select(b, k.Tuple, now)
				}
			})
		}
	}

	// workload: the open-loop source alone, into a sink that does nothing.
	if in.source != nil {
		seng := sim.NewEngine()
		if src, err := in.source(seng, func(albatross.Flow, int) {}); err == nil {
			var gen uint64
			perRound := timeRounds(budget, 1, func() {
				was := src.Generated
				seng.RunFor(10 * sim.Millisecond)
				gen = src.Generated - was
			})
			v["workload.source_ns_per_pkt"] = perRound / float64(gen)
			src.Stop()
		}
	}

	// cluster: the ECMP ring lookup (Route) and, inside it, the BGP
	// eligibility probe.
	if in.cl != nil {
		v["cluster.route_ns"] = timeRounds(budget, n, func() {
			for _, k := range keys {
				_, owner := in.cl.Route(k)
				sinkInt += owner
			}
		})
		members := in.cl.Members()
		v["bgp.route_up_ns"] = timeRounds(budget, n, func() {
			for i := 0; i < n; i++ {
				sinkBool = members[i%len(members)].Node.Uplink().RouteUp()
			}
		})
		t0 = time.Now()
		sinkInt += len(in.cl.Metrics().Prometheus())
		v["metrics.snapshot_s"] = time.Since(t0).Seconds()
	} else {
		t0 = time.Now()
		sinkInt += len(in.node.Metrics().Prometheus())
		v["metrics.snapshot_s"] = time.Since(t0).Seconds()
	}

	if in.autoShards != nil {
		if auto, err := in.autoShards(); err == nil {
			v["sim.sharded.speedup_vs_1"] = untraced / auto
		}
	}

	// Coverage: each layer's ns/op times its operations per packet, over
	// the end-to-end figure. The service's three children are inside
	// process_ns and the source's one event per packet is inside
	// events_per_pkt, so neither is added twice.
	sum := v["sim.events_per_pkt"]*v["sim.event_ns"] +
		ratio(win.SvcPkts, win.Pkts)*v["service.process_ns"] +
		ratio(win.PLBDispatched, win.Pkts)*v["plb.dispatch_return_ns"] +
		v["nicsim.classify_ns"] +
		v["stats.records_per_pkt"]*v["stats.record_ns"] +
		v["cluster.route_ns"] + v["flowtable.select_ns"]
	if in.node.Limiter != nil {
		sum += v["gop.process_ns"]
	}
	if in.source != nil {
		sum += v["workload.source_ns_per_pkt"] - v["sim.event_ns"]
	}
	v["layers.coverage"] = sum / untraced
	v["core.glue_ns_per_pkt"] = untraced - sum
}
