package eval

import (
	"albatross/internal/cluster"
	"albatross/internal/core"
	"albatross/internal/faults"
	"albatross/internal/pod"
	"albatross/internal/service"
	"albatross/internal/sim"
	"albatross/internal/stats"
	"albatross/internal/workload"
	"albatross/internal/workload/trace"
)

func init() {
	register("timeline", "Virtual-time telemetry timeline: availability dip, BFD detection window, and convergence after a node crash", runTimeline)
}

// runTimeline regenerates the time-axis failover figure: a 3-node cluster's
// availability series sampled every 10ms of virtual time across a NodeCrash
// — flat at 1.0, a dip to ~(N-1)/N while the dead node blackholes traffic
// inside the BFD detection window, then recovery to 1.0 once the route is
// withdrawn and flows re-ECMP to survivors. The same series doubles as the
// determinism acceptance artifact: the CSV export must be byte-identical
// at shards 1↔4, dispatch burst 1↔8, and record↔replay.
func runTimeline(cfg Config) *Result {
	r := &Result{ID: "timeline", Title: "Failover trajectory on the virtual-time telemetry timeline"}

	const (
		nodes  = 3
		every  = 10 * sim.Millisecond
		runLen = 400 * sim.Millisecond
		// Crash at 40ms and stay down: the interesting trajectory is the
		// detection dip and the re-ECMP recovery, not the rejoin.
		crashAt = 40 * sim.Millisecond
		// BFD detection: DetectMult(3)+1 probe intervals of 50ms. The route
		// is withdrawn by crashAt+detect; give convergence one extra tick.
		detect = 200 * sim.Millisecond
	)
	nFlows, rate := 5000, 1e6
	if cfg.Quick {
		nFlows, rate = 1500, 2e5
	}

	wf := workload.GenerateFlows(nFlows, 100, cfg.Seed)
	podCfg := core.PodConfig{
		Spec:  pod.Spec{Name: "gw", Service: service.VPCVPC, DataCores: 4, CtrlCores: 1, Mode: pod.ModePLB},
		Flows: workload.ServiceFlows(wf, 0),
	}
	build := func(shards, burst int) *cluster.Cluster {
		cl, err := cluster.New(cluster.Config{
			Nodes:         nodes,
			Seed:          cfg.Seed,
			Node:          core.NodeConfig{Burst: burst},
			Faults:        (&faults.Plan{}).NodeCrash(crashAt, 1, 2*sim.Second),
			Shards:        shards,
			SnapshotEvery: every,
		})
		if err != nil {
			panic(err)
		}
		if err := cl.AddPod(podCfg); err != nil {
			panic(err)
		}
		return cl
	}

	// Base run (shards 1, per-packet dispatch), recorded into a trace so the
	// replay variant below re-drives the exact injection schedule.
	base := build(1, 0)
	rec := trace.NewRecorder(base.Engine)
	rec.SetMeta(cfg.Seed, nodes, "timeline failover figure")
	src := sourceFor(cfg, 1, wf, workload.ConstantRate(rate), base.RecordingSink(rec))
	if err := src.Start(base.Engine); err != nil {
		panic(err)
	}
	base.RunFor(runLen)
	src.Stop()
	baseCSV := base.Timeline().CSV()

	variant := func(shards, burst int) string {
		cl := build(shards, burst)
		vs := sourceFor(cfg, 1, wf, workload.ConstantRate(rate), cl.Sink())
		if err := vs.Start(cl.Engine); err != nil {
			panic(err)
		}
		cl.RunFor(runLen)
		vs.Stop()
		return cl.Timeline().CSV()
	}
	shardedCSV := variant(4, 0)
	burstCSV := variant(1, 8)

	replayCl := build(1, 0)
	rp, err := replayCl.ReplayTrace(rec.Trace())
	if err != nil {
		panic(err)
	}
	replayCl.RunFor(runLen)
	if !rp.Done() {
		panic("timeline: trace replay did not complete")
	}
	replayCSV := replayCl.Timeline().CSV()

	tl := base.Timeline()
	ticks := tl.Ticks()
	avail, _ := tl.Values("availability")
	elig, _ := tl.Values("albatross_cluster_eligible_members")
	blackholed, _ := tl.Values("albatross_cluster_blackholed_packets_total")

	// The figure: every second tick of the availability trajectory.
	table := stats.NewTable("t (ms)", "Availability", "Eligible", "Blackholed/tick")
	for i := range ticks {
		if i%2 == 1 {
			continue
		}
		table.AddRow(float64(ticks[i])/1e6, avail[i], elig[i], blackholed[i])
	}
	r.Table = table
	r.Metrics = base.Metrics()

	// Trajectory shape: per-tick classification against the crash script.
	var (
		preCrashDirty   = 0   // ticks before the crash with availability < 1.0
		dipMin          = 1.0 // worst availability inside the detection window
		strayBlackholes = 0   // blackholed packets outside [crash, withdrawal]
		convergedAt     = sim.Time(-1)
	)
	crashT := sim.Time(crashAt)
	withdrawal := sim.Time(crashAt + detect)
	for i, t := range ticks {
		tickStart := t.Add(-every)
		switch {
		case t <= crashT:
			if avail[i] != 1 {
				preCrashDirty++
			}
		case tickStart < withdrawal:
			if avail[i] < dipMin {
				dipMin = avail[i]
			}
		}
		if (t <= crashT || tickStart >= withdrawal) && blackholed[i] != 0 {
			strayBlackholes++
		}
		if avail[i] >= 0.999 {
			if convergedAt < 0 && t > crashT {
				convergedAt = t
			}
		} else if t > crashT {
			convergedAt = -1
		}
	}
	finalElig := elig[len(elig)-1]

	r.notef("crash at %v, BFD detection window %v (route withdrawn by %v); sprayed=%d blackholed=%d",
		crashAt, detect, withdrawal, base.Sprayed, base.Blackholed())
	r.notef("availability dip floor %.3f (expected ~%.3f while 1 of %d routes blackholes)",
		dipMin, float64(nodes-1)/nodes, nodes)

	r.check("timeline covers the full run", tl.Len() == int(runLen/every),
		"ticks=%d want %d", tl.Len(), int(runLen/every))
	r.check("availability flat at 1.0 before the crash", preCrashDirty == 0,
		"%d pre-crash tick(s) below 1.0", preCrashDirty)
	r.check("availability dips toward (N-1)/N inside the detection window",
		dipMin < 0.9 && dipMin > 0.5, "dip floor %.3f", dipMin)
	r.check("blackhole confined to the detection window", strayBlackholes == 0,
		"%d tick(s) outside [crash, withdrawal] recorded blackholed packets", strayBlackholes)
	r.check("availability converges back to 1.0 within one tick of withdrawal",
		convergedAt > 0 && convergedAt <= withdrawal.Add(every),
		"converged at t=%v, deadline %v", convergedAt, withdrawal.Add(every))
	r.check("route withdrawal shows on the eligible-members series at the detection tick",
		elig[0] == float64(nodes) && finalElig == float64(nodes-1),
		"eligible first=%v last=%v", elig[0], finalElig)
	r.check("series byte-identical at shards 1 vs 4", shardedCSV == baseCSV,
		"CSV exports %d vs %d bytes", len(baseCSV), len(shardedCSV))
	r.check("series byte-identical at burst 1 vs 8", burstCSV == baseCSV,
		"CSV exports %d vs %d bytes", len(baseCSV), len(burstCSV))
	r.check("series byte-identical record vs replay", replayCSV == baseCSV,
		"CSV exports %d vs %d bytes", len(baseCSV), len(replayCSV))
	return r
}
