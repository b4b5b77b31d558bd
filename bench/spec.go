package main

// This file is the Go-side declaration of what BENCHMARK.json declares:
// the workloads and every metric with its unit, direction and bound. The
// smoke test fails when the two drift apart.

// metricDecl declares one metric.
type metricDecl struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before -compare calls it a regression (0 on
	// per-layer metrics, which have no bound).
	Bound float64
	// Exact marks a count or modelled statistic that must repeat
	// bit-for-bit for a fixed (workload, seed, shard count).
	Exact bool
}

// endToEnd are the metrics a user of the simulator pays. All are host-side.
// One bound serves every workload, so the noisiest workload on the noisiest
// hour sets it (bench/README.md, "Noise").
var endToEnd = []metricDecl{
	{Name: "ns_per_pkt", Unit: "ns", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// setupFloorS is the absolute slack -compare grants setup_s on top of its
// relative bound: a 20 ms set-up moving by 10 ms is scheduler noise.
const setupFloorS = 0.05

// allocsBound is the absolute worsening of core.allocs_per_pkt that
// -compare reports as a regression.
const allocsBound = 0.01

func lower(name, unit string) metricDecl {
	return metricDecl{Name: name, Unit: unit, Better: "lower"}
}

func exact(name, unit, better string) metricDecl {
	return metricDecl{Name: name, Unit: unit, Better: better, Exact: true}
}

// perLayer lists the per-layer metrics, grouped by the module they
// measure. Times are host time unless the name says sim_.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDecl {
	m := []metricDecl{
		exact("sim.events_per_pkt", "count", "lower"),
		lower("sim.event_ns", "ns"),
		exact("sim.heap_depth_max", "count", "lower"),
		lower("sim.drain_ns_per_pkt", "ns"),
		{Name: "sim.sharded.speedup_vs_1", Unit: "ratio", Better: "higher"},

		lower("cachesim.access_ns", "ns"),
		exact("cachesim.accesses_per_pkt", "count", "lower"),
		exact("cachesim.hit_rate", "ratio", "higher"),
		lower("cachesim.host_mb", "MB"),

		lower("flowtable.lookup_ns", "ns"),
		exact("flowtable.lookups_per_pkt", "count", "lower"),
		lower("flowtable.insert_ns", "ns"),
		lower("flowtable.select_ns", "ns"),
		exact("flowtable.backend_moved", "count", "lower"),

		lower("lpm.lookup_ns", "ns"),
		exact("lpm.lookups_per_pkt", "count", "lower"),
		lower("lpm.insert_ns", "ns"),

		lower("service.process_ns", "ns"),
		lower("service.self_ns", "ns"),
		lower("service.populate_s", "s"),

		lower("plb.dispatch_return_ns", "ns"),
		exact("plb.timeout_share", "ratio", "lower"),
		exact("plb.best_effort_share", "ratio", "lower"),
		exact("plb.dropflag_share", "ratio", "lower"),
		exact("plb.hol_per_kpkt", "count", "lower"),

		lower("gop.process_ns", "ns"),
		exact("gop.drop_share", "ratio", "lower"),

		lower("nicsim.classify_ns", "ns"),

		lower("stats.record_ns", "ns"),
		exact("stats.records_per_pkt", "count", "lower"),

		lower("workload.generate_s", "s"),
		lower("workload.source_ns_per_pkt", "ns"),

		lower("core.new_node_s", "s"),
		lower("core.add_pod_s", "s"),
		lower("core.inject_ns_per_pkt", "ns"),
		lower("core.glue_ns_per_pkt", "ns"),
		lower("core.allocs_per_pkt", "count"),
		exact("core.drop_share", "ratio", "lower"),
		exact("core.sim_p50_us", "us", "lower"),
		exact("core.sim_p99_us", "us", "lower"),

		lower("cluster.new_s", "s"),
		lower("cluster.add_pod_s", "s"),
		lower("cluster.route_ns", "ns"),
		lower("cluster.inject_ns_per_pkt", "ns"),
		exact("cluster.remap_share", "ratio", "lower"),
		lower("cluster.mb_per_node", "MB"),
		lower("cluster.outcome_s", "s"),

		lower("bgp.route_up_ns", "ns"),
		exact("bgp.switch_rib_size", "count", "lower"),

		lower("metrics.snapshot_s", "s"),

		lower("scenario.load_s", "s"),
		lower("controlplane.reconcile_drills_s", "s"),

		exact("faults.injected", "count", "lower"),

		{Name: "layers.coverage", Unit: "ratio", Better: "higher"},
		lower("trace.overhead_share", "ratio"),
	}
	for _, d := range drillNames {
		m = append(m, lower("scenario.drill_s."+d, "s"))
	}
	return m
}

// drillNames are the committed gameday drills snapshotted under
// bench/drills/ (every scenarios/*.yaml except regionscale), in the lexical
// order the gameday workload runs them.
var drillNames = []string{
	"bgp-flap", "concury-churn", "convergence-drill", "core-fail",
	"core-stall", "healthy-baseline", "node-crash", "overload-ramp",
	"pod-crash", "pod-drain", "reconcile-canary", "reconcile-drain",
	"reconcile-scale", "record-replay", "reorder-storm", "rolling-drain",
	"rx-loss", "stagelat", "uplink-withdraw",
}

// smokeDrills are the three quick drills the -smoke scale runs.
var smokeDrills = []string{"core-stall", "pod-drain", "rx-loss"}

// exactNames returns the names of the per-layer metrics marked Exact.
func exactNames() []string {
	var out []string
	for _, m := range perLayer {
		if m.Exact {
			out = append(out, m.Name)
		}
	}
	return out
}
