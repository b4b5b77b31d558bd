package core

import (
	"strconv"

	"albatross/internal/metrics"
	"albatross/internal/pod"
)

// Metric registration: every pod's counters, latency histograms, per-stage
// residency histograms, and flight-recorder tallies become named series in
// a metrics.Registry. The registry reads the simulator's own state at
// snapshot time — nothing is double-counted and registration is free on
// the hot path.

// RegisterMetrics registers the node's metric series into reg. base labels
// (e.g. node="0" in a cluster) are attached to every series. Each pod's
// series carry pod=<name> and slot=<deploy index> labels; the slot keeps
// series unique when pods share a name.
func (n *Node) RegisterMetrics(reg *metrics.Registry, base ...metrics.Label) {
	reg.Counter("albatross_node_blackholed_packets_total",
		"Packets lost at the ToR while the uplink was down.",
		func() uint64 { return n.Blackholed }, base...)
	if n.backend != nil {
		var beSc, sc labelScratch
		be := beSc.with(base, "backend", n.backend.Name())
		for _, ev := range []struct {
			event string
			fn    func() uint64
		}{
			{"lookup", func() uint64 { return n.backend.Stats().Lookups }},
			{"hit", func() uint64 { return n.backend.Stats().Hits }},
			{"insert", func() uint64 { return n.backend.Stats().Inserts }},
			{"moved", func() uint64 { return n.backend.Stats().Moved }},
		} {
			reg.Counter("albatross_backend_ops_total",
				"Flow-table backend operations, by event.", ev.fn, sc.with(be, "event", ev.event)...)
		}
	}
	for i, pr := range n.pods {
		pr.registerMetrics(reg, append([]metrics.Label{
			metrics.L("pod", pr.Pod.Spec.Name),
			metrics.L("slot", strconv.Itoa(i)),
		}, base...)...)
	}
}

// Metrics builds a fresh registry over the node and snapshots it.
func (n *Node) Metrics() *metrics.Snapshot {
	reg := metrics.New()
	n.RegisterMetrics(reg)
	return reg.Snapshot()
}

// labelScratch builds the label sets of one registration pass in one reused
// buffer. Registry.register copies the labels it keeps, so a set need only
// live until the registration call it is passed to returns.
type labelScratch []metrics.Label

// with returns labels extended by one pair, built in the scratch buffer;
// labels may be the set the previous call returned.
func (sc *labelScratch) with(labels []metrics.Label, key, value string) []metrics.Label {
	*sc = append(append((*sc)[:0], labels...), metrics.L(key, value))
	return *sc
}

func (pr *PodRuntime) registerMetrics(reg *metrics.Registry, labels ...metrics.Label) {
	var sc, stageSc labelScratch
	reg.Counter("albatross_pod_rx_packets_total", "Packets entering the pod.",
		func() uint64 { return pr.Rx }, labels...)
	reg.Counter("albatross_pod_tx_packets_total", "Packets completing egress.",
		func() uint64 { return pr.Tx }, labels...)

	const dropHelp = "Packets dropped, by reason."
	for _, d := range []struct {
		reason string
		fn     func() uint64
	}{
		{"nic_overload", func() uint64 { return pr.NICDrops }},
		{"queue", func() uint64 { return pr.QueueDrops }},
		{"plb_fifo", func() uint64 { return pr.PLBDrops }},
		{"service", func() uint64 { return pr.ServiceDrop }},
		{"header", func() uint64 { return pr.HeaderDrops }},
		{"rx_loss", func() uint64 { return pr.RxLost }},
		{"fault", func() uint64 { return pr.FaultLost }},
		{"crash", func() uint64 { return pr.CrashDrops }},
	} {
		reg.Counter("albatross_pod_drops_total", dropHelp, d.fn, sc.with(labels, "reason", d.reason)...)
	}

	reg.Counter("albatross_pod_priority_packets_total", "Priority-path packets, by direction.",
		func() uint64 { return pr.PriorityRx }, sc.with(labels, "dir", "rx")...)
	reg.Counter("albatross_pod_priority_packets_total", "Priority-path packets, by direction.",
		func() uint64 { return pr.PriorityTx }, sc.with(labels, "dir", "tx")...)
	reg.Counter("albatross_pod_pcie_bytes_total", "Bytes DMA'd across PCIe, by direction.",
		func() uint64 { return pr.PCIeRxBytes }, sc.with(labels, "dir", "rx")...)
	reg.Counter("albatross_pod_pcie_bytes_total", "Bytes DMA'd across PCIe, by direction.",
		func() uint64 { return pr.PCIeTxBytes }, sc.with(labels, "dir", "tx")...)
	reg.Counter("albatross_pod_fallbacks_total", "PLB-to-RSS mode switches.",
		func() uint64 { return pr.Fallbacks }, labels...)
	reg.Counter("albatross_pod_redirected_packets_total", "Packets redirected to the sibling pod.",
		func() uint64 { return pr.Redirected }, labels...)
	reg.Counter("albatross_pod_restarts_total", "Crash restarts and gray upgrades completed.",
		func() uint64 { return pr.Restarts }, labels...)

	reg.Gauge("albatross_pod_live_contexts", "Data-path contexts in flight.",
		func() float64 { return float64(pr.live) }, labels...)
	reg.Gauge("albatross_pod_mode_rss", "1 while the pod hashes by RSS, 0 in PLB mode.",
		func() float64 {
			if pr.mode == pod.ModeRSS {
				return 1
			}
			return 0
		}, labels...)

	reg.Histogram("albatross_pod_latency_ns", "End-to-end (wire to wire) packet latency.",
		pr.Latency, labels...)

	resid := pr.StageResidency()
	for i, name := range StageNames() {
		stage := stageSc.with(labels, "stage", name)
		reg.Histogram("albatross_stage_residency_ns",
			"Virtual time spent inside each pipeline stage.", resid[i], stage...)
		c := &pr.pipe.counters[i]
		reg.Counter("albatross_stage_packets_total", "Per-stage packet flow, by event.",
			func() uint64 { return c.In }, sc.with(stage, "event", "in")...)
		reg.Counter("albatross_stage_packets_total", "Per-stage packet flow, by event.",
			func() uint64 { return c.Out }, sc.with(stage, "event", "out")...)
		reg.Counter("albatross_stage_packets_total", "Per-stage packet flow, by event.",
			func() uint64 { return c.Drops }, sc.with(stage, "event", "drop")...)
	}

	fr := pr.flight
	for _, tj := range []struct {
		event string
		fn    func() uint64
	}{
		{"sampled", func() uint64 { return fr.Sampled }},
		{"dropped", func() uint64 { return fr.Drops }},
		{"timeout_release", func() uint64 { return fr.Timeouts }},
		{"discarded", func() uint64 { return fr.Discarded }},
	} {
		reg.Counter("albatross_trace_journeys_total",
			"Flight-recorder journeys, by outcome.", tj.fn, sc.with(labels, "event", tj.event)...)
	}

	if pr.PLB != nil {
		reg.Counter("albatross_plb_timeout_releases_total",
			"Reorder FIFO heads released by the timeout bound.",
			func() uint64 { return pr.PLB.Stats().TimeoutReleases }, labels...)
		reg.Counter("albatross_plb_hol_events_total",
			"Head-of-line waits exceeding the HOL threshold.",
			func() uint64 { return pr.PLB.Stats().HOLEvents }, labels...)
		reg.Gauge("albatross_plb_disorder_ratio", "Disordered emissions over all emissions.",
			func() float64 { s := pr.PLB.Stats(); return s.DisorderRate() }, labels...)
	}
}
