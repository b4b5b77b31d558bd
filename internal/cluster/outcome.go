package cluster

import (
	"fmt"
	"strings"

	"albatross/internal/core"
	"albatross/internal/metrics"
	"albatross/internal/stats"
	"albatross/internal/workload"
	"albatross/internal/workload/trace"
)

// Outcome renders the cluster's per-node outcome summary as a keyed-line
// report — the artifact trace.Diff compares across seeds, node counts, and
// fault plans. Every line is "key | values"; keys are stable across runs
// so the differ matches structurally, and every value is derived from the
// deterministic simulation state (no wall-clock, no map iteration).
//
// The report covers, per node: availability and uplink state, traffic and
// drop counters, flight-recorder tallies, per-stage conservation residuals
// (In − Out − Drops, zero once drained), per-stage residency quantiles,
// and end-to-end latency quantiles; plus cluster-level ECMP counters and a
// checksum of the full metrics export so *any* metric drift is caught even
// if no summarized line moves.
func (c *Cluster) Outcome() string {
	var b strings.Builder
	fmt.Fprintf(&b, "outcome albatross/v1 | nodes=%d t=%v\n", len(c.members), c.Engine.Now())
	fmt.Fprintf(&b, "cluster/traffic | sprayed=%d remapped=%d switch-drops=%d blackholed=%d\n",
		c.Sprayed, c.Remapped, c.Drops, c.Blackholed())

	for _, m := range c.members {
		id := fmt.Sprintf("node%d", m.Index)
		var restarts uint64
		for _, pr := range m.Node.Pods() {
			restarts += pr.Restarts
		}
		fmt.Fprintf(&b, "%s/avail | state=%s crashes=%d drains=%d restarts=%d\n",
			id, m.State(), m.Crashes, m.Drains, restarts)
		us := m.Node.Uplink().Stats()
		fmt.Fprintf(&b, "%s/uplink | route-up=%v flaps=%d detections=%d recoveries=%d downtime=%v\n",
			id, m.Node.Uplink().RouteUp(), us.Flaps, us.Detections, us.Recoveries, us.DownTime)

		var agg PodTotals
		agg.add(m.Node.Pods())
		fmt.Fprintf(&b, "%s/traffic | ecmp-rx=%d rx=%d tx=%d redirected=%d drops[nic=%d queue=%d plb=%d service=%d header=%d rxloss=%d fault=%d crash=%d] node[blackholed=%d proxied=%d]\n",
			id, m.Rx, agg.Rx, agg.Tx, agg.Redirected,
			agg.NICDrops, agg.QueueDrops, agg.PLBDrops, agg.ServiceDrops, agg.HeaderDrops,
			agg.RxLost, agg.FaultLost, agg.CrashDrops, m.Node.Blackholed, m.Node.Proxied)
		fmt.Fprintf(&b, "%s/flight | sampled=%d dropped=%d timeouts=%d triggered=%d discarded=%d\n",
			id, agg.sampled, agg.frDrops, agg.frTimeouts, agg.frTriggered, agg.frDiscarded)

		for si, name := range core.StageNames() {
			st := &agg.stages[si]
			fmt.Fprintf(&b, "%s/conserve/%s | residual=%d balanced=%v\n",
				id, name, int64(st.In)-int64(st.Out)-int64(st.Drops), st.Balanced())
		}
		// Quantiles come from the ingress pod (pod 0): siblings only carry
		// redirected spillover and would blur the node's residency signature.
		var residP50, residP99 [len(agg.stages)]int64
		var latP50, latP99, latP999 int64
		if pods := m.Node.Pods(); len(pods) > 0 {
			for si, h := range pods[0].StageResidency() {
				residP50[si], residP99[si] = h.Quantile(0.50), h.Quantile(0.99)
			}
			lat := pods[0].Latency
			latP50, latP99, latP999 = lat.Quantile(0.50), lat.Quantile(0.99), lat.Quantile(0.999)
		}
		for si, name := range core.StageNames() {
			fmt.Fprintf(&b, "%s/resid/%s | p50=%dns p99=%dns\n", id, name, residP50[si], residP99[si])
		}
		fmt.Fprintf(&b, "%s/latency | p50=%dns p99=%dns p999=%dns\n", id, latP50, latP99, latP999)
	}

	// The export is streamed into the hash: a fleet's Prometheus text is
	// megabytes that nothing else reads.
	reg := metrics.New()
	c.RegisterMetrics(reg)
	msum, mn := reg.Checksum()
	fmt.Fprintf(&b, "metrics/fnv64a | %#016x bytes=%d\n", msum, mn)
	// With sampling enabled, fingerprint the timeline CSV too: the
	// byte_identity/replay_identity assertions compare Outcome strings, so
	// this one line extends their coverage to the full series export.
	if tl := c.Timeline(); tl != nil {
		ssum, n := tl.Checksum()
		fmt.Fprintf(&b, "series/fnv64a | %#016x bytes=%d ticks=%d\n", ssum, n, tl.Len())
	}
	return b.String()
}

// PodTotals sums pod-level telemetry over a set of pods: one member's in
// Outcome, where multi-pod members (upgrade siblings) report as one node,
// or the fleet's (Totals).
type PodTotals struct {
	Rx, Tx, Redirected                           uint64
	NICDrops, QueueDrops, PLBDrops, ServiceDrops uint64
	HeaderDrops, RxLost, FaultLost, CrashDrops   uint64
	sampled, frDrops, frTimeouts, frTriggered    uint64
	frDiscarded                                  uint64
	stages                                       [7]stats.StageCounter
}

// add adds the pods' telemetry.
func (a *PodTotals) add(pods []*core.PodRuntime) {
	for _, pr := range pods {
		a.Rx += pr.Rx
		a.Tx += pr.Tx
		a.Redirected += pr.Redirected
		a.NICDrops += pr.NICDrops
		a.QueueDrops += pr.QueueDrops
		a.PLBDrops += pr.PLBDrops
		a.ServiceDrops += pr.ServiceDrop
		a.HeaderDrops += pr.HeaderDrops
		a.RxLost += pr.RxLost
		a.FaultLost += pr.FaultLost
		a.CrashDrops += pr.CrashDrops
		fr := pr.Flight()
		a.sampled += fr.Sampled
		a.frDrops += fr.Drops
		a.frTimeouts += fr.Timeouts
		a.frTriggered += fr.Triggered
		a.frDiscarded += fr.Discarded
		for si, st := range pr.Stages() {
			a.stages[si].In += st.In
			a.stages[si].Out += st.Out
			a.stages[si].Drops += st.Drops
		}
	}
}

// Drops sums every in-pipeline drop category.
func (a *PodTotals) Drops() uint64 {
	return a.NICDrops + a.QueueDrops + a.PLBDrops + a.ServiceDrops +
		a.HeaderDrops + a.RxLost + a.FaultLost + a.CrashDrops
}

// Balanced reports whether every stage's sums balance, In == Out + Drops.
// No pod's stage ever holds a negative residual, so the sums balance
// exactly when every pod's stages do.
func (a *PodTotals) Balanced() bool {
	_, ok := stats.StageBalance(a.stages[:])
	return ok
}

// Totals sums every member's pod telemetry.
func (c *Cluster) Totals() PodTotals {
	var t PodTotals
	for _, m := range c.members {
		t.add(m.Node.Pods())
	}
	return t
}

// WorstIngressLatency returns the highest q-quantile of end-to-end latency
// over the members' ingress pods (pod 0).
func (c *Cluster) WorstIngressLatency(q float64) int64 {
	var worst int64
	for _, m := range c.members {
		if v := m.Node.Pods()[0].Latency.Quantile(q); v > worst {
			worst = v
		}
	}
	return worst
}

// RecordingSink returns an ingress sink that records every injection into
// rec — stamped with the ECMP owner the switch would pick at that instant
// — before spraying it into the cluster. Wrap a workload source's sink
// with it to capture a replayable schedule of a live cluster run.
func (c *Cluster) RecordingSink(rec *trace.Recorder) func(workload.Flow, int) {
	return func(f workload.Flow, bytes int) {
		_, owner := c.Route(f)
		rec.Record(f, bytes, owner, 0)
		c.Inject(f, bytes)
	}
}

// ReplayTrace drives the cluster's ECMP ingress from a saved schedule: the
// trace's events are injected at their recorded virtual-time offsets
// (relative to now) as the engine runs. The recorded node/pod targets are
// deliberately ignored on ingress — routing is re-derived from the ring,
// so the same trace replayed against a different node count or fault plan
// shows how the *deployment* changes the outcome of the *same* traffic.
func (c *Cluster) ReplayTrace(t *trace.Trace) (*trace.Replayer, error) {
	return trace.Replay(c.Engine, t, c.Sink())
}
