package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"albatross/internal/cluster"
	"albatross/internal/core"
	"albatross/internal/faults"
	"albatross/internal/sim"
)

// evaluate runs the scenario's assertion block against the primary run,
// one Check per assertion in declaration order. Identity assertions are
// only placed: their verdicts compare re-executions (fresh clusters, same
// seed) that Run collects, so their cost is opt-in per scenario.
func (s *Scenario) evaluate(st *runState) []Check {
	cl := st.cl
	m := cl.Totals()
	delivered := m.Tx
	loss := cl.Sprayed - delivered
	checks := make([]Check, 0, len(s.Assertions))
	for _, a := range s.Assertions {
		c := Check{Assertion: a}
		switch a.Type {
		case "conservation":
			accounted := delivered + m.Drops() + cl.Blackholed() + cl.Drops
			c.OK = m.Balanced() && cl.Sprayed == accounted
			c.Detail = fmt.Sprintf("sprayed %d = delivered %d + pod-drops %d + blackholed %d + switch-drops %d (stages balanced: %v)",
				cl.Sprayed, delivered, m.Drops(), cl.Blackholed(), cl.Drops, m.Balanced())
		case "zero_loss":
			c.OK = loss == 0
			c.Detail = fmt.Sprintf("lost %d of %d sprayed", loss, cl.Sprayed)
		case "max_loss":
			bound := uint64(a.Fraction * float64(cl.Sprayed))
			c.OK = loss <= bound
			c.Detail = fmt.Sprintf("lost %d of %d sprayed, bound %d (fraction %g)",
				loss, cl.Sprayed, bound, a.Fraction)
		case "remap_bound":
			bound := uint64(a.Factor / float64(s.Fleet.Nodes) * float64(cl.Sprayed))
			c.OK = cl.Remapped <= bound
			c.Detail = fmt.Sprintf("remapped %d of %d sprayed, bound %d (%g/N, N=%d)",
				cl.Remapped, cl.Sprayed, bound, a.Factor, s.Fleet.Nodes)
		case "detection_window":
			bound := s.detectionBound(st, a.Margin)
			c.OK = cl.Blackholed() <= bound
			c.Detail = fmt.Sprintf("blackholed %d, bound %d (margin %g over the BFD window)",
				cl.Blackholed(), bound, a.Margin)
		case "latency":
			got := cl.WorstIngressLatency(a.Quantile)
			c.OK = got <= int64(a.Max)
			c.Detail = fmt.Sprintf("worst-node p%g = %.1fµs, ceiling %.1fµs",
				a.Quantile*100, float64(got)/1000, float64(a.Max)/1000)
		case "min_tx":
			c.OK = delivered >= a.Count
			c.Detail = fmt.Sprintf("delivered %d, floor %d", delivered, a.Count)
		case "expected_table":
			c.OK, c.Detail = s.checkExpectedTable(st, a)
		case "converge":
			c.OK, c.Detail = s.checkConverge(st, a)
		case "window_max":
			c.OK, c.Detail = s.checkWindowMax(st, a)
		case "reconciled":
			c.OK, c.Detail = checkReconciled(st)
		}
		checks = append(checks, c)
	}
	return checks
}

// detectionBound computes the packet budget for blackholed loss: for each
// scripted crash or flap, arrivals that can hit the dead link before BFD
// withdraws the route — the member's traffic share times the smaller of
// the fault length and the detection window — scaled by the margin. A
// scenario with no crash/flap events gets a zero bound: any blackholed
// packet fails the assertion.
func (s *Scenario) detectionBound(st *runState, margin float64) uint64 {
	members := st.cl.Members()
	if len(members) == 0 {
		return 0
	}
	window := members[0].Node.Uplink().DetectionWindow()
	rate := s.maxRate(st)
	var bound float64
	for _, ev := range s.Events {
		k := ev.Fault.Kind
		if k != faults.KindNodeCrash && k != faults.KindBGPFlap {
			continue
		}
		exposure := window
		if ev.Fault.Duration > 0 && ev.Fault.Duration < exposure {
			exposure = ev.Fault.Duration
		}
		bound += rate * (float64(exposure) / float64(sim.Second)) / float64(s.Fleet.Nodes)
	}
	return uint64(margin * bound)
}

// checkExpectedTable inspects every member's flow-table backend after the
// run: the pod pool must have converged to the expected size (pods, -1 to
// skip), and the cumulative flows moved by pool updates — the Concury
// disruption metric — must not exceed max_moved (-1 for no ceiling). The
// worst member decides the verdict; the detail reports per-member values in
// member order so it stays deterministic.
func (s *Scenario) checkExpectedTable(st *runState, a Assertion) (bool, string) {
	ok := true
	var pools, moved []string
	for _, mem := range st.cl.Members() {
		be := mem.Node.Backend()
		if be == nil {
			return false, "node has no flow-table backend (internal error: validation requires fleet.backend)"
		}
		p := len(be.Pool())
		mv := be.Stats().Moved
		if a.Pods >= 0 && p != a.Pods {
			ok = false
		}
		if a.MaxMoved >= 0 && mv > uint64(a.MaxMoved) {
			ok = false
		}
		pools = append(pools, fmt.Sprintf("%d", p))
		moved = append(moved, fmt.Sprintf("%d", mv))
	}
	detail := fmt.Sprintf("%s pool=[%s]", s.Fleet.Backend, strings.Join(pools, " "))
	if a.Pods >= 0 {
		detail += fmt.Sprintf(" want %d", a.Pods)
	}
	detail += fmt.Sprintf(", moved=[%s]", strings.Join(moved, " "))
	if a.MaxMoved >= 0 {
		detail += fmt.Sprintf(" ceiling %d", a.MaxMoved)
	}
	return ok, detail
}

// timelineSeries resolves one named column of the run's timeline, with a
// deterministic failure detail when sampling is off or the key is unknown.
func timelineSeries(st *runState, key string) ([]sim.Time, []float64, string) {
	tl := st.cl.Timeline()
	if tl == nil {
		return nil, nil, "timeline not sampled (internal error: validation requires snapshot_every)"
	}
	vals, ok := tl.Values(key)
	if !ok {
		return nil, nil, fmt.Sprintf("unknown series %q (columns: %s)", key, strings.Join(tl.Keys(), ", "))
	}
	return tl.Ticks(), vals, ""
}

// checkConverge verifies a recovery trajectory: the named series must
// return to — and stay within tolerance of — its pre-event baseline (the
// mean over ticks before the first scripted event) no later than `within`
// after the last scripted event fires.
func (s *Scenario) checkConverge(st *runState, a Assertion) (bool, string) {
	ticks, vals, detail := timelineSeries(st, a.Series)
	if detail != "" {
		return false, detail
	}
	firstAt, lastAt := s.Events[0].At, s.Events[0].At
	for _, ev := range s.Events[1:] {
		if ev.At < firstAt {
			firstAt = ev.At
		}
		if ev.At > lastAt {
			lastAt = ev.At
		}
	}
	var baseline float64
	n := 0
	for i, t := range ticks {
		if sim.Duration(t) < firstAt {
			baseline += vals[i]
			n++
		}
	}
	if n == 0 {
		return false, fmt.Sprintf("no ticks before the first event at t=%v (shrink snapshot_every below it)", firstAt)
	}
	baseline /= float64(n)
	// Walk backwards: conv is the earliest tick at/after the last event
	// from which the series never leaves the tolerance band again.
	conv := -1
	for i := len(ticks) - 1; i >= 0; i-- {
		v := vals[i] - baseline
		if v < -a.Tolerance || v > a.Tolerance {
			break
		}
		if sim.Duration(ticks[i]) >= lastAt {
			conv = i
		}
	}
	if conv < 0 {
		return false, fmt.Sprintf("series %q never re-entered baseline %.6g ±%g after the last event (t=%v)",
			a.Series, baseline, a.Tolerance, lastAt)
	}
	took := sim.Duration(ticks[conv]) - lastAt
	ok := took <= a.Within
	return ok, fmt.Sprintf("series %q back to baseline %.6g ±%g in %v after the last event (t=%v), deadline %v",
		a.Series, baseline, a.Tolerance, took, lastAt, a.Within)
}

// checkWindowMax verifies a ceiling on the named series over the virtual
// window [from, to] (to=0 runs to the end of the recording).
func (s *Scenario) checkWindowMax(st *runState, a Assertion) (bool, string) {
	ticks, vals, detail := timelineSeries(st, a.Series)
	if detail != "" {
		return false, detail
	}
	to := a.To
	if to == 0 && len(ticks) > 0 {
		to = sim.Duration(ticks[len(ticks)-1])
	}
	worst, n := 0.0, 0
	for i, t := range ticks {
		if sim.Duration(t) < a.From || sim.Duration(t) > to {
			continue
		}
		if n == 0 || vals[i] > worst {
			worst = vals[i]
		}
		n++
	}
	if n == 0 {
		return false, fmt.Sprintf("series %q has no ticks in [%v, %v] (snapshot_every too coarse?)",
			a.Series, a.From, to)
	}
	ok := worst <= a.MaxValue
	return ok, fmt.Sprintf("series %q max %.6g over [%v, %v] (%d ticks), ceiling %g",
		a.Series, worst, a.From, to, n, a.MaxValue)
}

// byteIdentityVerdict judges a byte_identity assertion: runs are its
// re-executions in declaration order — a.Runs-1 repeat runs, then one per
// listed shard count — and every identity document (outcome report plus
// reconciler step log) must match the primary's doc byte for byte. The
// first failure in declaration order is reported, whatever order the
// runs finished in.
func byteIdentityVerdict(a Assertion, doc string, runs []identityRun) (bool, string) {
	for j, r := range runs {
		if run := j + 1; run < a.Runs {
			if r.err != nil {
				return false, fmt.Sprintf("repeat run %d failed: %v", run, r.err)
			}
			if r.doc != doc {
				return false, fmt.Sprintf("repeat run %d outcome diverged (%d vs %d bytes)",
					run, len(r.doc), len(doc))
			}
			continue
		}
		k := a.Shards[j-(a.Runs-1)]
		if r.err != nil {
			return false, fmt.Sprintf("shards=%d run failed: %v", k, r.err)
		}
		if r.doc != doc {
			return false, fmt.Sprintf("shards=%d outcome diverged (%d vs %d bytes)",
				k, len(r.doc), len(doc))
		}
	}
	return true, fmt.Sprintf("%d run(s) and shard counts %v byte-identical (outcome %d bytes)",
		a.Runs, a.Shards, len(doc))
}

// replayIdentityVerdict judges a replay_identity assertion: r replayed
// the live run's recorded events (recorded of them; < 0 when nothing was
// recorded) into a fresh deployment, and its identity document must match
// the live run's doc.
func replayIdentityVerdict(doc string, recorded int, r identityRun) (bool, string) {
	if recorded < 0 {
		return false, "no recorded trace (internal error)"
	}
	if r.err != nil {
		return false, fmt.Sprintf("replay run failed: %v", r.err)
	}
	if r.replayed != recorded {
		return false, fmt.Sprintf("replay injected %d of %d recorded events (raise duration)",
			r.replayed, recorded)
	}
	if r.doc != doc {
		return false, fmt.Sprintf("replayed outcome diverged from live run (%d vs %d bytes)",
			len(r.doc), len(doc))
	}
	return true, fmt.Sprintf("replayed %d recorded events, outcome byte-identical (%d bytes)",
		recorded, len(doc))
}

// checkReconciled verifies the control plane finished its job: the
// reconciler converged to the final spec, applied every step cleanly, and
// every spec_update was accepted.
func checkReconciled(st *runState) (bool, string) {
	if st.recon == nil {
		return false, "no reconciler ran (internal error: validation requires a spec block)"
	}
	errSteps := 0
	for _, step := range st.recon.Steps() {
		if step.Err != nil {
			errSteps++
		}
	}
	ok := st.recon.Converged() && errSteps == 0 && len(st.specErrs) == 0
	return ok, fmt.Sprintf("%s; %d errored step(s), %d rejected spec_update(s)",
		st.recon.Summary(), errSteps, len(st.specErrs))
}

// journeyJSON is the on-disk form of one committed packet journey
// (matching the albatross-sim -trace-dump format).
type journeyJSON struct {
	Pod    string            `json:"pod"`
	VNI    uint32            `json:"vni"`
	Flow   string            `json:"flow"`
	Bytes  int               `json:"bytes"`
	T0NS   int64             `json:"t0_ns"`
	EndNS  int64             `json:"end_ns"`
	Reason string            `json:"reason"`
	Core   int32             `json:"core"`
	ViaPLB bool              `json:"via_plb"`
	PSN    uint16            `json:"psn,omitempty"`
	OrdQ   uint8             `json:"ordq,omitempty"`
	Steps  []journeyStepJSON `json:"steps"`
}

type journeyStepJSON struct {
	Stage   string `json:"stage"`
	Verdict string `json:"verdict"`
	EnterNS int64  `json:"enter_ns"`
	LeaveNS int64  `json:"leave_ns"`
}

// dumpJourneys writes every committed flight-recorder journey to
// prefix.journeys.json in node/pod order then commit order — stable
// across repeat runs at a fixed seed.
func dumpJourneys(prefix string, cl *cluster.Cluster) error {
	names := core.StageNames()
	out := []journeyJSON{}
	for _, m := range cl.Members() {
		for pi, pr := range m.Node.Pods() {
			label := fmt.Sprintf("node%d/gw%d", m.Index, pi)
			for _, j := range pr.Flight().Journeys() {
				jj := journeyJSON{
					Pod:    label,
					VNI:    j.Flow.VNI,
					Flow:   j.Flow.Tuple.String(),
					Bytes:  j.Bytes,
					T0NS:   int64(j.T0),
					EndNS:  int64(j.End),
					Reason: j.Reason.String(),
					Core:   j.Core,
					ViaPLB: j.ViaPLB,
				}
				if j.ViaPLB {
					jj.PSN, jj.OrdQ = j.PSN, j.OrdQ
				}
				for _, st := range j.Steps[:j.NSteps] {
					jj.Steps = append(jj.Steps, journeyStepJSON{
						Stage:   names[st.Stage],
						Verdict: st.Verdict.String(),
						EnterNS: int64(st.Enter),
						LeaveNS: int64(st.Leave),
					})
				}
				out = append(out, jj)
			}
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(prefix+".journeys.json", append(data, '\n'), 0o644)
}
