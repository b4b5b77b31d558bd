package scenario

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"

	"albatross/internal/cachesim"
	"albatross/internal/cluster"
	"albatross/internal/controlplane"
	"albatross/internal/core"
	"albatross/internal/faults"
	"albatross/internal/gop"
	"albatross/internal/metrics"
	"albatross/internal/pod"
	"albatross/internal/sim"
	"albatross/internal/workload"
	"albatross/internal/workload/trace"
)

// Overrides layers CLI flags over a loaded scenario: a nil field keeps
// the scenario's value. This is how every legacy albatross-sim flag maps
// onto the declarative format without editing the file.
type Overrides struct {
	Seed       *uint64
	Nodes      *int
	Shards     *int
	Flows      *int
	Rate       *float64
	Duration   *sim.Duration
	CacheMB    *int
	Backend    *string
	Burst      *int
	Report     *bool
	MetricsOut *string
	OutcomeOut *string
	Record     *string
	TraceDump  *string
	Replay     *string

	SnapshotEvery *sim.Duration
	SeriesOut     *string
}

// Apply returns a copy of s with the overrides layered on top.
func (s *Scenario) Apply(ov Overrides) *Scenario {
	out := *s
	out.Events = append([]Event(nil), s.Events...)
	out.Assertions = append([]Assertion(nil), s.Assertions...)
	if ov.Seed != nil {
		out.Seed = *ov.Seed
	}
	if ov.Nodes != nil {
		out.Fleet.Nodes = *ov.Nodes
	}
	if ov.Shards != nil {
		out.Fleet.Shards = *ov.Shards
	}
	if ov.Flows != nil {
		out.Workload.Flows = *ov.Flows
	}
	if ov.Rate != nil {
		out.Workload.Rate = *ov.Rate
	}
	if ov.Duration != nil {
		out.Duration = *ov.Duration
	}
	if ov.CacheMB != nil {
		out.Fleet.CacheMB = *ov.CacheMB
	}
	if ov.Backend != nil {
		out.Fleet.Backend = *ov.Backend
	}
	if ov.Burst != nil {
		out.Fleet.Burst = *ov.Burst
	}
	if ov.Report != nil {
		out.Observability.Report = *ov.Report
	}
	if ov.MetricsOut != nil {
		out.Observability.MetricsOut = *ov.MetricsOut
	}
	if ov.OutcomeOut != nil {
		out.Observability.OutcomeOut = *ov.OutcomeOut
	}
	if ov.Record != nil {
		out.Observability.Record = *ov.Record
	}
	if ov.TraceDump != nil {
		out.Observability.TraceDump = *ov.TraceDump
	}
	if ov.Replay != nil {
		out.Workload.Replay = *ov.Replay
	}
	if ov.SnapshotEvery != nil {
		out.Observability.SnapshotEvery = *ov.SnapshotEvery
	}
	if ov.SeriesOut != nil {
		out.Observability.SeriesOut = *ov.SeriesOut
	}
	return &out
}

// Check is one evaluated assertion.
type Check struct {
	Assertion Assertion
	OK        bool
	// Detail is a deterministic one-line explanation with the measured
	// values and the bound they were held to.
	Detail string
}

// Result is one executed scenario: the deterministic report text (safe
// for byte-identity gating on stdout), the outcome artifact, and the
// assertion verdicts.
type Result struct {
	Scenario *Scenario
	// Report is the full run report. Byte-identical across repeat runs
	// and across shard counts for a fixed scenario.
	Report string
	// Outcome is the cluster's keyed-line outcome report (the replay-diff
	// artifact).
	Outcome string
	Checks  []Check
	Passed  int
	Failed  int
}

// OK reports whether every assertion held.
func (r *Result) OK() bool { return r.Failed == 0 }

// runState is one completed execution of a scenario's simulation.
type runState struct {
	cl        *cluster.Cluster
	generated uint64
	replayed  int
	replayOf  int
	rec       *trace.Recorder
	// recon is the control-plane reconciler (nil without a spec block).
	recon *controlplane.Reconciler
	// specErrs records failed spec_update applications, in fire order.
	specErrs []string
}

// identityDoc is the byte-identity comparand: the cluster outcome plus,
// when a reconciler ran, its timed step log — so identity assertions also
// gate the control plane's exact convergence trajectory.
func (st *runState) identityDoc(outcome string) string {
	doc := outcome
	if st.recon != nil {
		doc += "== reconcile ==\n" + st.recon.StepLog()
		for _, e := range st.specErrs {
			doc += "spec_update ERR " + e + "\n"
		}
	}
	return doc
}

// identityRun is what an identity re-execution keeps: its identity
// document or the error that stopped it, and how many recorded events a
// replay injected. Its fleet is garbage once the run returns.
type identityRun struct {
	doc      string
	err      error
	replayed int
}

// reexec executes the scenario once more (at shards, replaying replayOf
// when non-nil) and keeps only what an identity verdict reads.
func (s *Scenario) reexec(shards int, replayOf *trace.Trace) identityRun {
	st, err := s.exec(shards, false, replayOf)
	if err != nil {
		return identityRun{err: err}
	}
	return identityRun{doc: st.identityDoc(st.cl.Outcome()), replayed: st.replayed}
}

// Run validates and executes the scenario, evaluates its assertions,
// writes any configured observability artifacts, and returns the
// deterministic result.
//
// All of the scenario's executions — the primary run, each byte_identity
// re-execution and the replay_identity run — share one pool of
// runtime.GOMAXPROCS(0) slots. The primary takes its slot first and
// holds it while its fleet is needed: the non-identity checks, the report
// (but for its assertion lines) and the artifacts. Re-executions start at
// once and keep only their identity document; the replay starts when the
// primary's trace exists. Identity verdicts and the assertion lines come
// last, in declaration order, so the result does not depend on the slot
// count or on the order re-executions finish in. At most GOMAXPROCS
// fleets are live at once; with one slot the executions run one after
// another, as a serial loop would.
func (s *Scenario) Run() (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	p := newPool(runtime.GOMAXPROCS(0))
	// runs[i] holds assertion i's re-executions in declaration order:
	// byte_identity's repeat runs then its shard counts, or the one replay.
	runs := make([][]identityRun, len(s.Assertions))
	var replayOf *trace.Trace
	var replays []*poolJob
	needRecord := s.Observability.Record != ""
	for i, a := range s.Assertions {
		switch a.Type {
		case "byte_identity":
			shards := make([]int, 0, a.Runs-1+len(a.Shards))
			for run := 1; run < a.Runs; run++ {
				shards = append(shards, s.Fleet.Shards)
			}
			shards = append(shards, a.Shards...)
			runs[i] = make([]identityRun, len(shards))
			for j, k := range shards {
				out := &runs[i][j]
				p.add(true, func() { *out = s.reexec(k, nil) })
			}
		case "replay_identity":
			needRecord = true
			runs[i] = make([]identityRun, 1)
			out := &runs[i][0]
			replays = append(replays, p.add(false, func() { *out = s.reexec(s.Fleet.Shards, replayOf) }))
		}
	}
	// fail stops the pool and waits out every started execution, so no
	// execution outlives Run.
	fail := func(err error) (*Result, error) {
		p.stop()
		p.release()
		p.wait()
		return nil, err
	}

	st, err := s.exec(s.Fleet.Shards, needRecord, nil)
	if err != nil {
		return fail(err)
	}
	if st.rec != nil {
		replayOf = st.rec.Trace()
		for _, j := range replays {
			p.markReady(j)
		}
	}
	res := &Result{Scenario: s, Outcome: st.cl.Outcome()}
	res.Checks = s.evaluate(st)
	doc := st.identityDoc(res.Outcome)
	head := s.reportHead(st)
	var tail string
	if s.Observability.Report {
		tail = "\n" + st.cl.Report()
	}
	if err := s.writeArtifacts(st, replayOf); err != nil {
		return fail(err)
	}
	// Nothing reads the primary's fleet from here on: free its slot.
	p.release()
	p.wait()

	recorded := -1
	if replayOf != nil {
		recorded = len(replayOf.Events)
	}
	for i := range res.Checks {
		c := &res.Checks[i]
		switch c.Assertion.Type {
		case "byte_identity":
			c.OK, c.Detail = byteIdentityVerdict(c.Assertion, doc, runs[i])
		case "replay_identity":
			c.OK, c.Detail = replayIdentityVerdict(doc, recorded, runs[i][0])
		}
		if c.OK {
			res.Passed++
		} else {
			res.Failed++
		}
	}
	res.Report = head + s.reportChecks(res) + tail
	return res, nil
}

// exec builds a fresh cluster for the scenario and runs it once. shards
// overrides the fleet's shard count (identity checks re-execute at other
// values); record captures the injection schedule; replayOf, when
// non-nil, replays a recorded trace instead of generating traffic.
func (s *Scenario) exec(shards int, record bool, replayOf *trace.Trace) (*runState, error) {
	f := &s.Fleet
	ncfg := core.NodeConfig{}
	if f.CacheMB > 0 {
		ncfg.Cache = cachesim.Config{SizeBytes: f.CacheMB << 20, Ways: 16, LineBytes: 64}
	}
	if f.Limiter {
		lc := gop.DefaultConfig()
		ncfg.Limiter = &lc
	}
	ncfg.FlowBackend = f.Backend
	ncfg.Burst = f.Burst
	cl, err := cluster.New(cluster.Config{
		Nodes:         f.Nodes,
		Seed:          s.Seed,
		Node:          ncfg,
		Faults:        s.FaultPlan(),
		Shards:        shards,
		SnapshotEvery: s.Observability.SnapshotEvery,
	})
	if err != nil {
		return nil, err
	}

	w := &s.Workload
	wf := workload.GenerateFlows(w.Flows, w.Tenants, s.Seed)
	// A trace dump samples 1 in 64 packets; otherwise the pod default.
	sample := 0
	if s.Observability.TraceDump != "" {
		sample = 64
	}
	svcFlows := workload.ServiceFlows(wf, w.ACLDenied)
	for p := 0; p < f.Pods; p++ {
		if err := cl.AddPod(core.PodConfig{
			Spec: pod.Spec{
				Name:      fmt.Sprintf("gw%d", p),
				Service:   f.Service,
				DataCores: f.Cores,
				CtrlCores: f.CtrlCores,
				Mode:      f.Mode,
			},
			Flows:            svcFlows,
			QueueDepth:       f.QueueDepth,
			TraceSampleEvery: sample,
		}); err != nil {
			return nil, err
		}
	}
	if f.AutoFallback {
		for _, m := range cl.Members() {
			for _, pr := range m.Node.Pods() {
				pr.EnableAutoFallback()
			}
		}
	}

	st := &runState{cl: cl}
	if s.Spec != nil {
		st.recon, err = controlplane.NewReconciler(cl, s.Spec.ClusterSpec(), s.Spec.Config())
		if err != nil {
			return nil, err
		}
		// Arm the timed spec updates. Each rewrites one member slot of the
		// current desired state (growing it when the slot is new) and
		// resubmits; a rejected update is recorded, not fatal — the run
		// completes and the reconciled assertion or report surfaces it.
		for _, ev := range s.Events {
			if ev.Action != ActionSpecUpdate {
				continue
			}
			ev := ev
			cl.Engine.At(sim.Time(ev.At), func() {
				spec := st.recon.Spec()
				for len(spec.Members) <= ev.Member {
					spec.Members = append(spec.Members, controlplane.MemberSpec{})
				}
				spec.Members[ev.Member] = ev.Entry
				if err := st.recon.SetSpec(spec); err != nil {
					st.specErrs = append(st.specErrs, fmt.Sprintf("t=%v member=%d: %v", ev.At, ev.Member, err))
				}
			})
		}
	}
	sink := cl.Sink()
	if record {
		st.rec = trace.NewRecorder(cl.Engine)
		st.rec.SetMeta(s.Seed, f.Nodes, "scenario "+s.Name)
		sink = cl.RecordingSink(st.rec)
	}

	switch {
	case replayOf != nil:
		rp, err := cl.ReplayTrace(replayOf)
		if err != nil {
			return nil, err
		}
		cl.RunFor(s.Duration)
		cl.RunFor(s.Drain)
		st.replayed, st.replayOf = int(rp.Injected), len(replayOf.Events)
	case w.Replay != "":
		tr, err := trace.ReadFile(w.Replay)
		if err != nil {
			return nil, err
		}
		rp, err := cl.ReplayTrace(tr)
		if err != nil {
			return nil, err
		}
		cl.RunFor(s.Duration)
		cl.RunFor(s.Drain)
		st.replayed, st.replayOf = int(rp.Injected), len(tr.Events)
	default:
		seed := w.Seed
		if seed == 0 {
			seed = s.Seed + 1
		}
		opts := []workload.Option{
			workload.WithFlows(wf),
			workload.WithRate(s.rateFn()),
			workload.WithSeed(seed),
			workload.WithSink(sink),
		}
		if w.PacketBytes > 0 {
			opts = append(opts, workload.WithPacketBytes(w.PacketBytes))
		}
		if w.Zipf > 0 {
			opts = append(opts, workload.WithZipf(w.Zipf))
		}
		if w.Deterministic {
			opts = append(opts, workload.WithDeterministic())
		}
		src, err := workload.New(opts...)
		if err != nil {
			return nil, err
		}
		if err := src.Start(cl.Engine); err != nil {
			return nil, err
		}
		cl.RunFor(s.Duration)
		src.Stop()
		cl.RunFor(s.Drain)
		st.generated = src.Generated
	}
	return st, nil
}

// rateFn compiles the base rate plus ramp events into a piecewise-
// constant offered-rate function.
func (s *Scenario) rateFn() workload.RateFn {
	type point struct {
		at   sim.Time
		rate float64
	}
	var pts []point
	for _, ev := range s.Events {
		if ev.Action == ActionRamp {
			pts = append(pts, point{at: sim.Time(ev.At), rate: ev.Rate})
		}
	}
	// Stable insertion sort by time: equal-time ramps apply in script
	// order, last one winning.
	for i := 1; i < len(pts); i++ {
		for j := i; j > 0 && pts[j-1].at > pts[j].at; j-- {
			pts[j-1], pts[j] = pts[j], pts[j-1]
		}
	}
	base := s.Workload.Rate
	if len(pts) == 0 {
		return workload.ConstantRate(base)
	}
	return func(t sim.Time) float64 {
		r := base
		for _, p := range pts {
			if t < p.at {
				break
			}
			r = p.rate
		}
		return r
	}
}

// maxRate returns the highest offered rate the script ever sets — the
// conservative input to detection-window loss bounds.
func (s *Scenario) maxRate(st *runState) float64 {
	if s.Workload.Replay != "" {
		// Replay: derive the average offered rate from the run itself.
		return float64(st.cl.Sprayed) / (float64(s.Duration) / float64(sim.Second))
	}
	r := s.Workload.Rate
	for _, ev := range s.Events {
		if ev.Action == ActionRamp && ev.Rate > r {
			r = ev.Rate
		}
	}
	return r
}

// describe renders one scripted event deterministically for the report.
func (ev Event) describe() string {
	if ev.Action == ActionRamp {
		return fmt.Sprintf("t=%v ramp rate to %g pps", ev.At, ev.Rate)
	}
	if ev.Action == ActionSpecUpdate {
		e := ev.Entry
		out := fmt.Sprintf("t=%v spec_update member=%d", ev.At, ev.Member)
		if e.NormAdmin() == controlplane.AdminRemoved {
			return out + " removed"
		}
		out += fmt.Sprintf(" w=%g", e.NormWeight())
		if e.Pods > 0 {
			out += fmt.Sprintf(" pods=%d", e.Pods)
		}
		if e.NormAdmin() == controlplane.AdminDrained {
			out += " drained"
		}
		return out
	}
	f := ev.Fault
	var b strings.Builder
	fmt.Fprintf(&b, "t=%v %s %s node=%d", ev.At, ev.Action, f.Kind, f.Node)
	switch f.Kind {
	case faults.KindCoreStall:
		fmt.Fprintf(&b, " pod=%d core=%d factor=%g", f.Pod, f.Core, f.Factor)
	case faults.KindCoreFail:
		fmt.Fprintf(&b, " pod=%d core=%d", f.Pod, f.Core)
	case faults.KindRxLoss:
		fmt.Fprintf(&b, " pod=%d core=%d prob=%g", f.Pod, f.Core, f.Factor)
	case faults.KindPodCrash, faults.KindPodDrain:
		fmt.Fprintf(&b, " pod=%d", f.Pod)
	case faults.KindReorderStress:
		fmt.Fprintf(&b, " pod=%d queue=%d hold=%v clamp=%d", f.Pod, f.Queue, f.HoldHeads, f.DepthClamp)
	}
	if f.Duration > 0 {
		fmt.Fprintf(&b, " for %v", f.Duration)
	}
	return b.String()
}

// reportHead renders the deterministic run report up to its assertion
// lines: configuration echo, scripted events, fired-fault log, traffic and
// latency summary. Wall-clock never appears in the report.
func (s *Scenario) reportHead(st *runState) string {
	var b strings.Builder
	f, w := &s.Fleet, &s.Workload
	fmt.Fprintf(&b, "scenario %s: %d node(s), %v %s, %d pod(s) x %d cores, seed %d\n",
		s.Name, f.Nodes, f.Mode, ServiceName(f.Service), f.Pods, f.Cores, s.Seed)
	if f.Backend != "" || f.Burst > 1 {
		be := f.Backend
		if be == "" {
			be = "legacy"
		}
		burst := f.Burst
		if burst < 1 {
			burst = 1
		}
		fmt.Fprintf(&b, "  dataplane   backend=%s burst=%d\n", be, burst)
	}
	if w.Replay != "" {
		fmt.Fprintf(&b, "  workload    replay %s: %d/%d events injected over %v (+%v drain)\n",
			w.Replay, st.replayed, st.replayOf, s.Duration, s.Drain)
	} else {
		fmt.Fprintf(&b, "  workload    %d flows over %d tenants @ %g pps for %v (+%v drain), generated %d\n",
			w.Flows, w.Tenants, w.Rate, s.Duration, s.Drain, st.generated)
	}
	if len(s.Events) > 0 {
		fmt.Fprintf(&b, "  script      %d event(s)\n", len(s.Events))
		for _, ev := range s.Events {
			fmt.Fprintf(&b, "    %s\n", ev.describe())
		}
	}
	if log := st.cl.FaultLog(); len(log) > 0 {
		fmt.Fprintf(&b, "  faults\n")
		for _, e := range log {
			fmt.Fprintf(&b, "    %s\n", e)
		}
	}
	if st.recon != nil {
		fmt.Fprintf(&b, "  reconcile   interval=%v: %s\n", st.recon.Interval(), st.recon.Summary())
		for _, step := range st.recon.Steps() {
			fmt.Fprintf(&b, "    %s\n", step)
		}
		for _, e := range st.specErrs {
			fmt.Fprintf(&b, "    spec_update ERR %s\n", e)
		}
	}
	m := st.cl.Totals()
	fmt.Fprintf(&b, "  traffic     sprayed=%d delivered=%d remapped=%d switch-drops=%d blackholed=%d\n",
		st.cl.Sprayed, m.Tx, st.cl.Remapped, st.cl.Drops, st.cl.Blackholed())
	fmt.Fprintf(&b, "  drops       nic=%d queue=%d plb=%d acl=%d header=%d rxloss=%d fault=%d crash=%d redirected=%d\n",
		m.NICDrops, m.QueueDrops, m.PLBDrops, m.ServiceDrops, m.HeaderDrops,
		m.RxLost, m.FaultLost, m.CrashDrops, m.Redirected)
	fmt.Fprintf(&b, "  latency     worst-node p50=%.1fµs p99=%.1fµs\n",
		float64(st.cl.WorstIngressLatency(0.50))/1000, float64(st.cl.WorstIngressLatency(0.99))/1000)
	// The series fingerprint in the report puts the full timeline under
	// the gameday stdout repeat-cmp: any sampling nondeterminism fails the
	// gate even in scenarios without an identity assertion.
	if tl := st.cl.Timeline(); tl != nil {
		sum, n := tl.Checksum()
		fmt.Fprintf(&b, "  series      every=%v ticks=%d fnv64a=%#016x bytes=%d\n",
			tl.Every(), tl.Len(), sum, n)
	}
	return b.String()
}

// reportChecks renders the report's assertion lines, in declaration
// order, and its verdict line.
func (s *Scenario) reportChecks(res *Result) string {
	var b strings.Builder
	for _, c := range res.Checks {
		verdict := "PASS"
		if !c.OK {
			verdict = "FAIL"
		}
		fmt.Fprintf(&b, "  assert %s %s: %s\n", verdict, c.Assertion.Type, c.Detail)
	}
	overall := "PASS"
	if res.Failed > 0 {
		overall = "FAIL"
	}
	fmt.Fprintf(&b, "scenario %s: %s (%d/%d assertions)\n",
		s.Name, overall, res.Passed, res.Passed+res.Failed)
	return b.String()
}

// writePrometheus streams reg's Prometheus export into the file at path.
func writePrometheus(path string, reg *metrics.Registry) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = reg.WritePrometheus(w)
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeArtifacts writes the configured observability outputs; rec is the
// run's recorded trace (nil when nothing was recorded).
func (s *Scenario) writeArtifacts(st *runState, rec *trace.Trace) error {
	o := &s.Observability
	if o.MetricsOut != "" {
		reg := metrics.New()
		st.cl.RegisterMetrics(reg)
		if err := writePrometheus(o.MetricsOut+".prom", reg); err != nil {
			return err
		}
	}
	if o.OutcomeOut != "" {
		if err := os.WriteFile(o.OutcomeOut, []byte(st.cl.Outcome()), 0o644); err != nil {
			return err
		}
	}
	if o.Record != "" && rec != nil {
		if err := rec.WriteFile(o.Record); err != nil {
			return err
		}
	}
	if o.TraceDump != "" {
		if err := dumpJourneys(o.TraceDump, st.cl); err != nil {
			return err
		}
	}
	if o.SeriesOut != "" {
		tl := st.cl.Timeline()
		if tl == nil {
			return fmt.Errorf("scenario %s: series_out set but no timeline was sampled", s.Name)
		}
		if err := os.WriteFile(o.SeriesOut+".csv", []byte(tl.CSV()), 0o644); err != nil {
			return err
		}
	}
	return nil
}
