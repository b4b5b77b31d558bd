package scenario

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"albatross/internal/controlplane"
	"albatross/internal/errs"
	"albatross/internal/faults"
	"albatross/internal/flowtable"
	"albatross/internal/pod"
	"albatross/internal/service"
	"albatross/internal/sim"
)

// Scenario is one declarative gameday drill: what to deploy, what traffic
// to offer, what to break and when, what to observe, and what must hold
// at the end. Load builds one from YAML; the fields are exported so
// library users can construct scenarios programmatically and run them
// through the same Execute path as the CLI.
type Scenario struct {
	// Name identifies the scenario in reports. Required.
	Name string
	// Description is free-form documentation.
	Description string
	// Seed is the master simulation seed (default 1).
	Seed uint64
	// Duration is the virtual time the workload runs for. Required.
	Duration sim.Duration
	// Drain is the extra virtual time after the workload stops, letting
	// in-flight packets and reorder timeouts resolve (default 2ms).
	Drain sim.Duration

	Fleet    Fleet
	Workload Workload
	// Spec is the optional desired-state block: when present, a
	// control-plane reconciler drives the fleet toward it over real eBGP
	// proxy sessions, and spec_update events steer it mid-run.
	Spec *ReconcileSpec
	// Events is the timed script: fault injections, workload ramps, and
	// desired-state updates.
	Events []Event
	// Observability configures the telemetry taps of the run.
	Observability Observability
	// Assertions is the declarative postcondition block.
	Assertions []Assertion
}

// Fleet describes the deployment: how many servers, how they are sharded
// across engines, and the shape of the gateway pods on each.
type Fleet struct {
	// Nodes is the gateway server count (default 1). Every fleet runs as
	// a cluster behind consistent-hash ECMP, so outcome reports and
	// assertions apply uniformly from 1 node to regionscale.
	Nodes int
	// Shards is the number of workers that advance the members' engines
	// (0 = auto). Purely an execution strategy: outputs are byte-identical
	// at any value.
	Shards int
	// Pods deploys this many identical pods per node (default 1; crash /
	// drain drills want ≥ 2 so tenants have a redirect sibling).
	Pods int
	// Cores / CtrlCores size each pod (defaults 4 / 2).
	Cores     int
	CtrlCores int
	// Service selects the gateway service (default vpc-vpc).
	Service service.Type
	// Mode selects packet-level (plb, default) or flow-hash (rss) load
	// balancing.
	Mode pod.Mode
	// CacheMB shrinks the per-NUMA L3 model (0 = model default 100 MiB;
	// regionscale fleets use 1).
	CacheMB int
	// Limiter arms the two-stage tenant overload limiter.
	Limiter bool
	// AutoFallback arms the reorder-timeout watchdog (PLB→RSS fallback).
	AutoFallback bool
	// QueueDepth overrides the per-core RX queue depth (0 = default 1024).
	QueueDepth int
	// Backend selects the node-level flow-table backend steering ingress
	// flows to pods ("" = legacy first-pod injection; "session" or
	// "othello").
	Backend string
	// Burst is the dispatch batch size: up to Burst same-instant arrivals
	// share one NIC event (0 or 1 = one event per packet). It changes the
	// event count, never the report.
	Burst int
}

// Workload describes the offered traffic: either a synthetic flow mix or
// a recorded trace replay.
type Workload struct {
	// Flows is the concurrent flow count. Required unless Replay is set.
	Flows int
	// Tenants spreads flows over this many VNIs (default 1000).
	Tenants int
	// Rate is the offered rate in packets/second. Required unless Replay
	// is set. Ramp events rescale it mid-run.
	Rate float64
	// Zipf skews flow popularity (0 = uniform).
	Zipf float64
	// Seed seeds the source's private RNG (0 = scenario seed + 1).
	Seed uint64
	// PacketBytes is the generated wire size (0 = 256).
	PacketBytes int
	// Deterministic spaces arrivals exactly 1/rate apart.
	Deterministic bool
	// ACLDenied marks this fraction of flows ACL-denied.
	ACLDenied float64
	// Replay plays a recorded trace file instead of generating traffic.
	Replay string
}

// Action is an event-script verb.
type Action uint8

const (
	// ActionInject injects one fault (any of the 10 kinds).
	ActionInject Action = iota
	// ActionDrain gray-upgrades a node (sugar for fault: node-drain).
	ActionDrain
	// ActionFlap flaps a node's BGP uplink (sugar for fault: bgp-flap).
	ActionFlap
	// ActionRamp switches the workload's offered rate.
	ActionRamp
	// ActionSpecUpdate replaces one member's desired-state entry in the
	// reconciler's spec (requires a top-level spec block).
	ActionSpecUpdate
)

func (a Action) String() string {
	switch a {
	case ActionInject:
		return "inject_failure"
	case ActionDrain:
		return "drain"
	case ActionFlap:
		return "flap"
	case ActionRamp:
		return "ramp"
	case ActionSpecUpdate:
		return "spec_update"
	default:
		return fmt.Sprintf("action(%d)", uint8(a))
	}
}

// Event is one step of the timed script.
type Event struct {
	// At is the virtual fire time, relative to scenario start.
	At sim.Duration
	// Action selects the verb.
	Action Action
	// Fault is the compiled fault for inject_failure / drain / flap.
	Fault faults.Fault
	// Rate is the new offered rate for ramp.
	Rate float64
	// Member is the member slot a spec_update rewrites.
	Member int
	// Entry is the member's new desired-state entry for spec_update —
	// the full entry, not a delta: omitted keys take their defaults
	// (weight 1.0, pods unmanaged, admin up).
	Entry controlplane.MemberSpec
	// Line is the source line (0 for programmatic scenarios).
	Line int
}

// Observability configures the run's telemetry taps. Output paths are
// normally supplied as CLI overrides rather than committed in scenario
// files.
type Observability struct {
	// TraceSample flight-records every Nth packet (0 = off unless a
	// trigger below defaults it to 64).
	TraceSample int
	// TraceLatencyOver commits journeys slower than this end to end.
	TraceLatencyOver sim.Duration
	// TraceVNI commits journeys of one tenant (-1 = off).
	TraceVNI int
	// TraceFaultWindow commits journeys overlapping fault activations.
	TraceFaultWindow bool
	// Report appends the full cluster report to the run output.
	Report bool
	// MetricsOut writes PREFIX.prom and PREFIX.json metrics snapshots.
	MetricsOut string
	// OutcomeOut writes the per-node outcome report (the replay-diff
	// artifact).
	OutcomeOut string
	// Record writes the injection schedule to this trace file.
	Record string
	// TraceDump writes committed flight-recorder journeys to
	// PREFIX.journeys.json.
	TraceDump string
	// SnapshotEvery samples the telemetry timeline every this much virtual
	// time (0 = sampling off). Ticks align to epoch boundaries under the
	// sharded engine, so the series are byte-identical at any shard count.
	SnapshotEvery sim.Duration
	// SeriesOut writes the sampled timeline to PREFIX.csv and PREFIX.json
	// (requires snapshot_every).
	SeriesOut string
}

// Assertion is one declarative postcondition, checked after the run.
type Assertion struct {
	// Type selects the check: conservation, zero_loss, max_loss,
	// remap_bound, detection_window, latency, min_tx, expected_table,
	// byte_identity, replay_identity, converge, window_max, reconciled.
	Type string
	// Fraction is the loss ceiling for max_loss (of sprayed packets).
	Fraction float64
	// Factor is remap_bound's numerator: remapped ≤ Factor/Nodes of
	// sprayed (default 2 — the consistent-hash bound).
	Factor float64
	// Margin scales detection_window's loss bound (default 2).
	Margin float64
	// Quantile selects the latency quantile (default 0.99).
	Quantile float64
	// Max is the latency ceiling.
	Max sim.Duration
	// Count is min_tx's delivery floor.
	Count uint64
	// Runs is byte_identity's repeat count (default 2).
	Runs int
	// Shards lists extra shard counts byte_identity re-executes at.
	Shards []int
	// Pods is expected_table's required per-node backend pool size
	// (-1 = don't check the pool size).
	Pods int
	// MaxMoved is expected_table's per-cluster ceiling on flows the
	// backend remapped across pool updates (-1 = no ceiling).
	MaxMoved int
	// Series names the timeline column converge/window_max read (e.g.
	// "availability" or "albatross_cluster_eligible_members").
	Series string
	// Within is converge's deadline: the series must return to its
	// pre-fault baseline within this much virtual time of the last event.
	Within sim.Duration
	// Tolerance is converge's acceptance band around the baseline
	// (absolute; default 0.05).
	Tolerance float64
	// From and To bound window_max's virtual-time window (To 0 = run end).
	From sim.Duration
	To   sim.Duration
	// MaxValue is window_max's ceiling on the series over the window.
	MaxValue float64
	// Line is the source line (0 for programmatic scenarios).
	Line int
}

// serviceNames maps scenario service names to types.
var serviceNames = map[string]service.Type{
	"vpc-vpc":          service.VPCVPC,
	"vpc-internet":     service.VPCInternet,
	"vpc-idc":          service.VPCIDC,
	"vpc-cloudservice": service.VPCCloudService,
}

// ServiceName returns the scenario-file name of a service type.
func ServiceName(t service.Type) string {
	for name, st := range serviceNames {
		if st == t {
			return name
		}
	}
	return fmt.Sprintf("service(%d)", uint8(t))
}

// faultNames maps fault-kind wire names (faults.Kind.String) to kinds.
var faultNames = func() map[string]faults.Kind {
	m := map[string]faults.Kind{}
	for k := faults.KindCoreStall; k <= faults.KindUplinkWithdraw; k++ {
		m[k.String()] = k
	}
	return m
}()

// LoadFile loads, decodes, and validates a scenario file.
func LoadFile(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return Load(data)
}

// Load decodes and validates a scenario document. Unknown keys, malformed
// values, and semantic violations are all errors wrapping errs.BadConfig.
func Load(data []byte) (*Scenario, error) {
	root, err := parseYAML(data)
	if err != nil {
		return nil, err
	}
	s, err := decodeScenario(root)
	if err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// dec is a strict mapping decoder: typed getters consume keys, and
// finish() errors on anything left over.
type dec struct {
	n       *ynode
	section string
	used    map[string]bool
	err     error
}

func newDec(n *ynode, section string) *dec {
	return &dec{n: n, section: section, used: map[string]bool{}}
}

func (d *dec) fail(line int, format string, args ...any) {
	if d.err == nil {
		d.err = yamlErr(line, format, args...)
	}
}

// take consumes and returns the key's node, or nil.
func (d *dec) take(key string) *ynode {
	d.used[key] = true
	return d.n.get(key)
}

func (d *dec) scalar(key string) (string, *ynode, bool) {
	v := d.take(key)
	if v == nil || d.err != nil {
		return "", nil, false
	}
	if v.kind != kindScalar {
		d.fail(v.line, "%s.%s: expected a scalar value", d.section, key)
		return "", nil, false
	}
	return v.scalar, v, true
}

func (d *dec) str(key string, into *string) {
	if s, _, ok := d.scalar(key); ok {
		*into = s
	}
}

func (d *dec) integer(key string, into *int) {
	if s, v, ok := d.scalar(key); ok {
		n, err := strconv.Atoi(s)
		if err != nil {
			d.fail(v.line, "%s.%s: %q is not an integer", d.section, key, s)
			return
		}
		*into = n
	}
}

func (d *dec) u64(key string, into *uint64) {
	if s, v, ok := d.scalar(key); ok {
		n, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			d.fail(v.line, "%s.%s: %q is not an unsigned integer", d.section, key, s)
			return
		}
		*into = n
	}
}

func (d *dec) float(key string, into *float64) {
	if s, v, ok := d.scalar(key); ok {
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			d.fail(v.line, "%s.%s: %q is not a number", d.section, key, s)
			return
		}
		*into = f
	}
}

func (d *dec) boolean(key string, into *bool) {
	if s, v, ok := d.scalar(key); ok {
		switch s {
		case "true":
			*into = true
		case "false":
			*into = false
		default:
			d.fail(v.line, "%s.%s: %q is not a boolean (true|false)", d.section, key, s)
		}
	}
}

func (d *dec) dur(key string, into *sim.Duration) {
	if s, v, ok := d.scalar(key); ok {
		t, err := time.ParseDuration(s)
		if err != nil {
			d.fail(v.line, "%s.%s: %q is not a duration (e.g. 30ms, 1.5s)", d.section, key, s)
			return
		}
		if t < 0 {
			d.fail(v.line, "%s.%s: negative duration %q", d.section, key, s)
			return
		}
		*into = sim.Duration(t.Nanoseconds())
	}
}

// finish errors on unconsumed keys, listing the section's vocabulary.
func (d *dec) finish() error {
	if d.err != nil {
		return d.err
	}
	for i, k := range d.n.keys {
		if !d.used[k] {
			allowed := make([]string, 0, len(d.used))
			for u := range d.used {
				allowed = append(allowed, u)
			}
			sort.Strings(allowed)
			return yamlErr(d.n.vals[i].line, "unknown key %q in %s (want %s)",
				k, d.section, strings.Join(allowed, "|"))
		}
	}
	return nil
}

func decodeScenario(root *ynode) (*Scenario, error) {
	s := &Scenario{
		Seed:  1,
		Drain: 2 * sim.Millisecond,
		Fleet: Fleet{Nodes: 1, Pods: 1, Cores: 4, CtrlCores: 2},
		Workload: Workload{
			Tenants: 1000,
		},
		Observability: Observability{TraceVNI: -1},
	}
	d := newDec(root, "scenario")
	d.str("name", &s.Name)
	d.str("description", &s.Description)
	d.u64("seed", &s.Seed)
	d.dur("duration", &s.Duration)
	d.dur("drain", &s.Drain)

	if v := d.take("fleet"); v != nil && d.err == nil {
		if v.kind != kindMap {
			return nil, yamlErr(v.line, "fleet: expected a mapping")
		}
		if err := decodeFleet(v, &s.Fleet); err != nil {
			return nil, err
		}
	}
	if v := d.take("workload"); v != nil && d.err == nil {
		if v.kind != kindMap {
			return nil, yamlErr(v.line, "workload: expected a mapping")
		}
		if err := decodeWorkload(v, &s.Workload); err != nil {
			return nil, err
		}
	}
	if v := d.take("spec"); v != nil && d.err == nil {
		if v.kind != kindMap {
			return nil, yamlErr(v.line, "spec: expected a mapping")
		}
		spec, err := decodeSpecBlock(v, "spec")
		if err != nil {
			return nil, err
		}
		s.Spec = spec
	}
	if v := d.take("events"); v != nil && d.err == nil {
		if v.kind != kindSeq {
			return nil, yamlErr(v.line, "events: expected a sequence")
		}
		for _, item := range v.items {
			ev, err := decodeEvent(item)
			if err != nil {
				return nil, err
			}
			s.Events = append(s.Events, ev)
		}
	}
	if v := d.take("observability"); v != nil && d.err == nil {
		if v.kind != kindMap {
			return nil, yamlErr(v.line, "observability: expected a mapping")
		}
		if err := decodeObservability(v, &s.Observability); err != nil {
			return nil, err
		}
	}
	if v := d.take("assertions"); v != nil && d.err == nil {
		if v.kind != kindSeq {
			return nil, yamlErr(v.line, "assertions: expected a sequence")
		}
		for _, item := range v.items {
			a, err := decodeAssertion(item)
			if err != nil {
				return nil, err
			}
			s.Assertions = append(s.Assertions, a)
		}
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	return s, nil
}

func decodeFleet(n *ynode, f *Fleet) error {
	d := newDec(n, "fleet")
	d.integer("nodes", &f.Nodes)
	d.integer("shards", &f.Shards)
	d.integer("pods", &f.Pods)
	d.integer("cores", &f.Cores)
	d.integer("ctrl_cores", &f.CtrlCores)
	d.integer("cache_mb", &f.CacheMB)
	d.integer("queue_depth", &f.QueueDepth)
	d.integer("burst", &f.Burst)
	d.boolean("limiter", &f.Limiter)
	d.boolean("auto_fallback", &f.AutoFallback)
	var svc, mode string
	d.str("service", &svc)
	d.str("mode", &mode)
	d.str("backend", &f.Backend)
	if err := d.finish(); err != nil {
		return err
	}
	if svc != "" {
		st, ok := serviceNames[svc]
		if !ok {
			return yamlErr(n.get("service").line,
				"fleet.service: unknown service %q (want vpc-vpc|vpc-internet|vpc-idc|vpc-cloudservice)", svc)
		}
		f.Service = st
	}
	switch mode {
	case "", "plb":
		f.Mode = pod.ModePLB
	case "rss":
		f.Mode = pod.ModeRSS
	default:
		return yamlErr(n.get("mode").line, "fleet.mode: unknown mode %q (want plb|rss)", mode)
	}
	return nil
}

func decodeWorkload(n *ynode, w *Workload) error {
	d := newDec(n, "workload")
	d.integer("flows", &w.Flows)
	d.integer("tenants", &w.Tenants)
	d.float("rate", &w.Rate)
	d.float("zipf", &w.Zipf)
	d.u64("seed", &w.Seed)
	d.integer("packet_bytes", &w.PacketBytes)
	d.boolean("deterministic", &w.Deterministic)
	d.float("acl_denied", &w.ACLDenied)
	d.str("replay", &w.Replay)
	return d.finish()
}

func decodeObservability(n *ynode, o *Observability) error {
	d := newDec(n, "observability")
	d.integer("trace_sample", &o.TraceSample)
	d.dur("trace_latency_over", &o.TraceLatencyOver)
	d.integer("trace_vni", &o.TraceVNI)
	d.boolean("trace_fault_window", &o.TraceFaultWindow)
	d.boolean("report", &o.Report)
	d.str("metrics_out", &o.MetricsOut)
	d.str("outcome_out", &o.OutcomeOut)
	d.str("record", &o.Record)
	d.str("trace_dump", &o.TraceDump)
	d.dur("snapshot_every", &o.SnapshotEvery)
	d.str("series_out", &o.SeriesOut)
	return d.finish()
}

func decodeEvent(n *ynode) (Event, error) {
	if n.kind != kindMap {
		return Event{}, yamlErr(n.line, "events: each event must be a mapping")
	}
	d := newDec(n, "event")
	var ev Event
	ev.Line = n.line
	var action string
	d.dur("at", &ev.At)
	d.str("action", &action)
	if d.err != nil {
		return Event{}, d.err
	}
	if n.get("at") == nil {
		return Event{}, yamlErr(n.line, "event: missing \"at\" time")
	}
	switch action {
	case "inject_failure":
		ev.Action = ActionInject
		var kindName string
		d.str("fault", &kindName)
		if d.err == nil && n.get("fault") == nil {
			return Event{}, yamlErr(n.line, "event: inject_failure needs a \"fault\" kind")
		}
		kind, ok := faultNames[kindName]
		if d.err == nil && !ok {
			return Event{}, yamlErr(n.get("fault").line,
				"event: unknown fault kind %q (want core-stall|core-fail|pod-crash|pod-drain|reorder-stress|rx-loss|bgp-flap|node-crash|node-drain|uplink-withdraw)", kindName)
		}
		if err := decodeFaultParams(d, n, kind, &ev); err != nil {
			return Event{}, err
		}
	case "drain":
		ev.Action = ActionDrain
		ev.Fault = faults.Fault{Kind: faults.KindNodeDrain, At: ev.At, Duration: 100 * sim.Millisecond}
		d.integer("node", &ev.Fault.Node)
		d.dur("duration", &ev.Fault.Duration)
	case "flap":
		ev.Action = ActionFlap
		ev.Fault = faults.Fault{Kind: faults.KindBGPFlap, At: ev.At, Duration: 500 * sim.Millisecond}
		d.integer("node", &ev.Fault.Node)
		d.dur("duration", &ev.Fault.Duration)
	case "ramp":
		ev.Action = ActionRamp
		d.float("rate", &ev.Rate)
		if d.err == nil && n.get("rate") == nil {
			return Event{}, yamlErr(n.line, "event: ramp needs a \"rate\"")
		}
	case "spec_update":
		ev.Action = ActionSpecUpdate
		ev.Member = -1
		d.integer("member", &ev.Member)
		if d.err == nil && n.get("member") == nil {
			return Event{}, yamlErr(n.line, "event: spec_update needs a \"member\" slot")
		}
		d.float("weight", &ev.Entry.Weight)
		d.integer("pods", &ev.Entry.Pods)
		d.str("admin", &ev.Entry.Admin)
		d.str("backend", &ev.Entry.Backend)
	case "":
		return Event{}, yamlErr(n.line, "event: missing \"action\"")
	default:
		return Event{}, yamlErr(n.get("action").line,
			"event: unknown action %q (want inject_failure|drain|flap|ramp|spec_update)", action)
	}
	if err := d.finish(); err != nil {
		return Event{}, err
	}
	return ev, nil
}

// decodeFaultParams decodes the kind-specific parameters of an
// inject_failure event. Each kind accepts only its own vocabulary, so a
// misplaced parameter (say, "core" on a node-crash) is an error rather
// than silently ignored.
func decodeFaultParams(d *dec, n *ynode, kind faults.Kind, ev *Event) error {
	f := &ev.Fault
	f.Kind = kind
	f.At = ev.At
	d.integer("node", &f.Node)
	switch kind {
	case faults.KindCoreStall:
		f.Factor = 10
		f.Duration = 5 * sim.Millisecond
		d.integer("pod", &f.Pod)
		d.integer("core", &f.Core)
		d.float("factor", &f.Factor)
		d.dur("duration", &f.Duration)
	case faults.KindCoreFail:
		f.Duration = 10 * sim.Millisecond
		d.integer("pod", &f.Pod)
		d.integer("core", &f.Core)
		d.dur("duration", &f.Duration)
	case faults.KindPodCrash, faults.KindPodDrain:
		d.integer("pod", &f.Pod)
		d.dur("restart", &f.Duration)
	case faults.KindReorderStress:
		f.HoldHeads = true
		f.Duration = 5 * sim.Millisecond
		d.integer("pod", &f.Pod)
		d.integer("queue", &f.Queue)
		d.dur("duration", &f.Duration)
		d.boolean("hold_heads", &f.HoldHeads)
		d.integer("depth_clamp", &f.DepthClamp)
	case faults.KindRxLoss:
		f.Factor = 0.5
		f.Duration = 5 * sim.Millisecond
		d.integer("pod", &f.Pod)
		d.integer("core", &f.Core)
		d.float("prob", &f.Factor)
		d.dur("duration", &f.Duration)
	case faults.KindBGPFlap:
		f.Duration = 500 * sim.Millisecond
		d.dur("duration", &f.Duration)
	case faults.KindNodeCrash:
		d.dur("duration", &f.Duration)
	case faults.KindNodeDrain, faults.KindUplinkWithdraw:
		f.Duration = 100 * sim.Millisecond
		d.dur("duration", &f.Duration)
	}
	return nil
}

func decodeAssertion(n *ynode) (Assertion, error) {
	if n.kind != kindMap {
		return Assertion{}, yamlErr(n.line, "assertions: each assertion must be a mapping")
	}
	d := newDec(n, "assertion")
	a := Assertion{Line: n.line}
	d.str("type", &a.Type)
	if d.err == nil && n.get("type") == nil {
		return Assertion{}, yamlErr(n.line, "assertion: missing \"type\"")
	}
	switch a.Type {
	case "conservation", "zero_loss", "replay_identity", "reconciled":
		// No parameters.
	case "max_loss":
		d.float("fraction", &a.Fraction)
		if d.err == nil && n.get("fraction") == nil {
			return Assertion{}, yamlErr(n.line, "assertion: max_loss needs a \"fraction\"")
		}
	case "remap_bound":
		a.Factor = 2
		d.float("factor", &a.Factor)
	case "detection_window":
		a.Margin = 2
		d.float("margin", &a.Margin)
	case "latency":
		a.Quantile = 0.99
		d.float("quantile", &a.Quantile)
		d.dur("max", &a.Max)
		if d.err == nil && n.get("max") == nil {
			return Assertion{}, yamlErr(n.line, "assertion: latency needs a \"max\" ceiling")
		}
	case "min_tx":
		d.u64("count", &a.Count)
		if d.err == nil && n.get("count") == nil {
			return Assertion{}, yamlErr(n.line, "assertion: min_tx needs a \"count\"")
		}
	case "expected_table":
		a.Pods = -1
		a.MaxMoved = -1
		d.integer("pods", &a.Pods)
		d.integer("max_moved", &a.MaxMoved)
		if d.err == nil && n.get("pods") == nil && n.get("max_moved") == nil {
			return Assertion{}, yamlErr(n.line,
				"assertion: expected_table needs \"pods\" and/or \"max_moved\"")
		}
	case "byte_identity":
		a.Runs = 2
		d.integer("runs", &a.Runs)
		if v := d.take("shards"); v != nil && d.err == nil {
			if v.kind != kindSeq {
				return Assertion{}, yamlErr(v.line, "assertion: byte_identity \"shards\" must be a sequence (e.g. [1, 4])")
			}
			for _, item := range v.items {
				if item.kind != kindScalar {
					return Assertion{}, yamlErr(item.line, "assertion: byte_identity shard counts must be integers")
				}
				k, err := strconv.Atoi(item.scalar)
				if err != nil {
					return Assertion{}, yamlErr(item.line, "assertion: byte_identity shard count %q is not an integer", item.scalar)
				}
				a.Shards = append(a.Shards, k)
			}
		}
	case "converge":
		a.Tolerance = 0.05
		d.str("series", &a.Series)
		d.dur("within", &a.Within)
		d.float("tolerance", &a.Tolerance)
		if d.err == nil && n.get("series") == nil {
			return Assertion{}, yamlErr(n.line, "assertion: converge needs a \"series\" column key")
		}
		if d.err == nil && n.get("within") == nil {
			return Assertion{}, yamlErr(n.line, "assertion: converge needs a \"within\" deadline")
		}
	case "window_max":
		d.str("series", &a.Series)
		d.dur("from", &a.From)
		d.dur("to", &a.To)
		d.float("max_value", &a.MaxValue)
		if d.err == nil && n.get("series") == nil {
			return Assertion{}, yamlErr(n.line, "assertion: window_max needs a \"series\" column key")
		}
		if d.err == nil && n.get("max_value") == nil {
			return Assertion{}, yamlErr(n.line, "assertion: window_max needs a \"max_value\" ceiling")
		}
	default:
		return Assertion{}, yamlErr(n.get("type").line,
			"assertion: unknown type %q (want conservation|zero_loss|max_loss|remap_bound|detection_window|latency|min_tx|expected_table|byte_identity|replay_identity|converge|window_max|reconciled)", a.Type)
	}
	if err := d.finish(); err != nil {
		return Assertion{}, err
	}
	return a, nil
}

// Ceilings on the sizes a scenario file or a run override can ask for, so a
// typo is a validation error rather than an out-of-memory crash: maxNodes is
// the bgp.MemberPrefix 10.x.y.0/24 space, maxCacheMB is per node and far
// past any LLC the drills model.
const (
	maxNodes   = 1 << 16
	maxCacheMB = 4096
)

// Validate checks a scenario's semantic shape: required fields, index
// ranges, event and assertion parameters, and the compiled fault plan.
// Every violation wraps errs.BadConfig.
func (s *Scenario) Validate() error {
	bad := func(line int, format string, args ...any) error {
		if line > 0 {
			return yamlErr(line, format, args...)
		}
		return fmt.Errorf("scenario: %s: %w", fmt.Sprintf(format, args...), errs.BadConfig)
	}
	if s.Name == "" {
		return bad(0, "missing name")
	}
	if s.Duration <= 0 {
		return bad(0, "%s: duration must be positive", s.Name)
	}
	f := &s.Fleet
	if f.Nodes < 1 || f.Nodes > maxNodes {
		return bad(0, "%s: fleet.nodes must be in [1,%d]", s.Name, maxNodes)
	}
	if f.Shards < 0 {
		return bad(0, "%s: fleet.shards must be >= 0", s.Name)
	}
	if f.Pods < 1 {
		return bad(0, "%s: fleet.pods must be >= 1", s.Name)
	}
	if f.Cores < 1 || f.CtrlCores < 1 {
		return bad(0, "%s: fleet.cores and fleet.ctrl_cores must be >= 1", s.Name)
	}
	if f.CacheMB < 0 || f.CacheMB > maxCacheMB {
		return bad(0, "%s: fleet.cache_mb must be in [0,%d]", s.Name, maxCacheMB)
	}
	if f.Backend != "" {
		if err := flowtable.CheckBackendName(f.Backend); err != nil {
			return fmt.Errorf("scenario: %s: fleet.backend: %w", s.Name, err)
		}
	}
	if f.Burst < 0 {
		return bad(0, "%s: fleet.burst must be >= 0", s.Name)
	}
	w := &s.Workload
	if w.Replay == "" {
		if w.Flows < 1 {
			return bad(0, "%s: workload.flows must be >= 1 (or set workload.replay)", s.Name)
		}
		if w.Rate <= 0 {
			return bad(0, "%s: workload.rate must be positive (or set workload.replay)", s.Name)
		}
	}
	if w.Zipf < 0 {
		return bad(0, "%s: workload.zipf must be >= 0", s.Name)
	}
	if s.Observability.SnapshotEvery < 0 {
		return bad(0, "%s: observability.snapshot_every must be >= 0", s.Name)
	}
	if s.Observability.SeriesOut != "" && s.Observability.SnapshotEvery <= 0 {
		return bad(0, "%s: observability.series_out requires snapshot_every", s.Name)
	}
	if w.ACLDenied < 0 || w.ACLDenied > 1 {
		return bad(0, "%s: workload.acl_denied must be in [0,1]", s.Name)
	}
	if s.Spec != nil {
		if err := s.Spec.validate(f.Nodes); err != nil {
			return err
		}
	}
	for i, ev := range s.Events {
		if ev.Action == ActionSpecUpdate {
			if s.Spec == nil {
				return bad(ev.Line, "%s: event %d: spec_update requires a top-level spec block", s.Name, i)
			}
			if ev.Member < 0 {
				return bad(ev.Line, "%s: event %d: spec_update member must be >= 0", s.Name, i)
			}
			probe := controlplane.ClusterSpec{Members: []controlplane.MemberSpec{ev.Entry}}
			if err := probe.Validate(); err != nil {
				return bad(ev.Line, "%s: event %d: %v", s.Name, i, err)
			}
			continue
		}
		if ev.Action == ActionRamp {
			if ev.Rate < 0 {
				return bad(ev.Line, "%s: event %d: ramp rate must be >= 0", s.Name, i)
			}
			if w.Replay != "" {
				return bad(ev.Line, "%s: event %d: ramp has no effect on a trace replay", s.Name, i)
			}
			continue
		}
		if ev.Fault.Node >= f.Nodes {
			return bad(ev.Line, "%s: event %d: node %d out of range [0,%d)", s.Name, i, ev.Fault.Node, f.Nodes)
		}
		if ev.Fault.Pod >= f.Pods {
			return bad(ev.Line, "%s: event %d: pod %d out of range [0,%d)", s.Name, i, ev.Fault.Pod, f.Pods)
		}
		if ev.Fault.Core >= f.Cores {
			return bad(ev.Line, "%s: event %d: core %d out of range [0,%d)", s.Name, i, ev.Fault.Core, f.Cores)
		}
	}
	if plan := s.FaultPlan(); plan != nil {
		if err := plan.Validate(); err != nil {
			return err
		}
	}
	for i, a := range s.Assertions {
		switch a.Type {
		case "max_loss":
			if a.Fraction <= 0 || a.Fraction > 1 {
				return bad(a.Line, "%s: assertion %d: max_loss fraction must be in (0,1]", s.Name, i)
			}
		case "remap_bound":
			if a.Factor <= 0 {
				return bad(a.Line, "%s: assertion %d: remap_bound factor must be positive", s.Name, i)
			}
		case "detection_window":
			if a.Margin <= 0 {
				return bad(a.Line, "%s: assertion %d: detection_window margin must be positive", s.Name, i)
			}
		case "latency":
			if a.Quantile <= 0 || a.Quantile >= 1 {
				return bad(a.Line, "%s: assertion %d: latency quantile must be in (0,1)", s.Name, i)
			}
			if a.Max <= 0 {
				return bad(a.Line, "%s: assertion %d: latency max must be positive", s.Name, i)
			}
		case "min_tx":
			if a.Count < 1 {
				return bad(a.Line, "%s: assertion %d: min_tx count must be >= 1", s.Name, i)
			}
		case "expected_table":
			if s.Fleet.Backend == "" {
				return bad(a.Line, "%s: assertion %d: expected_table requires fleet.backend", s.Name, i)
			}
			if a.Pods < 0 && a.MaxMoved < 0 {
				return bad(a.Line, "%s: assertion %d: expected_table needs pods >= 0 and/or max_moved >= 0", s.Name, i)
			}
		case "byte_identity":
			if a.Runs < 1 {
				return bad(a.Line, "%s: assertion %d: byte_identity runs must be >= 1", s.Name, i)
			}
			for _, k := range a.Shards {
				if k < 0 {
					return bad(a.Line, "%s: assertion %d: byte_identity shard counts must be >= 0", s.Name, i)
				}
			}
		case "converge":
			if s.Observability.SnapshotEvery <= 0 {
				return bad(a.Line, "%s: assertion %d: converge requires observability.snapshot_every", s.Name, i)
			}
			if a.Series == "" {
				return bad(a.Line, "%s: assertion %d: converge series must be non-empty", s.Name, i)
			}
			if a.Within <= 0 {
				return bad(a.Line, "%s: assertion %d: converge within must be positive", s.Name, i)
			}
			if a.Tolerance <= 0 {
				return bad(a.Line, "%s: assertion %d: converge tolerance must be positive", s.Name, i)
			}
			if len(s.Events) == 0 {
				return bad(a.Line, "%s: assertion %d: converge needs at least one event to recover from", s.Name, i)
			}
		case "window_max":
			if s.Observability.SnapshotEvery <= 0 {
				return bad(a.Line, "%s: assertion %d: window_max requires observability.snapshot_every", s.Name, i)
			}
			if a.Series == "" {
				return bad(a.Line, "%s: assertion %d: window_max series must be non-empty", s.Name, i)
			}
			if a.From < 0 || (a.To != 0 && a.To <= a.From) {
				return bad(a.Line, "%s: assertion %d: window_max window [from,to] is empty", s.Name, i)
			}
		case "reconciled":
			if s.Spec == nil {
				return bad(a.Line, "%s: assertion %d: reconciled requires a top-level spec block", s.Name, i)
			}
		case "conservation", "zero_loss", "replay_identity":
			// No parameters to validate.
		case "":
			return bad(a.Line, "%s: assertion %d: missing type", s.Name, i)
		default:
			return bad(a.Line, "%s: assertion %d: unknown type %q", s.Name, i, a.Type)
		}
	}
	return nil
}

// FaultPlan compiles the event script's fault events into a deterministic
// fault plan (nil when the script injects nothing).
func (s *Scenario) FaultPlan() *faults.Plan {
	var plan faults.Plan
	for _, ev := range s.Events {
		if ev.Action == ActionRamp || ev.Action == ActionSpecUpdate {
			continue
		}
		plan.Faults = append(plan.Faults, ev.Fault)
	}
	if len(plan.Faults) == 0 {
		return nil
	}
	return &plan
}
