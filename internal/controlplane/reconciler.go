package controlplane

import (
	"fmt"
	"strings"

	"albatross/internal/cluster"
	"albatross/internal/errs"
	"albatross/internal/sim"
)

// Config tunes the reconcile loop.
type Config struct {
	// Interval is the virtual-time tick period (default 5ms). Every
	// Interval the reconciler diffs spec against observed state and
	// applies at most StepsPerTick corrective steps.
	Interval sim.Duration
	// StepsPerTick rate-limits convergence (default 1). One step per tick
	// is the make-before-break guarantee: a drain lands a full tick before
	// the removal that depends on it, a member is added a full tick before
	// weight shifts onto it.
	StepsPerTick int
}

// Step is one applied (or attempted) corrective action, recorded in the
// reconciler's deterministic step log.
type Step struct {
	At     sim.Time
	Node   int
	Action string // "add", "drain", "restore", "remove", "weight", "scale-up", "scale-down"
	Detail string
	Err    error
}

func (s Step) String() string {
	out := fmt.Sprintf("%v node=%d %s", s.At, s.Node, s.Action)
	if s.Detail != "" {
		out += " " + s.Detail
	}
	if s.Err != nil {
		out += " ERR " + s.Err.Error()
	}
	return out
}

// Reconciler drives a cluster toward a ClusterSpec. Construct with
// NewReconciler; the tick timer arms immediately on the cluster's control
// engine, so the loop runs whenever the cluster runs. Submit new desired
// state at any time with SetSpec — the loop picks it up on its next tick.
//
// All methods must be called from the control engine's context (test code
// between RunFor calls, scenario events, or the tick itself) — the same
// single-threaded discipline every other control-plane API in the
// simulator follows.
type Reconciler struct {
	c    *cluster.Cluster
	cfg  Config
	spec ClusterSpec

	steps []Step
	ticks int

	// adminUp shadows the administrative state the reconciler has applied
	// per member. The cluster deliberately doesn't expose its admin clock;
	// the reconciler owns every admin transition it makes, so its own
	// record is authoritative for its purposes.
	adminUp []bool
	// drainedAt[i] is when the reconciler drained member i (for the
	// removal soak: remove only after a full Interval of drain).
	drainedAt []sim.Time
}

// NewReconciler validates spec against the cluster, attaches the
// reconciler as the cluster's controller and arms the tick timer.
func NewReconciler(c *cluster.Cluster, spec ClusterSpec, cfg Config) (*Reconciler, error) {
	if c == nil {
		return nil, fmt.Errorf("controlplane: nil cluster: %w", errs.BadConfig)
	}
	if cfg.Interval < 0 {
		return nil, fmt.Errorf("controlplane: interval %v must be >= 0: %w", cfg.Interval, errs.BadConfig)
	}
	if cfg.Interval == 0 {
		cfg.Interval = 5 * sim.Millisecond
	}
	if cfg.StepsPerTick < 0 {
		return nil, fmt.Errorf("controlplane: steps per tick %d must be >= 0: %w", cfg.StepsPerTick, errs.BadConfig)
	}
	if cfg.StepsPerTick == 0 {
		cfg.StepsPerTick = 1
	}
	r := &Reconciler{c: c, cfg: cfg}
	for range c.Members() {
		r.adminUp = append(r.adminUp, true)
		r.drainedAt = append(r.drainedAt, 0)
	}
	if err := r.SetSpec(spec); err != nil {
		return nil, err
	}
	c.AttachController(r)
	c.Engine.AfterArg(cfg.Interval, reconcileTick, r)
	return r, nil
}

// SetSpec replaces the desired state. Beyond ClusterSpec.Validate, two
// cluster-dependent rules apply: the spec must cover every existing member
// (no silent shrink), and a member the cluster has already removed is a
// tombstone — its spec entry must stay AdminRemoved forever.
func (r *Reconciler) SetSpec(spec ClusterSpec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	if len(spec.Members) < len(r.c.Members()) {
		return fmt.Errorf("controlplane: spec has %d members but cluster has %d — removed members keep tombstone entries: %w",
			len(spec.Members), len(r.c.Members()), errs.BadConfig)
	}
	for i, m := range r.c.Members() {
		if m.State() == "removed" && spec.Members[i].NormAdmin() != AdminRemoved {
			return fmt.Errorf("controlplane: member %d is removed and cannot be resurrected — spec entry must stay admin %q: %w",
				i, AdminRemoved, errs.BadConfig)
		}
	}
	for i := len(r.c.Members()); i < len(spec.Members); i++ {
		if spec.Members[i].NormAdmin() == AdminRemoved {
			return fmt.Errorf("controlplane: member %d is declared removed but was never added: %w", i, errs.BadConfig)
		}
	}
	r.spec = spec.Clone()
	return nil
}

// Spec returns a copy of the current desired state.
func (r *Reconciler) Spec() ClusterSpec { return r.spec.Clone() }

// reconcileTick is the recurring engine event: rearm, then converge by at
// most StepsPerTick steps. Same self-rearming pattern as the BFD probe
// timers — the timer never outlives the engine, and ticking an already
// converged cluster is a cheap no-op diff.
func reconcileTick(arg any) {
	r := arg.(*Reconciler)
	r.c.Engine.AfterArg(r.cfg.Interval, reconcileTick, r)
	r.ticks++
	for n := 0; n < r.cfg.StepsPerTick; n++ {
		step, ok := r.nextStep()
		if !ok {
			break
		}
		r.apply(step)
		if step.Err != nil {
			break // don't burn the tick budget retrying a failing member
		}
	}
}

// nextStep computes the single highest-priority corrective step: the first
// of memberSteps, scanning members in index order. A removal waits out a
// full Interval of drain soak, and a pod scale moves one pod at a time.
// Growth comes last — existing members are healed before new ones join.
// Returns ok=false when no step is applicable right now (which includes
// "waiting out a drain soak": not applicable yet, but not converged).
func (r *Reconciler) nextStep() (Step, bool) {
	members := r.c.Members()
	for i, m := range members {
		steps := r.memberSteps(i, m)
		if len(steps) == 0 {
			continue
		}
		s := steps[0]
		switch s.Action {
		case "remove":
			if r.c.Engine.Now() < r.drainedAt[i].Add(r.cfg.Interval) {
				continue // soaking; later actions are moot for this member
			}
		case "scale-up":
			s.Detail = fmt.Sprintf("%d -> %d", m.ActivePods(), m.ActivePods()+1)
		case "scale-down":
			s.Detail = fmt.Sprintf("%d -> %d", m.ActivePods(), m.ActivePods()-1)
		}
		return s, true
	}
	if len(r.spec.Members) > len(members) {
		return Step{Node: len(members), Action: "add"}, true
	}
	return Step{}, false
}

// memberSteps returns every corrective step member i needs, in
// make-before-break order: admin transitions before weight, weight before
// pods. A member the spec removes needs only its drain and removal. A pod
// scale is one step over the whole difference.
func (r *Reconciler) memberSteps(i int, m *cluster.Member) []Step {
	if i >= len(r.spec.Members) || m.State() == "removed" {
		return nil // a tombstone; SetSpec guarantees the spec agrees
	}
	var steps []Step
	want := r.spec.Members[i]
	switch want.NormAdmin() {
	case AdminRemoved:
		if r.adminUp[i] {
			steps = append(steps, Step{Node: i, Action: "drain", Detail: "make-before-break removal"})
		}
		return append(steps, Step{Node: i, Action: "remove"})
	case AdminDrained:
		if r.adminUp[i] {
			steps = append(steps, Step{Node: i, Action: "drain"})
		}
	case AdminUp:
		if !r.adminUp[i] {
			steps = append(steps, Step{Node: i, Action: "restore"})
		}
	}
	if got := m.Weight(); got != want.NormWeight() {
		steps = append(steps, Step{Node: i, Action: "weight", Detail: fmt.Sprintf("%g -> %g", got, want.NormWeight())})
	}
	if got := m.ActivePods(); want.Pods > 0 && got != want.Pods {
		action := "scale-up"
		if got > want.Pods {
			action = "scale-down"
		}
		steps = append(steps, Step{Node: i, Action: action, Detail: fmt.Sprintf("%d -> %d", got, want.Pods)})
	}
	return steps
}

// apply executes one step through the cluster's lifecycle APIs and records
// it in the step log.
func (r *Reconciler) apply(s Step) {
	s.At = r.c.Engine.Now()
	switch s.Action {
	case "drain":
		s.Err = r.c.SetNodeAdmin(s.Node, false)
		if s.Err == nil {
			r.adminUp[s.Node] = false
			r.drainedAt[s.Node] = s.At
		}
	case "restore":
		s.Err = r.c.SetNodeAdmin(s.Node, true)
		if s.Err == nil {
			r.adminUp[s.Node] = true
		}
	case "remove":
		s.Err = r.c.RemoveNode(s.Node)
	case "weight":
		s.Err = r.c.SetWeight(s.Node, r.spec.Members[s.Node].NormWeight())
	case "scale-up":
		m, err := r.c.MemberAt(s.Node)
		if err == nil {
			err = r.c.ScalePods(s.Node, m.ActivePods()+1)
		}
		s.Err = err
	case "scale-down":
		m, err := r.c.MemberAt(s.Node)
		if err == nil {
			err = r.c.ScalePods(s.Node, m.ActivePods()-1)
		}
		s.Err = err
	case "add":
		// New members join drained-equivalent only in the weight sense:
		// AddNode brings them up at full weight, so a canary spec (low
		// weight) shifts down on the *next* tick. Joining at full weight
		// is loss-free — the member is healthy by construction — and
		// keeps AddNode's consistent-hash bound intact.
		_, s.Err = r.c.AddNode()
		if s.Err == nil {
			r.adminUp = append(r.adminUp, true)
			r.drainedAt = append(r.drainedAt, 0)
		}
	default:
		s.Err = fmt.Errorf("controlplane: unknown action %q: %w", s.Action, errs.BadState)
	}
	r.steps = append(r.steps, s)
}

// Converged reports whether observed state matches the spec — no step is
// applicable and nothing is soaking toward removal.
func (r *Reconciler) Converged() bool {
	if _, ok := r.nextStep(); ok {
		return false
	}
	// A drain soak returns no step but is not converged: the spec still
	// wants the member gone.
	for i, m := range r.c.Members() {
		if i < len(r.spec.Members) && r.spec.Members[i].NormAdmin() == AdminRemoved && m.State() != "removed" {
			return false
		}
	}
	return true
}

// Plan returns the full unsequenced diff: every corrective step the
// reconciler would eventually apply, one entry per divergent aspect, in
// member order. A dry-run view — nothing is applied and the rate limit
// doesn't apply (the live loop interleaves these across ticks).
func (r *Reconciler) Plan() []Step {
	var plan []Step
	members := r.c.Members()
	for i, m := range members {
		plan = append(plan, r.memberSteps(i, m)...)
	}
	for i := len(members); i < len(r.spec.Members); i++ {
		plan = append(plan, Step{Node: i, Action: "add"})
	}
	return plan
}

// Steps returns the applied step log in order.
func (r *Reconciler) Steps() []Step { return r.steps }

// Interval returns the tick period.
func (r *Reconciler) Interval() sim.Duration { return r.cfg.Interval }

// Summary implements cluster.Controller: a deterministic one-liner for
// reports, e.g. "reconciler: 42 ticks, 7 steps, converged".
func (r *Reconciler) Summary() string {
	state := "converged"
	if !r.Converged() {
		state = fmt.Sprintf("pending %d", len(r.Plan()))
	}
	errn := 0
	for _, s := range r.steps {
		if s.Err != nil {
			errn++
		}
	}
	out := fmt.Sprintf("reconciler: %d ticks, %d steps, %s", r.ticks, len(r.steps), state)
	if errn > 0 {
		out += fmt.Sprintf(", %d errors", errn)
	}
	return out
}

// StepLog renders the applied steps one per line — the reconcile section
// of scenario reports.
func (r *Reconciler) StepLog() string {
	var b strings.Builder
	for _, s := range r.steps {
		b.WriteString(s.String())
		b.WriteByte('\n')
	}
	return b.String()
}
