package scenario

import (
	"fmt"

	"albatross/internal/controlplane"
	"albatross/internal/errs"
	"albatross/internal/sim"
)

// ReconcileSpec is a scenario's desired-state block: the ClusterSpec the
// control-plane reconciler drives the fleet toward, plus the reconcile
// loop's tuning: a scenario file's top-level `spec:` mapping.
type ReconcileSpec struct {
	// Interval is the reconcile tick period (0 = 5ms).
	Interval sim.Duration
	// StepsPerTick rate-limits convergence (0 = 1 step per tick).
	StepsPerTick int
	// Members is the desired per-member state, indexed by member slot.
	// Longer than fleet.nodes means the reconciler grows the cluster.
	Members []controlplane.MemberSpec
}

// ClusterSpec converts the block to the control plane's desired-state
// type.
func (r *ReconcileSpec) ClusterSpec() controlplane.ClusterSpec {
	return controlplane.ClusterSpec{Members: append([]controlplane.MemberSpec(nil), r.Members...)}
}

// Config converts the block's tuning to a reconciler config.
func (r *ReconcileSpec) Config() controlplane.Config {
	return controlplane.Config{Interval: r.Interval, StepsPerTick: r.StepsPerTick}
}

// decodeSpecBlock decodes a `spec:` mapping.
func decodeSpecBlock(n *ynode, section string) (*ReconcileSpec, error) {
	r := &ReconcileSpec{}
	d := newDec(n, section)
	d.dur("interval", &r.Interval)
	d.integer("steps_per_tick", &r.StepsPerTick)
	if v := d.take("members"); v != nil && d.err == nil {
		if v.kind != kindSeq {
			return nil, yamlErr(v.line, "%s.members: expected a sequence", section)
		}
		for i, item := range v.items {
			m, err := decodeMemberSpec(item, fmt.Sprintf("%s.members[%d]", section, i))
			if err != nil {
				return nil, err
			}
			r.Members = append(r.Members, m)
		}
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	if len(r.Members) == 0 {
		return nil, yamlErr(n.line, "%s: needs a non-empty \"members\" sequence", section)
	}
	return r, nil
}

// decodeMemberSpec decodes one desired member entry. The scalar
// `default` is a valid entry: a full-weight serving member with an
// unmanaged pod count.
func decodeMemberSpec(n *ynode, section string) (controlplane.MemberSpec, error) {
	var m controlplane.MemberSpec
	if n.kind == kindScalar && n.scalar == "default" {
		return m, nil
	}
	if n.kind != kindMap {
		return m, yamlErr(n.line, "%s: each member must be a mapping (or the scalar \"default\")", section)
	}
	d := newDec(n, section)
	d.float("weight", &m.Weight)
	d.integer("pods", &m.Pods)
	d.str("admin", &m.Admin)
	return m, d.finish()
}

// validate applies the control plane's own spec validation plus the
// scenario-level fleet-coverage rule.
func (r *ReconcileSpec) validate(nodes int) error {
	if r.Interval < 0 {
		return fmt.Errorf("spec: interval must be >= 0: %w", errs.BadConfig)
	}
	if r.StepsPerTick < 0 {
		return fmt.Errorf("spec: steps_per_tick must be >= 0: %w", errs.BadConfig)
	}
	if err := r.ClusterSpec().Validate(); err != nil {
		return err
	}
	if len(r.Members) < nodes {
		return fmt.Errorf("spec: %d members but fleet.nodes is %d — the spec must cover every member: %w",
			len(r.Members), nodes, errs.BadConfig)
	}
	return nil
}
