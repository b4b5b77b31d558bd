// Package controlplane implements the declarative control plane: a
// ClusterSpec describes the *desired* state of a gateway cluster — which
// members exist, their ECMP weight, pod count and administrative state —
// and a Reconciler drives the observed cluster toward it, one rate-limited
// step per virtual-time tick, the way a Kubernetes controller converges a
// Deployment.
//
// The point of the indirection is make-before-break: operators state the
// destination ("member 2 removed", "member 3 at weight 1.0") and the
// reconciler sequences the transition safely — drain before remove, add
// then shift canary weight, one pod per step on a rolling resize. Because
// every step fires from the cluster's control engine at a deterministic
// tick, the whole trajectory is reproducible: byte-identical at any shard
// count and under record↔replay, like everything else in the simulator.
package controlplane

import (
	"fmt"
	"math"

	"albatross/internal/errs"
)

// Administrative states a MemberSpec can request.
const (
	// AdminUp advertises the member's route: the normal serving state.
	AdminUp = "up"
	// AdminDrained withdraws the route indefinitely while keeping pods
	// running: new flows re-ECMP to the survivors, in-flight traffic
	// finishes. The maintenance state.
	AdminDrained = "drained"
	// AdminRemoved retires the member permanently. The reconciler drains
	// first and removes only after a full soak interval — never a hard cut.
	// Terminal: a removed slot cannot be resurrected (grow with a new
	// trailing member instead).
	AdminRemoved = "removed"
)

// MemberSpec is the desired state of one cluster member. The zero value
// means "a full-weight serving member with an unmanaged pod count":
// weight 0 is treated as 1.0 and admin "" as up, so specs only state what
// deviates from the default.
type MemberSpec struct {
	// Weight is the desired ECMP weight (0 = 1.0). A canary runs at 0.1,
	// a drac at 0.5, a full member at 1.0.
	Weight float64
	// Pods is the desired active pod count; 0 leaves the count unmanaged
	// (the reconciler never scales a member whose spec doesn't ask for it).
	Pods int
	// Admin is the desired administrative state: AdminUp (default),
	// AdminDrained, or AdminRemoved.
	Admin string
}

// NormWeight is the effective desired weight (0 ⇒ 1.0).
func (m MemberSpec) NormWeight() float64 {
	if m.Weight == 0 {
		return 1.0
	}
	return m.Weight
}

// NormAdmin is the effective desired admin state ("" ⇒ AdminUp).
func (m MemberSpec) NormAdmin() string {
	if m.Admin == "" {
		return AdminUp
	}
	return m.Admin
}

// ClusterSpec is the desired state of the whole cluster. Members[i]
// corresponds to cluster member index i — members are never renumbered, so
// the slot correspondence is stable across adds and removals (removed
// members keep a tombstone entry with Admin: AdminRemoved). A spec longer
// than the cluster asks the reconciler to grow it; a shorter spec is a
// validation error, because silence about an existing member is ambiguous.
type ClusterSpec struct {
	Members []MemberSpec
}

// Validate checks the spec's internal consistency. Cluster-dependent rules
// (tombstone resurrection, spec shorter than the cluster) are enforced by
// Reconciler.SetSpec, which can see the observed state.
func (s ClusterSpec) Validate() error {
	if len(s.Members) == 0 {
		return fmt.Errorf("controlplane: spec has no members: %w", errs.BadConfig)
	}
	for i, m := range s.Members {
		if m.Weight < 0 || math.IsNaN(m.Weight) || math.IsInf(m.Weight, 0) {
			return fmt.Errorf("controlplane: member %d: weight %v must be a finite non-negative number: %w", i, m.Weight, errs.BadConfig)
		}
		if m.Pods < 0 {
			return fmt.Errorf("controlplane: member %d: pods %d must be >= 0: %w", i, m.Pods, errs.BadConfig)
		}
		switch m.NormAdmin() {
		case AdminUp, AdminDrained, AdminRemoved:
		default:
			return fmt.Errorf("controlplane: member %d: admin %q must be %q, %q or %q: %w",
				i, m.Admin, AdminUp, AdminDrained, AdminRemoved, errs.BadConfig)
		}
		if m.NormAdmin() == AdminRemoved && m.Pods != 0 {
			return fmt.Errorf("controlplane: member %d: a removed member cannot pin pods: %w", i, errs.BadConfig)
		}
	}
	return nil
}

// Clone returns a deep copy, so callers can mutate a spec and re-submit
// without aliasing the reconciler's current one.
func (s ClusterSpec) Clone() ClusterSpec {
	out := ClusterSpec{Members: make([]MemberSpec, len(s.Members))}
	copy(out.Members, s.Members)
	return out
}

// String renders the spec compactly and deterministically, e.g.
// "spec[3]{0: w=1 pods=2; 1: w=0.5; 2: removed}".
func (s ClusterSpec) String() string {
	out := fmt.Sprintf("spec[%d]{", len(s.Members))
	for i, m := range s.Members {
		if i > 0 {
			out += "; "
		}
		out += fmt.Sprintf("%d: ", i)
		if m.NormAdmin() == AdminRemoved {
			out += "removed"
			continue
		}
		out += fmt.Sprintf("w=%g", m.NormWeight())
		if m.Pods > 0 {
			out += fmt.Sprintf(" pods=%d", m.Pods)
		}
		if m.NormAdmin() == AdminDrained {
			out += " drained"
		}
	}
	return out + "}"
}
