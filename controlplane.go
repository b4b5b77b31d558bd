package albatross

import (
	"albatross/internal/controlplane"
	"albatross/internal/scenario"
)

// Control-plane types (see DESIGN.md §15). A ClusterSpec declares the
// desired fleet state — one MemberSpec per member slot — and a Reconciler
// diffs it against the observed cluster every virtual-time tick, emitting
// a deterministic, rate-limited train of make-before-break steps (drain
// before remove, add then shift canary weight, one-pod-at-a-time scaling)
// through the cluster's lifecycle APIs.
type (
	// ClusterSpec is the desired state of a cluster: one entry per member
	// slot, in slot order.
	ClusterSpec = controlplane.ClusterSpec
	// MemberSpec is the desired state of one member slot (ECMP weight,
	// pod count, admin state).
	MemberSpec = controlplane.MemberSpec
	// Reconciler drives a Cluster toward a ClusterSpec, one rate-limited
	// step per tick.
	Reconciler = controlplane.Reconciler
	// ReconcilerConfig sets the reconcile tick interval and per-tick step
	// budget.
	ReconcilerConfig = controlplane.Config
	// ReconcileStep is one applied (or planned) reconcile action.
	ReconcileStep = controlplane.Step
	// ReconcileSpec is the scenario-file form of a ClusterSpec plus
	// reconciler tuning: a scenario's spec: block (Scenario.Spec), or
	// filled in directly for WithSpec.
	ReconcileSpec = scenario.ReconcileSpec
)

// Member admin states (MemberSpec.Admin).
const (
	// AdminUp serves traffic (the default for an empty Admin).
	AdminUp = controlplane.AdminUp
	// AdminDrained withdraws the member's route but keeps it warm.
	AdminDrained = controlplane.AdminDrained
	// AdminRemoved retires the member slot permanently (terminal; the
	// reconciler drains first and removes only after a full-tick soak).
	AdminRemoved = controlplane.AdminRemoved
)
