package controlplane

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"albatross/internal/cluster"
	"albatross/internal/core"
	"albatross/internal/errs"
	"albatross/internal/pod"
	"albatross/internal/service"
	"albatross/internal/sim"
	"albatross/internal/workload"
)

const testSeed = 42

// specUpdate schedules a SetSpec at a virtual time — the test-side analog
// of the scenario DSL's spec_update events.
type specUpdate struct {
	at   sim.Duration
	spec ClusterSpec
}

// runDrill builds a cluster at the given shard count, attaches a
// reconciler with the initial spec, schedules the spec updates, drives a
// fixed-seed workload for 400ms of virtual time and returns the cluster,
// reconciler and the two byte-identity documents (outcome report and the
// reconciler's timed step log).
func runDrill(t *testing.T, nodes, shards int, initial ClusterSpec, updates []specUpdate) (*cluster.Cluster, *Reconciler, string) {
	t.Helper()
	c, err := cluster.New(cluster.Config{Nodes: nodes, Seed: testSeed, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	wf := workload.GenerateFlows(2000, 100, testSeed)
	if err := c.AddPod(core.PodConfig{
		Spec:  pod.Spec{Name: "gw", Service: service.VPCVPC, DataCores: 4, CtrlCores: 1, Mode: pod.ModePLB},
		Flows: workload.ServiceFlows(wf, 0),
	}); err != nil {
		t.Fatal(err)
	}
	r, err := NewReconciler(c, initial, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range updates {
		u := u
		c.Engine.At(sim.Time(u.at), func() {
			if err := r.SetSpec(u.spec); err != nil {
				t.Fatalf("spec update at %v: %v", u.at, err)
			}
		})
	}
	src := &workload.Source{Flows: wf, Rate: workload.ConstantRate(1e5), Seed: testSeed + 1, Sink: c.Sink()}
	if err := src.Start(c.Engine); err != nil {
		t.Fatal(err)
	}
	c.RunFor(380 * sim.Millisecond)
	src.Stop()
	c.RunFor(20 * sim.Millisecond)
	return c, r, c.Outcome() + "\n== steps ==\n" + r.StepLog()
}

// assertZeroLoss is the drills' common teeth: no queue drops, no
// blackholed packets, reconciler converged, no errored steps.
func assertZeroLoss(t *testing.T, c *cluster.Cluster, r *Reconciler) {
	t.Helper()
	if c.Drops != 0 {
		t.Fatalf("dropped %d packets; reconciled transitions must be loss-free", c.Drops)
	}
	if bh := c.Blackholed(); bh != 0 {
		t.Fatalf("blackholed %d packets; make-before-break must withdraw before stopping", bh)
	}
	if !r.Converged() {
		t.Fatalf("not converged; plan: %+v", r.Plan())
	}
	for _, s := range r.Steps() {
		if s.Err != nil {
			t.Fatalf("errored step: %v", s)
		}
	}
}

func allUp(n int) ClusterSpec {
	return ClusterSpec{Members: make([]MemberSpec, n)}
}

// TestRollingDrainDrill walks a drain across all three members, one at a
// time: each spec update drains the next member and restores the previous
// one. Zero loss throughout, and byte-identical at shards 1 and 4.
func TestRollingDrainDrill(t *testing.T) {
	drained := func(i int) ClusterSpec {
		s := allUp(3)
		s.Members[i].Admin = AdminDrained
		return s
	}
	updates := []specUpdate{
		{40 * sim.Millisecond, drained(0)},
		{100 * sim.Millisecond, drained(1)},
		{160 * sim.Millisecond, drained(2)},
		{220 * sim.Millisecond, allUp(3)},
	}
	c, r, doc := runDrill(t, 3, 1, allUp(3), updates)
	assertZeroLoss(t, c, r)

	var seq []string
	for _, s := range r.Steps() {
		seq = append(seq, s.Action)
	}
	want := "drain restore drain restore drain restore"
	if got := strings.Join(seq, " "); got != want {
		t.Fatalf("step sequence %q, want %q", got, want)
	}
	// Rate limit: distinct steps land on distinct ticks.
	for i := 1; i < len(r.Steps()); i++ {
		if r.Steps()[i].At < r.Steps()[i-1].At.Add(r.Interval()) {
			t.Fatalf("steps %d and %d within one interval: %v %v", i-1, i, r.Steps()[i-1], r.Steps()[i])
		}
	}

	_, _, doc4 := runDrill(t, 3, 4, allUp(3), updates)
	if doc != doc4 {
		t.Fatal("rolling drain drill not byte-identical at shards 1 vs 4")
	}
}

// TestCanaryWeightShiftDrill grows a 3-node cluster by a canary member at
// weight 0.1, then shifts it 0.5 → 1.0 through spec updates: the
// add-then-shift make-before-break pattern.
func TestCanaryWeightShiftDrill(t *testing.T) {
	canary := func(w float64) ClusterSpec {
		s := allUp(4)
		s.Members[3].Weight = w
		return s
	}
	updates := []specUpdate{
		{40 * sim.Millisecond, canary(0.1)},
		{140 * sim.Millisecond, canary(0.5)},
		{240 * sim.Millisecond, canary(1.0)},
	}
	c, r, doc := runDrill(t, 3, 1, allUp(3), updates)
	assertZeroLoss(t, c, r)

	if len(c.Members()) != 4 {
		t.Fatalf("members = %d, want 4", len(c.Members()))
	}
	m, _ := c.MemberAt(3)
	if m.Weight() != 1.0 {
		t.Fatalf("final canary weight = %g, want 1.0", m.Weight())
	}
	var seq []string
	for _, s := range r.Steps() {
		seq = append(seq, s.Action)
	}
	// Add lands before any weight shift; the three shifts follow.
	want := "add weight weight weight"
	if got := strings.Join(seq, " "); got != want {
		t.Fatalf("step sequence %q, want %q", got, want)
	}
	// The proxied fabric advertises the new member's prefix.
	if got := c.SwitchModel().RIB().Len(); got != 4 {
		t.Fatalf("RIB prefixes = %d, want 4", got)
	}

	_, _, doc4 := runDrill(t, 3, 4, allUp(3), updates)
	if doc != doc4 {
		t.Fatal("canary drill not byte-identical at shards 1 vs 4")
	}
}

// TestAddRemoveUnderLoadDrill grows the cluster by one member, then
// retires another via the spec tombstone: the reconciler must drain a full
// interval before removing, and the whole transition stays loss-free.
func TestAddRemoveUnderLoadDrill(t *testing.T) {
	grown := allUp(4)
	retired := allUp(4)
	retired.Members[1].Admin = AdminRemoved
	updates := []specUpdate{
		{40 * sim.Millisecond, grown},
		{140 * sim.Millisecond, retired},
	}
	c, r, doc := runDrill(t, 3, 1, allUp(3), updates)
	assertZeroLoss(t, c, r)

	m, _ := c.MemberAt(1)
	if m.State() != "removed" {
		t.Fatalf("member 1 state %q, want removed", m.State())
	}
	var drainAt, removeAt sim.Time
	for _, s := range r.Steps() {
		if s.Node != 1 {
			continue
		}
		switch s.Action {
		case "drain":
			drainAt = s.At
		case "remove":
			removeAt = s.At
		}
	}
	if drainAt == 0 || removeAt == 0 {
		t.Fatalf("missing drain/remove steps for node 1:\n%s", r.StepLog())
	}
	if removeAt < drainAt.Add(r.Interval()) {
		t.Fatalf("remove at %v less than one interval after drain at %v", removeAt, drainAt)
	}
	// The retired member's prefix left the fabric; the added member's is in.
	if got := c.SwitchModel().RIB().Len(); got != 3 {
		t.Fatalf("RIB prefixes = %d, want 3 (4 members − 1 removed)", got)
	}

	_, _, doc4 := runDrill(t, 3, 4, allUp(3), updates)
	if doc != doc4 {
		t.Fatal("add/remove drill not byte-identical at shards 1 vs 4")
	}
}

// TestRollingPodDrill scales every member from 1 to 2 pods, one step per
// tick in member order.
func TestRollingPodDrill(t *testing.T) {
	rolled := allUp(3)
	for i := range rolled.Members {
		rolled.Members[i].Pods = 2
	}
	updates := []specUpdate{{40 * sim.Millisecond, rolled}}
	c, r, _ := runDrill(t, 3, 1, allUp(3), updates)
	assertZeroLoss(t, c, r)

	for i := 0; i < 3; i++ {
		m, _ := c.MemberAt(i)
		if got := m.ActivePods(); got != 2 {
			t.Fatalf("member %d pods = %d, want 2", i, got)
		}
	}
	// Member order: node 0 fully converges before node 1 starts.
	var nodes []int
	for _, s := range r.Steps() {
		nodes = append(nodes, s.Node)
	}
	for i := 1; i < len(nodes); i++ {
		if nodes[i] < nodes[i-1] {
			t.Fatalf("steps regressed to an earlier member: %v", nodes)
		}
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []ClusterSpec{
		{},                                    // no members
		{Members: []MemberSpec{{Weight: -1}}}, // negative weight
		{Members: []MemberSpec{{Pods: -2}}},   // negative pods
		{Members: []MemberSpec{{Admin: "sideways"}}},            // unknown admin
		{Members: []MemberSpec{{Admin: AdminRemoved, Pods: 1}}}, // removed pins pods
	}
	for i, s := range bad {
		if err := s.Validate(); !errors.Is(err, errs.BadConfig) {
			t.Fatalf("spec %d: %v", i, err)
		}
	}
	ok := ClusterSpec{Members: []MemberSpec{{}, {Weight: 0.5, Pods: 2, Admin: AdminDrained}}}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	if s := ok.String(); !strings.Contains(s, "w=0.5") || !strings.Contains(s, "drained") {
		t.Fatalf("spec rendering %q", s)
	}
}

func TestSetSpecClusterRules(t *testing.T) {
	c, err := cluster.New(cluster.Config{Nodes: 3, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReconciler(c, allUp(3), Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Shrinking spec below the member count is rejected.
	if err := r.SetSpec(allUp(2)); !errors.Is(err, errs.BadConfig) {
		t.Fatalf("short spec: %v", err)
	}
	// Declaring a never-added member removed is rejected.
	ghost := allUp(4)
	ghost.Members[3].Admin = AdminRemoved
	if err := r.SetSpec(ghost); !errors.Is(err, errs.BadConfig) {
		t.Fatalf("ghost tombstone: %v", err)
	}
	// A member the cluster has removed cannot be resurrected.
	if err := c.RemoveNode(2); err != nil {
		t.Fatal(err)
	}
	if err := r.SetSpec(allUp(3)); !errors.Is(err, errs.BadConfig) {
		t.Fatalf("tombstone resurrection: %v", err)
	}
	tomb := allUp(3)
	tomb.Members[2].Admin = AdminRemoved
	if err := r.SetSpec(tomb); err != nil {
		t.Fatal(err)
	}
}

func TestPlanIsDryRun(t *testing.T) {
	c, err := cluster.New(cluster.Config{Nodes: 2, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	spec := allUp(3)
	spec.Members[0].Admin = AdminDrained
	spec.Members[1].Weight = 0.25
	r, err := NewReconciler(c, spec, Config{})
	if err != nil {
		t.Fatal(err)
	}
	plan := r.Plan()
	if len(plan) != 3 { // drain@0, weight@1, add@2
		t.Fatalf("plan = %+v, want 3 entries", plan)
	}
	if plan[0].Action != "drain" || plan[1].Action != "weight" || plan[2].Action != "add" {
		t.Fatalf("plan order = %+v", plan)
	}
	if len(c.Members()) != 2 || r.Converged() {
		t.Fatal("Plan must not mutate the cluster")
	}
	if s := r.Summary(); !strings.Contains(s, "pending 3") {
		t.Fatalf("summary %q", s)
	}
	if c.Controller() != cluster.Controller(r) {
		t.Fatal("reconciler not attached as the cluster controller")
	}
}

// TestNextStepWalksThePlan holds the live loop to the dry run: applied one
// at a time at one instant, nextStep's steps are Plan's entries in order,
// except that a pod scale moves one pod per step and a removal waits out a
// full Interval of drain soak.
func TestNextStepWalksThePlan(t *testing.T) {
	c, err := cluster.New(cluster.Config{Nodes: 2, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	wf := workload.GenerateFlows(200, 10, testSeed)
	if err := c.AddPod(core.PodConfig{
		Spec:  pod.Spec{Name: "gw", Service: service.VPCVPC, DataCores: 4, CtrlCores: 1, Mode: pod.ModePLB},
		Flows: workload.ServiceFlows(wf, 0),
	}); err != nil {
		t.Fatal(err)
	}
	spec := allUp(2)
	spec.Members[0] = MemberSpec{Admin: AdminDrained, Weight: 0.5, Pods: 3}
	spec.Members[1].Admin = AdminRemoved
	r, err := NewReconciler(c, spec, Config{})
	if err != nil {
		t.Fatal(err)
	}
	render := func(steps []Step) []string {
		var out []string
		for _, s := range steps {
			out = append(out, fmt.Sprintf("%d %s %s", s.Node, s.Action, s.Detail))
		}
		return out
	}
	want := []string{"0 drain ", "0 weight 1 -> 0.5", "0 scale-up 1 -> 3",
		"1 drain make-before-break removal", "1 remove "}
	if got := render(r.Plan()); !slices.Equal(got, want) {
		t.Fatalf("plan %q, want %q", got, want)
	}

	for len(r.Steps()) < 10 {
		s, ok := r.nextStep()
		if !ok {
			break
		}
		r.apply(s)
	}
	want = []string{"0 drain ", "0 weight 1 -> 0.5", "0 scale-up 1 -> 2", "0 scale-up 2 -> 3",
		"1 drain make-before-break removal"}
	if got := render(r.Steps()); !slices.Equal(got, want) {
		t.Fatalf("live steps %q, want %q", got, want)
	}
	if r.Converged() {
		t.Fatal("converged while member 1 soaks toward removal")
	}
	c.RunFor(r.Interval())
	steps := r.Steps()
	if last := steps[len(steps)-1]; last.Node != 1 || last.Action != "remove" || last.At != sim.Time(r.Interval()) || !r.Converged() {
		t.Fatalf("after one interval: last step %+v, converged %v", last, r.Converged())
	}
	for _, s := range steps {
		if s.Err != nil {
			t.Fatalf("errored step: %v", s)
		}
	}
}
