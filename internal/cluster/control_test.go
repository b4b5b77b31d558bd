package cluster

import (
	"errors"
	"testing"

	"albatross/internal/errs"
	"albatross/internal/faults"
	"albatross/internal/sim"
)

func TestWeightedRingCanaryShare(t *testing.T) {
	c, wf := testCluster(t, 3, nil)
	before := ownersOf(c, wf)

	// Canary node 2 at 10% weight: it should draw far less than a full
	// member's 1/3 share.
	if err := c.SetWeight(2, 0.1); err != nil {
		t.Fatal(err)
	}
	share := 0
	for _, f := range wf {
		if _, owner := c.Route(f); owner == 2 {
			share++
		}
	}
	frac := float64(share) / float64(len(wf))
	if frac <= 0 || frac > 0.15 {
		t.Fatalf("canary at weight 0.1 owns %.3f of flows; want small positive share", frac)
	}

	// Full weight restores the exact original assignment: vnode positions
	// depend only on (member, ordinal).
	if err := c.SetWeight(2, 1.0); err != nil {
		t.Fatal(err)
	}
	after := ownersOf(c, wf)
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("flow %d moved after weight round-trip: %d → %d", i, before[i], after[i])
		}
	}

	if err := c.SetWeight(0, -1); !errors.Is(err, errs.BadConfig) {
		t.Fatalf("negative weight: %v", err)
	}
	m, err := c.MemberAt(2)
	if err != nil || m.Weight() != 1.0 {
		t.Fatalf("MemberAt/Weight: %v %v", err, m)
	}
}

func TestRemoveNodeRetiresSlot(t *testing.T) {
	c, wf := testCluster(t, 3, nil)
	before := ownersOf(c, wf)

	if err := c.RemoveNode(1); err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i, f := range wf {
		_, owner := c.Route(f)
		if owner == 1 {
			t.Fatal("flow routed to a removed member")
		}
		if owner != before[i] {
			moved++
			if before[i] != 1 {
				t.Fatalf("flow %d moved but its owner %d was not removed", i, before[i])
			}
		}
	}
	if moved == 0 {
		t.Fatal("removal moved no flows")
	}
	if m, _ := c.MemberAt(1); m.State() != "removed" {
		t.Fatalf("state = %q, want removed", m.State())
	}
	// Terminal: no resurrection, no further faults.
	if err := c.RemoveNode(1); !errors.Is(err, errs.BadState) {
		t.Fatalf("double remove: %v", err)
	}
	if err := c.InjectNodeFault(faults.KindNodeDrain, 1, sim.Second); !errors.Is(err, errs.BadState) {
		t.Fatalf("drain on removed: %v", err)
	}
	// The rest of the cluster keeps serving.
	c.RunFor(10 * sim.Millisecond)
	for _, f := range wf[:50] {
		c.Inject(f, 100)
	}
	c.RunFor(10 * sim.Millisecond)
	if c.Drops != 0 {
		t.Fatalf("drops after removal: %d", c.Drops)
	}
}

func TestSetNodeAdminHoldsUntilRestored(t *testing.T) {
	c, _ := testCluster(t, 3, nil)
	if err := c.SetNodeAdmin(1, false); err != nil {
		t.Fatal(err)
	}
	c.RunFor(5 * sim.Second)
	if c.eligible(1) {
		t.Fatal("admin-down member eligible after 5s (should hold indefinitely)")
	}
	if err := c.SetNodeAdmin(1, true); err != nil {
		t.Fatal(err)
	}
	if !c.eligible(1) {
		t.Fatal("admin-up member not eligible")
	}
}

// The proxied fabric must mirror cluster-level admin and crash transitions
// into the shared switch RIB: one prefix per live advertised member.
func TestClusterSwitchRIBMirror(t *testing.T) {
	c, _ := testCluster(t, 3, nil)
	sw := c.SwitchModel()
	if sw == nil {
		t.Fatal("proxy fabric should be the default")
	}
	if got := sw.RIB().Len(); got != 3 {
		t.Fatalf("initial RIB prefixes = %d, want 3", got)
	}
	if got := sw.PeerCount(); got != 3 {
		t.Fatalf("switch peers = %d, want 3 (one proxy per member)", got)
	}

	// Administrative drain: withdrawn now, re-advertised at expiry.
	if err := c.InjectNodeFault(faults.KindUplinkWithdraw, 0, 500*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := sw.RIB().Len(); got != 2 {
		t.Fatalf("RIB prefixes during withdraw = %d, want 2", got)
	}
	c.RunFor(600 * sim.Millisecond)
	if got := sw.RIB().Len(); got != 3 {
		t.Fatalf("RIB prefixes after withdraw expiry = %d, want 3", got)
	}

	// Crash: the withdraw flows through BFD detection, the re-advertise
	// through the 1s re-establish delay.
	if err := c.InjectNodeFault(faults.KindNodeCrash, 2, 400*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	c.RunFor(300 * sim.Millisecond)
	if got := sw.RIB().Len(); got != 2 {
		t.Fatalf("RIB prefixes after BFD detection = %d, want 2", got)
	}
	c.RunFor(2 * sim.Second)
	if got := sw.RIB().Len(); got != 3 {
		t.Fatalf("RIB prefixes after crash recovery = %d, want 3", got)
	}

	for _, m := range c.Members() {
		if m.proxied.Desyncs != 0 {
			t.Fatalf("member %d fabric desyncs: %d", m.Index, m.proxied.Desyncs)
		}
	}
}

func TestScalePodsRolling(t *testing.T) {
	c, _ := testCluster(t, 2, nil)
	m, _ := c.MemberAt(0)
	if got := m.ActivePods(); got != 1 {
		t.Fatalf("initial pods = %d", got)
	}
	if err := c.ScalePods(0, 3); err != nil {
		t.Fatal(err)
	}
	if got := m.ActivePods(); got != 3 {
		t.Fatalf("scaled-up pods = %d, want 3", got)
	}
	if err := c.ScalePods(0, 1); err != nil {
		t.Fatal(err)
	}
	if got := m.ActivePods(); got != 1 {
		t.Fatalf("scaled-down pods = %d, want 1", got)
	}
	if err := c.ScalePods(0, -1); !errors.Is(err, errs.BadConfig) {
		t.Fatalf("negative count: %v", err)
	}
}

func TestInjectNodeFaultRejectsPodKinds(t *testing.T) {
	c, _ := testCluster(t, 2, nil)
	if err := c.InjectNodeFault(faults.KindPodCrash, 0, sim.Second); !errors.Is(err, errs.BadConfig) {
		t.Fatalf("pod-level kind through node entry point: %v", err)
	}
	// The deprecated wrappers stay functional.
	if err := c.InjectNodeFault(faults.KindUplinkWithdraw, 0, 100*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if c.eligible(0) {
		t.Fatal("withdraw wrapper did not take effect")
	}
}
