package albatross_test

import (
	"errors"
	"fmt"
	"testing"

	"albatross"
)

func newFacadeNode(t *testing.T, opts ...albatross.Option) *albatross.Node {
	t.Helper()
	n, err := albatross.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func addFacadePod(t *testing.T, n *albatross.Node, name string, cores int) *albatross.PodRuntime {
	t.Helper()
	flows := albatross.GenerateFlows(100, 10, 1)
	p, err := n.AddPod(albatross.PodConfig{
		Spec: albatross.PodSpec{Name: name, Service: albatross.VPCVPC,
			DataCores: cores, CtrlCores: 1},
		Flows: albatross.ServiceFlows(flows, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSentinelErrors pins the error contract: every failure path through
// the facade classifies with errors.Is against the exported sentinels.
func TestSentinelErrors(t *testing.T) {
	// ErrBadConfig: an invalid fault plan is rejected at New.
	bad := &albatross.FaultPlan{Faults: []albatross.FaultSpec{{Kind: albatross.FaultRxLoss, Factor: 5.0, Duration: albatross.Millisecond}}}
	if _, err := albatross.New(albatross.WithFaultPlan(bad)); !errors.Is(err, albatross.ErrBadConfig) {
		t.Fatalf("New(bad fault plan) = %v, want ErrBadConfig", err)
	}
	// ErrBadConfig: a node-level fault needs a cluster.
	crash := (&albatross.FaultPlan{}).NodeCrash(albatross.Millisecond, 0, 0)
	if _, err := albatross.New(albatross.WithFaultPlan(crash)); !errors.Is(err, albatross.ErrBadConfig) {
		t.Fatalf("New(node-crash plan) = %v, want ErrBadConfig", err)
	}
	// ErrBadConfig: an invalid pod spec is rejected at AddPod.
	n := newFacadeNode(t, albatross.WithSeed(1))
	if _, err := n.AddPod(albatross.PodConfig{
		Spec: albatross.PodSpec{Service: albatross.VPCVPC, DataCores: 2, CtrlCores: 1},
	}); !errors.Is(err, albatross.ErrBadConfig) {
		t.Fatalf("AddPod(unnamed pod) = %v, want ErrBadConfig", err)
	}
	// ErrPodExhausted: more data cores than the server owns.
	if _, err := n.AddPod(albatross.PodConfig{
		Spec: albatross.PodSpec{Name: "huge", Service: albatross.VPCVPC,
			DataCores: 100000, CtrlCores: 1},
	}); !errors.Is(err, albatross.ErrPodExhausted) {
		t.Fatalf("AddPod(100k cores) = %v, want ErrPodExhausted", err)
	}
	// ErrBadState: crashing a pod that is not active.
	p := addFacadePod(t, n, "gw0", 2)
	if err := n.InjectPodCrash(0, false, 10*albatross.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := n.InjectPodCrash(0, false, 0); !errors.Is(err, albatross.ErrBadState) {
		t.Fatalf("double crash = %v, want ErrBadState", err)
	}
	n.RunFor(20 * albatross.Millisecond) // restart

	// ErrClosed: Stop and Close are terminal.
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := p.Stop(); !errors.Is(err, albatross.ErrClosed) {
		t.Fatalf("second Stop = %v, want ErrClosed", err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); !errors.Is(err, albatross.ErrClosed) {
		t.Fatalf("second Close = %v, want ErrClosed", err)
	}
	if _, err := n.AddPod(albatross.PodConfig{}); !errors.Is(err, albatross.ErrClosed) {
		t.Fatalf("AddPod after Close = %v, want ErrClosed", err)
	}
}

// TestConstructorsDoNotPanic feeds hostile input to every facade
// constructor: the contract is an error return, never a panic.
func TestConstructorsDoNotPanic(t *testing.T) {
	calls := []struct {
		name string
		fn   func() error
	}{
		{"New with bad fault plan", func() error {
			_, err := albatross.New(albatross.WithFaultPlan(
				&albatross.FaultPlan{Faults: []albatross.FaultSpec{{Kind: albatross.FaultKind(200)}}}))
			return err
		}},
		{"NewNode with bad limiter", func() error {
			lc := albatross.DefaultLimiterConfig()
			lc.Stage1Rate = -1
			_, err := albatross.NewNode(albatross.NodeConfig{Limiter: &lc})
			return err
		}},
	}
	for _, c := range calls {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s panicked: %v", c.name, r)
				}
			}()
			if err := c.fn(); err == nil {
				t.Errorf("%s: expected an error", c.name)
			}
		}()
	}
}

// TestAliasesResolve exercises every re-exported alias and constant so a
// facade symbol can never silently detach from its internal definition.
func TestAliasesResolve(t *testing.T) {
	// Types: constructing a zero value proves the alias resolves.
	var (
		_ albatross.Engine
		_ albatross.Time
		_ albatross.Duration
		_ albatross.Node
		_ albatross.NodeConfig
		_ albatross.PodConfig
		_ albatross.PodRuntime
		_ albatross.ProbeResult
		_ albatross.PodSpec
		_ albatross.ServerConfig
		_ albatross.ServiceType
		_ albatross.ServiceFlow
		_ albatross.IPv4Addr
		_ albatross.Flow
		_ albatross.Source
		_ albatross.RateFn
		_ albatross.PLB
		_ albatross.PLBConfig
		_ albatross.PLBStats
		_ albatross.Limiter
		_ albatross.LimiterConfig
		_ albatross.BGPSpeaker
		_ albatross.BGPSpeakerConfig
		_ albatross.BGPProxy
		_ albatross.BGPPrefix
		_ albatross.UplinkSession
		_ albatross.UplinkConfig
		_ albatross.UplinkStats
		_ albatross.Experiment
		_ albatross.ExperimentConfig
		_ albatross.ExperimentResult
		_ albatross.CacheConfig
		_ albatross.Option
		_ albatross.FaultPlan
		_ albatross.FaultSpec
		_ albatross.FaultKind
		_ albatross.FaultEvent
	)
	if albatross.Second != 1e9*albatross.Nanosecond ||
		albatross.Millisecond != 1e6*albatross.Nanosecond ||
		albatross.Microsecond != 1e3*albatross.Nanosecond {
		t.Fatal("time unit constants inconsistent")
	}
	for _, st := range []albatross.ServiceType{albatross.VPCVPC, albatross.VPCInternet,
		albatross.VPCIDC, albatross.VPCCloudService} {
		if st.String() == "" {
			t.Fatalf("service type %d has no name", st)
		}
	}
	if albatross.ModePLB == albatross.ModeRSS {
		t.Fatal("load-balancing modes not distinct")
	}
	kinds := []albatross.FaultKind{albatross.FaultCoreStall, albatross.FaultCoreFail,
		albatross.FaultPodCrash, albatross.FaultPodDrain, albatross.FaultReorderStress,
		albatross.FaultRxLoss, albatross.FaultBGPFlap}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Fatalf("fault kind %d: empty or duplicate name %q", k, s)
		}
		seen[s] = true
	}
	// Sentinels are distinct errors.
	sentinels := []error{albatross.ErrBadConfig, albatross.ErrPodExhausted,
		albatross.ErrClosed, albatross.ErrBadState}
	for i, a := range sentinels {
		for j, b := range sentinels {
			if i != j && errors.Is(a, b) {
				t.Fatalf("sentinels %v and %v alias each other", a, b)
			}
		}
	}
}

// TestOptionsMatchConfigStruct pins the layering contract: New(options...)
// and NewNode(struct) build identical nodes.
func TestOptionsMatchConfigStruct(t *testing.T) {
	run := func(n *albatross.Node) uint64 {
		flows := albatross.GenerateFlows(500, 10, 3)
		p, err := n.AddPod(albatross.PodConfig{
			Spec: albatross.PodSpec{Name: "gw", Service: albatross.VPCVPC,
				DataCores: 2, CtrlCores: 1},
			Flows: albatross.ServiceFlows(flows, 0),
		})
		if err != nil {
			t.Fatal(err)
		}
		src := &albatross.Source{Flows: flows, Rate: albatross.ConstantRate(2e5),
			Seed: 4, Sink: p.Sink()}
		if err := src.Start(n.Engine); err != nil {
			t.Fatal(err)
		}
		n.RunFor(20 * albatross.Millisecond)
		src.Stop()
		n.RunFor(albatross.Millisecond)
		return p.Tx
	}
	lc := albatross.DefaultLimiterConfig()
	byOpts := newFacadeNode(t, albatross.WithSeed(9), albatross.WithLimiter(lc),
		albatross.WithCache(albatross.CacheConfig{SizeBytes: 4 << 20, Ways: 16, LineBytes: 64}))
	byStruct, err := albatross.NewNode(albatross.NodeConfig{Seed: 9, Limiter: &lc,
		Cache: albatross.CacheConfig{SizeBytes: 4 << 20, Ways: 16, LineBytes: 64}})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := run(byOpts), run(byStruct); a != b || a == 0 {
		t.Fatalf("options run tx=%d, struct run tx=%d; want equal and positive", a, b)
	}
}

// TestFacadeFaultPlan drives a fault schedule end to end through the
// public API only.
func TestFacadeFaultPlan(t *testing.T) {
	plan := (&albatross.FaultPlan{}).CoreFail(5*albatross.Millisecond, 0, 1, 5*albatross.Millisecond)
	plan.Faults = append(plan.Faults, albatross.FaultSpec{Kind: albatross.FaultReorderStress,
		At: 15 * albatross.Millisecond, Duration: 2 * albatross.Millisecond, HoldHeads: true})
	n := newFacadeNode(t, albatross.WithSeed(2), albatross.WithFaultPlan(plan))
	p := addFacadePod(t, n, "gw0", 4)
	flows := albatross.GenerateFlows(500, 10, 2)
	src := &albatross.Source{Flows: flows, Rate: albatross.ConstantRate(5e5),
		Seed: 3, Sink: p.Sink()}
	if err := src.Start(n.Engine); err != nil {
		t.Fatal(err)
	}
	n.RunFor(30 * albatross.Millisecond)
	src.Stop()
	n.RunFor(albatross.Millisecond)

	log := n.FaultLog()
	if len(log) != 2 {
		t.Fatalf("fault log has %d events, want 2", len(log))
	}
	for _, e := range log {
		if e.Err != nil {
			t.Fatalf("fault %v errored: %v", e.Fault.Kind, e.Err)
		}
		if fmt.Sprint(e) == "" {
			t.Fatal("fault event renders empty")
		}
	}
	if !p.PLB.CoreUp(1) {
		t.Fatal("core 1 not restored after the fail window")
	}
}
