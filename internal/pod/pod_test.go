package pod

import (
	"math"
	"testing"

	"albatross/internal/service"
	"albatross/internal/sim"
)

func spec(name string, cores int) Spec {
	return Spec{Name: name, Service: service.VPCVPC, DataCores: cores, CtrlCores: 2}
}

func TestSpecValidate(t *testing.T) {
	if err := (Spec{Name: "x", DataCores: 4, CtrlCores: 2}).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Spec{
		{Name: "", DataCores: 4, CtrlCores: 2},
		{Name: "a", DataCores: 0, CtrlCores: 2},
		{Name: "a", DataCores: 4, CtrlCores: 0},
	}
	for i, s := range bad {
		if s.Validate() == nil {
			t.Fatalf("bad spec %d accepted", i)
		}
	}
}

func TestModeString(t *testing.T) {
	if ModePLB.String() != "PLB" || ModeRSS.String() != "RSS" {
		t.Fatal("mode strings wrong")
	}
}

func TestReorderQueueProportionality(t *testing.T) {
	cases := map[int]int{2: 1, 8: 1, 16: 2, 20: 2, 40: 4, 44: 4, 64: 6, 100: 8}
	for cores, want := range cases {
		if got := ReorderQueuesFor(cores); got != want {
			t.Errorf("ReorderQueuesFor(%d) = %d, want %d", cores, got, want)
		}
	}
	// The paper's concrete example: a 40-core pod gets twice the queues of
	// a 20-core pod.
	if ReorderQueuesFor(40) != 2*ReorderQueuesFor(20) {
		t.Error("40-core pod should get 2x queues of 20-core pod")
	}
}

func TestPlaceBasics(t *testing.T) {
	s, err := NewServer(DefaultServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.Place(spec("gw0", 44), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.CoreIDs) != 44 || len(p.CtrlCoreIDs) != 2 {
		t.Fatalf("cores = %d/%d", len(p.CoreIDs), len(p.CtrlCoreIDs))
	}
	if len(p.VFs) != VFsPerPod {
		t.Fatalf("VFs = %d", len(p.VFs))
	}
	if p.ReorderQueues != 4 {
		t.Fatalf("reorder queues = %d", p.ReorderQueues)
	}
	// All cores on one NUMA node.
	top := DefaultServerConfig().Topology
	for _, id := range append(append([]int{}, p.CoreIDs...), p.CtrlCoreIDs...) {
		if top.NodeOf(id) != p.NUMANode {
			t.Fatalf("core %d off pod's NUMA node %d", id, p.NUMANode)
		}
	}
	// VF queue pairs = data cores.
	for _, vf := range p.VFs {
		if vf.QueuePairs != 44 {
			t.Fatalf("queue pairs = %d", vf.QueuePairs)
		}
	}
}

func TestPlaceTwoPodsTwoNodes(t *testing.T) {
	s, _ := NewServer(DefaultServerConfig())
	p1, err := s.Place(spec("gw0", 44), 0)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := s.Place(spec("gw1", 44), 0)
	if err != nil {
		t.Fatal(err)
	}
	if p1.NUMANode == p2.NUMANode {
		t.Fatal("two 46-core pods cannot share a 48-core node")
	}
	if len(s.pods) != 2 {
		t.Fatalf("pods = %d", len(s.pods))
	}
	// VFs of each pod live on its node's NICs only.
	for _, vf := range p1.VFs {
		for _, vf2 := range p2.VFs {
			if vf.NIC == vf2.NIC {
				t.Fatal("pods on different nodes share a NIC")
			}
		}
	}
}

func TestPlaceExhaustsCores(t *testing.T) {
	s, _ := NewServer(DefaultServerConfig())
	if _, err := s.Place(spec("gw0", 44), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Place(spec("gw1", 44), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Place(spec("gw2", 44), 0); err == nil {
		t.Fatal("third 46-core pod placed on a 96-core server")
	}
}

func TestPlaceFourSmallPods(t *testing.T) {
	// The Fig. 15 deployment shape: 4 pods per server.
	s, _ := NewServer(DefaultServerConfig())
	for i := 0; i < 4; i++ {
		if _, err := s.Place(spec(string(rune('a'+i)), 20), 0); err != nil {
			t.Fatalf("pod %d: %v", i, err)
		}
	}
	if len(s.pods) != 4 {
		t.Fatalf("pods = %d", len(s.pods))
	}
}

func TestRemoveFreesResources(t *testing.T) {
	s, _ := NewServer(DefaultServerConfig())
	p, _ := s.Place(spec("gw0", 44), 0)
	node := p.NUMANode
	free := s.FreeCores(node)
	if err := s.Remove(p); err != nil {
		t.Fatal(err)
	}
	if s.FreeCores(node) != free+46 {
		t.Fatalf("cores not freed: %d -> %d", free, s.FreeCores(node))
	}
	if err := s.Remove(p); err == nil {
		t.Fatal("double remove succeeded")
	}
	// Can place again.
	if _, err := s.Place(spec("gw0b", 44), 0); err != nil {
		t.Fatal(err)
	}
}

func TestElasticity(t *testing.T) {
	s, _ := NewServer(DefaultServerConfig())
	p, _ := s.Place(spec("gw0", 8), sim.Time(5*sim.Second))
	if sim.Time(5*sim.Second) >= p.ReadyAt {
		t.Fatal("ready immediately")
	}
	if sim.Time(15*sim.Second) < p.ReadyAt {
		t.Fatal("not ready after 10s startup")
	}
	if p.ReadyAt.Sub(p.CreatedAt) != StartupTime {
		t.Fatalf("startup = %v", p.ReadyAt.Sub(p.CreatedAt))
	}
}

func TestRSSPodNoReorderQueues(t *testing.T) {
	s, _ := NewServer(DefaultServerConfig())
	sp := spec("gw0", 44)
	sp.Mode = ModeRSS
	p, err := s.Place(sp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.ReorderQueues != 0 {
		t.Fatalf("RSS pod got %d reorder queues", p.ReorderQueues)
	}
}

func TestReorderQueueExhaustion(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.ReorderQueuesPerServer = 4
	s, _ := NewServer(cfg)
	if _, err := s.Place(spec("gw0", 40), 0); err != nil { // needs 5
		t.Fatal(err)
	}
	if _, err := s.Place(spec("gw1", 8), 0); err == nil { // needs 1 more
		t.Fatal("placement over reorder-queue budget succeeded")
	}
}

func TestVFExhaustion(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.VFsPerNIC = 2
	s, _ := NewServer(cfg)
	// Each pod takes 4 VFs over 2 NICs (2 each); second pod on same node
	// would exceed; but it will go to the other node. Third pod fails on
	// cores first; so shrink to hit VF limit: place 2 small pods per node.
	for i := 0; i < 2; i++ {
		if _, err := s.Place(spec(string(rune('a'+i)), 20), 0); err != nil {
			t.Fatalf("pod %d: %v", i, err)
		}
	}
	// Node 0 and node 1 each have one pod now (first-fit puts both on node
	// 0 if cores allow: 2x22=44 < 48, so both on node 0 => VFs exhausted
	// for a third).
	if _, err := s.Place(spec("c", 20), 0); err == nil {
		t.Fatal("VF exhaustion not enforced")
	}
}

func TestNewServerValidation(t *testing.T) {
	bad := DefaultServerConfig()
	bad.NICs = 0
	if _, err := NewServer(bad); err == nil {
		t.Fatal("0 NICs accepted")
	}
}

func TestAZCostModel(t *testing.T) {
	c := DefaultCostModel().Compare()
	if c.LegacyGateways != 32 {
		t.Fatalf("legacy gateways = %d", c.LegacyGateways)
	}
	if c.AlbatrossServers != 8 {
		t.Fatalf("albatross servers = %d", c.AlbatrossServers)
	}
	if math.Abs(c.ServerReduction-0.75) > 1e-9 {
		t.Fatalf("server reduction = %v, want 75%%", c.ServerReduction)
	}
	if math.Abs(c.CostReduction-0.5) > 1e-9 {
		t.Fatalf("cost reduction = %v, want 50%%", c.CostReduction)
	}
	// Power: legacy = 3*4*500 + 5*4*300 = 12000W; albatross = 8*900 = 7200W.
	if c.LegacyPowerW != 12000 || c.AlbatrossPowerW != 7200 {
		t.Fatalf("power = %v / %v", c.LegacyPowerW, c.AlbatrossPowerW)
	}
	if math.Abs(c.PowerReduction-0.4) > 1e-9 {
		t.Fatalf("power reduction = %v, want 40%%", c.PowerReduction)
	}
}
