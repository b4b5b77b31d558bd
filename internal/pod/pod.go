// Package pod models Albatross's containerized gateway deployment (paper
// §5): GW pods with dedicated data/ctrl cores, NIC resource partitioning
// (reorder queues, VFs, queue pairs), NUMA-aware placement on servers, the
// 10-second elasticity story, and the availability-zone cost model behind
// Fig. 15.
package pod

import (
	"albatross/internal/errs"
	"fmt"

	"albatross/internal/cpu"
	"albatross/internal/service"
	"albatross/internal/sim"
)

// Mode selects the pod's load-balancing mode.
type Mode int

// Load balancing modes.
const (
	// ModePLB sprays packets across cores with FPGA reordering (default).
	ModePLB Mode = iota
	// ModeRSS uses flow-affinity hashing (the fallback, paper §4.1 item 5).
	ModeRSS
)

func (m Mode) String() string {
	if m == ModeRSS {
		return "RSS"
	}
	return "PLB"
}

// Spec describes a GW pod to deploy.
type Spec struct {
	Name      string
	Service   service.Type
	DataCores int
	CtrlCores int
	Mode      Mode
}

// Validate checks the spec.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("pod: empty name: %w", errs.BadConfig)
	}
	if s.DataCores <= 0 {
		return fmt.Errorf("pod %s: DataCores must be positive: %w", s.Name, errs.BadConfig)
	}
	if s.CtrlCores <= 0 {
		return fmt.Errorf("pod %s: CtrlCores must be positive: %w", s.Name, errs.BadConfig)
	}
	return nil
}

// VFsPerPod is the paper's robustness configuration: each pod gets 4 VFs
// across two NICs of its NUMA node, each wired through an independent
// switch path (appendix §B).
const VFsPerPod = 4

// StartupTime is the pod creation latency Albatross achieves via
// containerization (Tab. 6: "10 seconds" vs days for physical clusters).
const StartupTime = 10 * sim.Second

// ReorderQueuesFor returns the number of PLB order-preserving queues a pod
// with the given data cores receives: proportional to core count (one per
// ~10 cores, so a 40-core pod gets twice a 20-core pod's queues, per the
// paper's example), clamped to the paper's 1..8 per-pod range.
func ReorderQueuesFor(dataCores int) int {
	q := (dataCores + 5) / 10
	if q < 1 {
		q = 1
	}
	if q > 8 {
		q = 8
	}
	return q
}

// Pod is a deployed gateway pod.
type Pod struct {
	Spec          Spec
	ID            uint16
	NUMANode      int
	CoreIDs       []int // data core IDs on the host
	CtrlCoreIDs   []int
	ReorderQueues int
	VFs           []VF
	CreatedAt     sim.Time
	ReadyAt       sim.Time
}

// VF is a virtual function assignment: (nic, vf index) plus its RX/TX
// queue-pair count (n = data cores, appendix §B).
type VF struct {
	NIC        int
	Index      int
	QueuePairs int
}

// ServerConfig describes an Albatross server's resources.
type ServerConfig struct {
	Topology cpu.Topology
	// NICs is the number of FPGA SmartNICs (paper: 4 x 2x100G).
	NICs int
	// VFsPerNIC bounds SR-IOV virtual functions per NIC.
	VFsPerNIC int
	// ReorderQueuesPerServer bounds total PLB order queues across pods.
	ReorderQueuesPerServer int
}

// DefaultServerConfig returns the production Albatross server: dual-NUMA
// 2x48 cores, 4 NICs, comfortable VF/queue headroom.
func DefaultServerConfig() ServerConfig {
	return ServerConfig{
		Topology:               cpu.DefaultTopology(),
		NICs:                   4,
		VFsPerNIC:              16,
		ReorderQueuesPerServer: 64,
	}
}

// Server tracks pod placement on one Albatross machine.
type Server struct {
	cfg       ServerConfig
	pods      []*Pod
	nextPodID uint16
	// coreUsed marks allocated host cores.
	coreUsed []bool
	// vfUsed counts VFs allocated per NIC.
	vfUsed []int
	// ordqUsed counts allocated reorder queues.
	ordqUsed int
}

// NewServer creates an empty server.
func NewServer(cfg ServerConfig) (*Server, error) {
	if err := cfg.Topology.Validate(); err != nil {
		return nil, err
	}
	if cfg.NICs <= 0 || cfg.VFsPerNIC <= 0 {
		return nil, fmt.Errorf("pod: invalid NIC config %+v: %w", cfg, errs.BadConfig)
	}
	if cfg.ReorderQueuesPerServer <= 0 {
		cfg.ReorderQueuesPerServer = 64
	}
	return &Server{
		cfg:      cfg,
		coreUsed: make([]bool, cfg.Topology.TotalCores()),
		vfUsed:   make([]int, cfg.NICs),
	}, nil
}

// FreeCores returns the number of unallocated cores on a NUMA node.
func (s *Server) FreeCores(node int) int {
	n := 0
	for id, used := range s.coreUsed {
		if !used && s.cfg.Topology.NodeOf(id) == node {
			n++
		}
	}
	return n
}

// nicsOfNode returns the NIC indices attached to a NUMA node: the paper's
// server wires half the NICs to each node.
func (s *Server) nicsOfNode(node int) []int {
	perNode := s.cfg.NICs / s.cfg.Topology.Nodes
	if perNode == 0 {
		perNode = s.cfg.NICs
		node = 0
	}
	var out []int
	for i := 0; i < perNode; i++ {
		out = append(out, node*perNode+i)
	}
	return out
}

// planVFs computes the 4-VF assignment for a pod on the given node without
// mutating state, or nil if the node's NICs are out of VFs.
func (s *Server) planVFs(node, dataCores int) []VF {
	nics := s.nicsOfNode(node)
	pending := make(map[int]int) // extra VFs tentatively taken per NIC
	var vfs []VF
	for i := 0; i < VFsPerPod; i++ {
		nic := nics[i%len(nics)]
		if s.vfUsed[nic]+pending[nic] >= s.cfg.VFsPerNIC {
			return nil
		}
		vfs = append(vfs, VF{NIC: nic, Index: s.vfUsed[nic] + pending[nic], QueuePairs: dataCores})
		pending[nic]++
	}
	return vfs
}

// Place deploys a pod, allocating all its cores inside a single NUMA node
// (the paper's §7 NUMA lesson), 4 VFs across the node's NICs, and its
// reorder queue share. now is the creation time; the pod becomes Ready
// after StartupTime.
func (s *Server) Place(spec Spec, now sim.Time) (*Pod, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	need := spec.DataCores + spec.CtrlCores

	ordq := ReorderQueuesFor(spec.DataCores)
	if spec.Mode == ModeRSS {
		ordq = 0
	}
	if s.ordqUsed+ordq > s.cfg.ReorderQueuesPerServer {
		return nil, fmt.Errorf("pod %s: reorder queues exhausted (%d used of %d): %w",
			spec.Name, s.ordqUsed, s.cfg.ReorderQueuesPerServer, errs.Exhausted)
	}

	// First NUMA node that can satisfy both the core and the VF demand.
	node := -1
	var vfs []VF
	for n := 0; n < s.cfg.Topology.Nodes; n++ {
		if s.FreeCores(n) < need {
			continue
		}
		vfs = s.planVFs(n, spec.DataCores)
		if vfs != nil {
			node = n
			break
		}
	}
	if node == -1 {
		return nil, fmt.Errorf("pod %s: no NUMA node with %d free cores and %d free VFs: %w",
			spec.Name, need, VFsPerPod, errs.Exhausted)
	}
	for _, vf := range vfs {
		s.vfUsed[vf.NIC]++
	}

	// Allocate cores.
	var data, ctrl []int
	for id := range s.coreUsed {
		if s.coreUsed[id] || s.cfg.Topology.NodeOf(id) != node {
			continue
		}
		if len(data) < spec.DataCores {
			data = append(data, id)
			s.coreUsed[id] = true
		} else if len(ctrl) < spec.CtrlCores {
			ctrl = append(ctrl, id)
			s.coreUsed[id] = true
		} else {
			break
		}
	}

	s.ordqUsed += ordq
	p := &Pod{
		Spec:          spec,
		ID:            s.nextPodID,
		NUMANode:      node,
		CoreIDs:       data,
		CtrlCoreIDs:   ctrl,
		ReorderQueues: ordq,
		VFs:           vfs,
		CreatedAt:     now,
		ReadyAt:       now.Add(StartupTime),
	}
	s.nextPodID++
	s.pods = append(s.pods, p)
	return p, nil
}

// Remove tears down a pod and frees its resources.
func (s *Server) Remove(p *Pod) error {
	idx := -1
	for i, q := range s.pods {
		if q == p {
			idx = i
			break
		}
	}
	if idx == -1 {
		return fmt.Errorf("pod %s: not on this server: %w", p.Spec.Name, errs.BadState)
	}
	for _, id := range p.CoreIDs {
		s.coreUsed[id] = false
	}
	for _, id := range p.CtrlCoreIDs {
		s.coreUsed[id] = false
	}
	for _, vf := range p.VFs {
		s.vfUsed[vf.NIC]--
	}
	s.ordqUsed -= p.ReorderQueues
	s.pods = append(s.pods[:idx], s.pods[idx+1:]...)
	return nil
}

// CostModel captures Fig. 15's economics: the gateway cluster types per
// availability zone, gateways per cluster, and relative device costs and
// power draws of the three generations.
type CostModel struct {
	ClusterTypes       int // XGW, IGW, VGW, ... (paper: 8)
	GatewaysPerCluster int // paper: 4
	PodsPerServer      int // paper: 4

	// Relative device prices (1st/2nd gen = 1x, Albatross = 2x).
	LegacyPrice    float64
	AlbatrossPrice float64

	// Power draw per device in watts.
	Gen1Power, Gen2Power, Gen3Power float64
	// Gen1Clusters/Gen2Clusters split the legacy deployment (paper: three
	// 1st-gen and five 2nd-gen clusters).
	Gen1Clusters, Gen2Clusters int
}

// DefaultCostModel returns the paper's Fig. 15 numbers.
func DefaultCostModel() CostModel {
	return CostModel{
		ClusterTypes:       8,
		GatewaysPerCluster: 4,
		PodsPerServer:      4,
		LegacyPrice:        1,
		AlbatrossPrice:     2,
		Gen1Power:          500,
		Gen2Power:          300,
		Gen3Power:          900,
		Gen1Clusters:       3,
		Gen2Clusters:       5,
	}
}

// AZComparison summarizes building one availability zone the legacy way vs
// with Albatross.
type AZComparison struct {
	LegacyGateways   int
	AlbatrossServers int
	ServerReduction  float64 // fraction of devices saved
	LegacyCost       float64
	AlbatrossCost    float64
	CostReduction    float64
	LegacyPowerW     float64
	AlbatrossPowerW  float64
	PowerReduction   float64
}

// Compare evaluates the model.
func (m CostModel) Compare() AZComparison {
	legacyGW := m.ClusterTypes * m.GatewaysPerCluster
	servers := (legacyGW + m.PodsPerServer - 1) / m.PodsPerServer

	legacyCost := float64(legacyGW) * m.LegacyPrice
	albCost := float64(servers) * m.AlbatrossPrice

	legacyPower := float64(m.Gen1Clusters*m.GatewaysPerCluster)*m.Gen1Power +
		float64(m.Gen2Clusters*m.GatewaysPerCluster)*m.Gen2Power
	albPower := float64(servers) * m.Gen3Power

	return AZComparison{
		LegacyGateways:   legacyGW,
		AlbatrossServers: servers,
		ServerReduction:  1 - float64(servers)/float64(legacyGW),
		LegacyCost:       legacyCost,
		AlbatrossCost:    albCost,
		CostReduction:    1 - albCost/legacyCost,
		LegacyPowerW:     legacyPower,
		AlbatrossPowerW:  albPower,
		PowerReduction:   1 - albPower/legacyPower,
	}
}
