// Package nicsim models the FPGA NIC pipeline around PLB: the basic
// pipeline's pkt_dir classifier (priority / RSS / PLB paths, full-packet or
// header-only delivery), the payload buffer backing header-payload split,
// and the latency (Tab. 4) and FPGA resource (Tab. 5) ledgers.
package nicsim

import (
	"fmt"

	"albatross/internal/packet"
	"albatross/internal/sim"
)

// Class is a pkt_dir traffic class.
type Class int

// Traffic classes.
const (
	// ClassPLB data packets are sprayed per packet and reordered at egress.
	ClassPLB Class = iota
	// ClassRSS data packets keep flow affinity: stateful specials such as
	// Zoonet probes, health checks and vSwitch-learning packets, where PLB's
	// inter-core consistency overhead is not worth their tiny volume.
	ClassRSS
	// ClassPriority protocol packets (BGP/BFD) ride dedicated priority
	// queues so dataplane saturation cannot break control-plane peering.
	ClassPriority
)

func (c Class) String() string {
	switch c {
	case ClassPLB:
		return "PLB"
	case ClassRSS:
		return "RSS"
	case ClassPriority:
		return "priority"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// DeliveryMode selects full-packet or header-only DMA.
type DeliveryMode int

// Delivery modes.
const (
	FullPacket DeliveryMode = iota
	// HeaderOnly ships only headers over PCIe; payloads wait in the NIC
	// payload buffer until egress reassembly (appendix §A). Critical for
	// jumbo frames (up to 8,500B payload).
	HeaderOnly
)

func (m DeliveryMode) String() string {
	if m == HeaderOnly {
		return "header-only"
	}
	return "full-packet"
}

// Rule is one programmable pkt_dir row. Zero fields are wildcards.
type Rule struct {
	Proto   packet.IPProtocol // inner/outer protocol to match (0 = any)
	DstPort uint16            // L4 destination port (0 = any)
	Class   Class
	Mode    DeliveryMode
}

// Classifier is a pod's programmable pkt_dir table.
type Classifier struct {
	rules        []Rule
	defaultClass Class
	defaultMode  DeliveryMode
}

// NewClassifier creates a classifier whose default (no rule matched) is
// the given class and mode.
func NewClassifier(defaultClass Class, defaultMode DeliveryMode) *Classifier {
	return &Classifier{defaultClass: defaultClass, defaultMode: defaultMode}
}

// DefaultClassifier returns the production pkt_dir: BGP (TCP/179) and BFD
// (UDP/3784, UDP/4784) to the priority path, ICMP health checks to RSS,
// everything else PLB full-packet.
func DefaultClassifier() *Classifier {
	c := NewClassifier(ClassPLB, FullPacket)
	c.AddRule(Rule{Proto: packet.IPProtocolTCP, DstPort: 179, Class: ClassPriority})
	c.AddRule(Rule{Proto: packet.IPProtocolUDP, DstPort: 3784, Class: ClassPriority})
	c.AddRule(Rule{Proto: packet.IPProtocolUDP, DstPort: 4784, Class: ClassPriority})
	c.AddRule(Rule{Proto: packet.IPProtocolICMP, Class: ClassRSS})
	return c
}

// AddRule appends a rule (first match wins).
func (c *Classifier) AddRule(r Rule) { c.rules = append(c.rules, r) }

// ClassifyFlow returns the class and delivery mode for a flow: the first
// rule matching its protocol and destination port, else the default.
func (c *Classifier) ClassifyFlow(flow packet.FiveTuple) (Class, DeliveryMode) {
	for _, r := range c.rules {
		if r.Proto != 0 && r.Proto != flow.Proto {
			continue
		}
		if r.DstPort != 0 && r.DstPort != flow.DPort {
			continue
		}
		return r.Class, r.Mode
	}
	return c.defaultClass, c.defaultMode
}

// ModuleLatency is one pipeline module's RX/TX contribution.
type ModuleLatency struct {
	RX, TX sim.Duration
}

// LatencyModel reproduces Tab. 4: per-module NIC pipeline latency.
type LatencyModel struct {
	Basic       ModuleLatency
	OverloadDet ModuleLatency
	PLB         ModuleLatency
	DMA         ModuleLatency
}

// DefaultLatencyModel returns the paper's measured values (µs): basic
// 0.58/0.84, overload detection 0.10/0, PLB 0.05/0.35, DMA 3.17/2.98.
func DefaultLatencyModel() LatencyModel {
	us := func(f float64) sim.Duration { return sim.Duration(f * float64(sim.Microsecond)) }
	return LatencyModel{
		Basic:       ModuleLatency{RX: us(0.58), TX: us(0.84)},
		OverloadDet: ModuleLatency{RX: us(0.10), TX: 0},
		PLB:         ModuleLatency{RX: us(0.05), TX: us(0.35)},
		DMA:         ModuleLatency{RX: us(3.17), TX: us(2.98)},
	}
}

// IngressLatency is the NIC time from wire to CPU for a class.
func (m LatencyModel) IngressLatency(c Class) sim.Duration {
	d := m.Basic.RX + m.DMA.RX
	if c != ClassPriority {
		d += m.OverloadDet.RX
	}
	if c == ClassPLB {
		d += m.PLB.RX
	}
	return d
}

// EgressLatency is the NIC time from CPU to wire for a class.
func (m LatencyModel) EgressLatency(c Class) sim.Duration {
	d := m.Basic.TX + m.DMA.TX
	if c == ClassPLB {
		d += m.PLB.TX
	}
	return d
}

// RoundTrip is ingress+egress NIC latency (paper: ~8µs total, DMA
// dominated).
func (m LatencyModel) RoundTrip(c Class) sim.Duration {
	return m.IngressLatency(c) + m.EgressLatency(c)
}

// Resources is a module's FPGA footprint as fractions of the chip.
type Resources struct {
	LUTPct  float64
	BRAMPct float64
}

// ResourceModel reproduces Tab. 5 plus the FPGA totals (912,800 LUTs and
// 265 Mbit BRAM per card).
type ResourceModel struct {
	TotalLUTs     int
	TotalBRAMBits int64
	Modules       map[string]Resources
}

// DefaultResourceModel returns the paper's synthesis results.
func DefaultResourceModel() ResourceModel {
	return ResourceModel{
		TotalLUTs:     912800,
		TotalBRAMBits: 265 << 20,
		Modules: map[string]Resources{
			"basic":    {LUTPct: 42.9, BRAMPct: 38.2},
			"overload": {LUTPct: 2.0, BRAMPct: 0},
			"plb":      {LUTPct: 12.6, BRAMPct: 5.0},
			"dma":      {LUTPct: 2.5, BRAMPct: 1.3},
		},
	}
}

// Sum returns the total LUT/BRAM utilization percentages.
func (r ResourceModel) Sum() Resources {
	var s Resources
	for _, m := range r.Modules {
		s.LUTPct += m.LUTPct
		s.BRAMPct += m.BRAMPct
	}
	return s
}

// Headroom returns the fraction of the FPGA left for the future offloading
// plans of §7 (sessions, crypto, billing).
func (r ResourceModel) Headroom() Resources {
	s := r.Sum()
	return Resources{LUTPct: 100 - s.LUTPct, BRAMPct: 100 - s.BRAMPct}
}

// PLBBRAMBytes computes the on-chip memory PLB's reorder structures consume
// for a pod allocation: per queue-entry, the FIFO reorder info (PSN 2B +
// timestamp 6B), the BITMAP mirror (valid+PSN ≈ 2B), and a BUF descriptor
// (16B; packet bytes themselves live in the card's payload memory).
func PLBBRAMBytes(queues, depth int) int64 {
	const perEntry = 2 + 6 + 2 + 16
	return int64(queues) * int64(depth) * perEntry
}

// PayloadBuffer models the NIC payload memory for header-payload split: a
// capacity-bounded store with FIFO eviction. Evicted payloads force the
// plb_reorder to drop late headers (paper §4.1's "payload already
// released").
type PayloadBuffer struct {
	capacity int64
	used     int64
	entries  map[uint64]int // id -> size
	order    []uint64       // FIFO eviction order

	Stores    uint64
	Evictions uint64
}

// NewPayloadBuffer creates a buffer of the given capacity in bytes.
func NewPayloadBuffer(capacity int64) *PayloadBuffer {
	if capacity <= 0 {
		capacity = 64 << 20
	}
	return &PayloadBuffer{capacity: capacity, entries: make(map[uint64]int)}
}

// Store parks a payload of size bytes under id, evicting the oldest
// payloads if needed. It returns false if size exceeds the whole buffer.
func (b *PayloadBuffer) Store(id uint64, size int) bool {
	if int64(size) > b.capacity {
		return false
	}
	if _, dup := b.entries[id]; dup {
		return false
	}
	for b.used+int64(size) > b.capacity && len(b.order) > 0 {
		oldest := b.order[0]
		b.order = b.order[1:]
		if sz, ok := b.entries[oldest]; ok {
			delete(b.entries, oldest)
			b.used -= int64(sz)
			b.Evictions++
		}
	}
	b.entries[id] = size
	b.order = append(b.order, id)
	b.used += int64(size)
	b.Stores++
	return true
}

// Take removes and returns whether the payload is still resident (egress
// reassembly).
func (b *PayloadBuffer) Take(id uint64) bool {
	sz, ok := b.entries[id]
	if !ok {
		return false
	}
	delete(b.entries, id)
	b.used -= int64(sz)
	return true
}

// Has reports residency without removing.
func (b *PayloadBuffer) Has(id uint64) bool {
	_, ok := b.entries[id]
	return ok
}

// PCIeSavings returns the fraction of PCIe bandwidth header-payload split
// saves for a packet of the given total and header sizes.
func PCIeSavings(totalBytes, headerBytes int) float64 {
	if totalBytes <= 0 || headerBytes >= totalBytes {
		return 0
	}
	return 1 - float64(headerBytes)/float64(totalBytes)
}
