// Package service implements the CPU-side gateway dataplane: the four
// representative cloud gateway services of the paper's Tab. 2 (VPC-VPC,
// VPC-Internet, VPC-IDC, VPC-CloudService), each a modelled chain of
// exact-match tables plus real LPM lookups over the flowtable/lpm
// substrates. The chained tables of one service hold the same key set, so
// the host probes one shared index per packet (see Tables) and derives every
// modelled table's entry address from the flow's ordinal.
//
// Per-packet cost is *derived*, not asserted: every lookup touches its
// entry's synthetic memory addresses through the shared L3 cache model, and
// the resulting hit/miss counts are priced with DRAM/L3 latencies. This is
// the mechanism behind the paper's Fig. 4/5: with 500K concurrent flows and
// multi-hundred-byte entries the working set dwarfs the cache, the L3 hit
// rate settles around 30-45%, and PLB (packet spray) performs within 1% of
// RSS (flow affinity) because neither fits the cache anyway.
package service

import (
	"albatross/internal/errs"
	"fmt"

	"albatross/internal/cachesim"
	"albatross/internal/flowtable"
	"albatross/internal/lpm"
	"albatross/internal/packet"
	"albatross/internal/sim"
)

// Type enumerates the gateway services of Tab. 2.
type Type int

// Gateway services.
const (
	VPCVPC Type = iota
	VPCInternet
	VPCIDC
	VPCCloudService
)

// All lists every service type.
var All = []Type{VPCVPC, VPCInternet, VPCIDC, VPCCloudService}

func (t Type) String() string {
	switch t {
	case VPCVPC:
		return "VPC-VPC"
	case VPCInternet:
		return "VPC-Internet"
	case VPCIDC:
		return "VPC-IDC"
	case VPCCloudService:
		return "VPC-CloudService"
	default:
		return fmt.Sprintf("service(%d)", int(t))
	}
}

// profile describes a service's processing chain.
type profile struct {
	// tables are the exact-match lookups the service performs per packet,
	// with per-entry footprints (paper §4.2: entries are long, often
	// hundreds of bytes).
	tables []tableSpec
	// lpmLookups is the number of LPM route lookups per packet.
	lpmLookups int
	// baseNS is the instruction-path cost excluding memory stalls.
	baseNS float64
}

type tableSpec struct {
	name      string
	entrySize int
}

// profiles calibrates the four services. Lookup chains follow the paper's
// narrative: VPC-Internet has "significantly longer processing code and
// more lookup tables than other gateway services".
var profiles = map[Type]profile{
	VPCVPC: {
		tables: []tableSpec{
			{"vmnc_src", 128},   // VM-NC mapping of the source VM
			{"vmnc_dst", 128},   // VM-NC mapping of the destination VM
			{"vpc_policy", 128}, // VPC peering/policy entry
		},
		lpmLookups: 1,
		baseNS:     220,
	},
	VPCInternet: {
		tables: []tableSpec{
			{"vmnc_src", 128},
			{"eip_map", 128},   // elastic IP mapping
			{"snat_sess", 128}, // SNAT session
			{"acl", 128},       // security ACL
		},
		lpmLookups: 2, // VXLAN route + Internet route
		baseNS:     285,
	},
	VPCIDC: {
		tables: []tableSpec{
			{"vmnc_src", 128},
			{"tunnel", 128}, // hybrid-cloud tunnel entry
			{"idc_policy", 128},
		},
		lpmLookups: 1,
		baseNS:     270,
	},
	VPCCloudService: {
		tables: []tableSpec{
			{"vmnc_src", 128},
			{"svc_endpoint", 128}, // cloud service endpoint mapping
			{"svc_policy", 128},
		},
		lpmLookups: 1,
		baseNS:     235,
	},
}

// Flow describes one tenant flow the service must know about.
type Flow struct {
	Tuple packet.FiveTuple
	VNI   uint32
	// Denied marks flows the ACL drops (VPC-Internet only).
	Denied bool
}

// Result is the outcome of processing one packet.
type Result struct {
	// Cost is the CPU service time for this packet.
	Cost sim.Duration
	// Drop is set when the service discards the packet (ACL/rate rules):
	// the pod should return it to the NIC with the PLB drop flag.
	Drop bool
	// Hits/Misses are the packet's L3 cache accesses.
	Hits, Misses int
}

// Config parameterizes a service instance.
type Config struct {
	Type Type
	// Cache is the shared L3 model. Required.
	Cache *cachesim.Cache
	// Latency prices cache hits/misses. Zero value uses DefaultLatency.
	Latency cachesim.MemLatency
	// MemoryMult scales memory stall time (cross-NUMA penalty, memory
	// frequency). 0 means 1.0.
	MemoryMult float64
	// ComputeMult scales instruction-path time. 0 means 1.0.
	ComputeMult float64
	// Addrs allocates synthetic table address bases. nil uses the
	// process-global space; deterministic experiments should pass a
	// per-context space so table addresses don't depend on what else the
	// process has created.
	Addrs *flowtable.AddrSpace
}

// Tables is the populated state of a flow set: the exact-match index (flow
// → insertion ordinal), the /24 routes covering flow destinations and the
// ACL deny set. It depends on the flows alone — not on the service type, the
// cache or the address space — and is immutable once BuildTables returns, so
// any number of services, on any goroutines, may adopt the same Tables
// without locks: every member of a homogeneous cluster does.
type Tables struct {
	index  *flowtable.Index
	routes *lpm.Table
	// denied holds the flows the ACL drops.
	denied map[packet.FiveTuple]bool

	// warmSink absorbs BuildTables' warm reads so they are not elided.
	warmSink uint64
}

// buildGroup is how many flows BuildTables hashes and warms before it
// inserts them: up to that many slot-array misses are in flight at once.
const buildGroup = 16

// BuildTables installs flows: one index entry per distinct tuple (a repeated
// tuple keeps its first ordinal), plus the /24 route of every destination.
//
// Flows go in one at a time, in order, so every ordinal and the slot array
// are what sequential Insert makes. They are taken buildGroup at a time:
// hash each once, read each probe head in one tight loop so the index's DRAM
// misses overlap instead of serializing, then insert. A warm read interleaved
// with the inserts overlaps only the misses of the few inserts the host's
// reorder window holds: at 750k flows that form took 160 ms to this one's
// 86 ms on a 2-vCPU Xeon.
func BuildTables(flows []Flow) *Tables {
	t := &Tables{
		index:  flowtable.NewIndex(len(flows)),
		routes: lpm.New(),
		denied: make(map[packet.FiveTuple]bool),
	}
	var hashes [buildGroup]uint32
	var sink uint64
	for lo := 0; lo < len(flows); lo += buildGroup {
		group := flows[lo:min(lo+buildGroup, len(flows))]
		for k := range group {
			hashes[k] = group[k].Tuple.Hash()
		}
		for _, h := range hashes[:len(group)] {
			sink += t.index.WarmHash(h)
		}
		for k, f := range group {
			t.index.InsertHash(f.Tuple, hashes[k])
			if f.Denied {
				t.denied[f.Tuple] = true
			}
			// Destination subnet route (idempotent across flows sharing /24s).
			prefix := lpm.Canonical(f.Tuple.Dst.Uint32(), 24)
			_ = t.routes.Insert(prefix, 24, uint32((lo+k)%(1<<20)))
		}
	}
	t.warmSink = sink
	return t
}

// noTables is what a service holds until Populate or Adopt.
var noTables = BuildTables(nil)

// modelledTable is what is private to one service instance about one table
// of its chain: where the table's entries sit in the synthetic address space
// and how long they are. Entry n of the table occupies entrySize bytes at
// base + n×entrySize, n being the flow's ordinal in the shared index.
type modelledTable struct {
	base      uint64
	entrySize int
}

// Service is one gateway service instance (the dataplane of one GW pod
// role).
type Service struct {
	cfg  Config
	prof profile
	// chain is the modelled exact-match chain, in profile order. The bases
	// are per-instance because address spaces are: two nodes whose spaces
	// have advanced differently place the same table at different addresses.
	chain   []modelledTable
	tables  *Tables
	lpmBase uint64

	// warmSink absorbs WarmProbes' reads so they are not elided.
	warmSink uint64
}

// New creates a service instance with empty tables.
func New(cfg Config) (*Service, error) {
	prof, ok := profiles[cfg.Type]
	if !ok {
		return nil, fmt.Errorf("service: unknown type %v: %w", cfg.Type, errs.BadConfig)
	}
	if cfg.Cache == nil {
		return nil, fmt.Errorf("service: cache model required: %w", errs.BadConfig)
	}
	if cfg.Latency == (cachesim.MemLatency{}) {
		cfg.Latency = cachesim.DefaultLatency()
	}
	if cfg.MemoryMult == 0 {
		cfg.MemoryMult = 1
	}
	if cfg.ComputeMult == 0 {
		cfg.ComputeMult = 1
	}
	s := &Service{cfg: cfg, prof: prof, tables: noTables}
	for _, ts := range prof.tables {
		s.chain = append(s.chain, modelledTable{base: cfg.Addrs.NextBase(), entrySize: ts.entrySize})
	}
	// A dedicated synthetic address region for LPM trie nodes.
	s.lpmBase = uint64(0x7f) << 48
	return s, nil
}

// Type returns the service type.
func (s *Service) Type() Type { return s.cfg.Type }

// NumTables returns the number of exact-match tables in the modelled chain.
func (s *Service) NumTables() int { return len(s.chain) }

// LPMLookups returns the LPM lookups per packet.
func (s *Service) LPMLookups() int { return s.prof.lpmLookups }

// Populate replaces the service's table state with BuildTables(flows): one
// entry per flow in each chained table, plus /24 routes covering flow
// destinations. Flows installed by an earlier Populate or Adopt are gone.
func (s *Service) Populate(flows []Flow) { s.Adopt(BuildTables(flows)) }

// Adopt replaces the service's table state with t, which may be shared with
// other services.
func (s *Service) Adopt(t *Tables) { s.tables = t }

// Tables returns the service's table state, for Adopt by another service.
func (s *Service) Tables() *Tables { return s.tables }

// TableMemoryBytes returns the modelled footprint of all exact-match
// tables.
func (s *Service) TableMemoryBytes() int64 {
	var total int64
	for _, mt := range s.chain {
		total += int64(s.tables.index.Len()) * int64(mt.entrySize)
	}
	return total
}

// WarmProbes reads the exact-match probe-chain head for fh without looking
// anything up: a load that starts the host cache miss early. No model state
// is touched.
func (s *Service) WarmProbes(fh uint32) {
	s.warmSink += s.tables.index.WarmHash(fh)
}

// Warm pre-touches the host cache lines ProcessHash(flow, vni, fh) will
// need — the cache model's tag sets that the exact-match entries and the
// LPM nodes map to (a directory word and a block sized to the set's lines,
// or up to two host lines per 16-way set once the model is dense) —
// without mutating any model state (LookupHash is read-only and Cache.Warm
// reorders nothing).
// Burst-batched dispatch calls WarmProbes two members ahead and Warm one
// member ahead, so each member's memory is in flight while its predecessor
// computes; results are bit-identical either way.
func (s *Service) Warm(flow packet.FiveTuple, fh uint32) {
	if ord, ok := s.tables.index.LookupHash(flow, fh); ok {
		for _, mt := range s.chain {
			s.cfg.Cache.Warm(mt.base+ord*uint64(mt.entrySize), mt.entrySize)
		}
	}
	var addrs [3]uint64
	for i := 0; i < s.prof.lpmLookups; i++ {
		dst := flow.Dst.Uint32()
		if i == 1 {
			dst = flow.Src.Uint32()
		}
		s.lpmAccessAddrs(dst, &addrs)
		for _, a := range addrs {
			s.cfg.Cache.Warm(a, 64)
		}
	}
}

// lpmAccessAddrs derives the synthetic trie-node addresses an LPM lookup
// for dst touches. Top levels are shared across all flows (hot in cache);
// the leaf level fans out per /24 (cold) — matching real multibit-trie
// locality.
func (s *Service) lpmAccessAddrs(dst uint32, out *[3]uint64) {
	out[0] = s.lpmBase + uint64(dst>>24)*64         // level-1 node (256 possible)
	out[1] = s.lpmBase + 1<<20 + uint64(dst>>16)*64 // level-2 node (64K possible)
	// Leaf node region per /24; the slot read inside the 1KB node depends
	// on the host byte (controlled prefix expansion), so distinct /32
	// destinations touch distinct lines.
	out[2] = s.lpmBase + 1<<30 + uint64(dst>>8)*1024 + uint64(dst&0xff)/16*64
}

// Process runs one packet of the given flow through the service chain and
// returns its cost and verdict. The flow must have been installed by
// Populate; unknown flows take the slow path (a miss-heavy ACL default
// deny) and are dropped.
func (s *Service) Process(flow packet.FiveTuple, vni uint32) Result {
	return s.ProcessHash(flow, vni, flow.Hash())
}

// ProcessHash is Process with the caller-precomputed flow.Hash() — the
// burst path hashes once during its warm pass and reuses the value here.
func (s *Service) ProcessHash(flow packet.FiveTuple, vni uint32, fh uint32) Result {
	var hits, misses int
	t := s.tables

	// Exact-match chain: one probe of the shared index, then every modelled
	// table's entry for the flow. An unknown flow misses in the first table
	// and touches nothing.
	ord, known := t.index.LookupHash(flow, fh)
	if known {
		for _, mt := range s.chain {
			h, m := s.cfg.Cache.Access(mt.base+ord*uint64(mt.entrySize), mt.entrySize)
			hits += h
			misses += m
		}
	}

	// LPM route lookups.
	var addrs [3]uint64
	for i := 0; i < s.prof.lpmLookups; i++ {
		dst := flow.Dst.Uint32()
		if i == 1 {
			// Second lookup (Internet route) keys on the source (return
			// path); keeps the two lookups from being identical.
			dst = flow.Src.Uint32()
		}
		_, _ = t.routes.Lookup(dst)
		s.lpmAccessAddrs(dst, &addrs)
		for _, a := range addrs {
			h, m := s.cfg.Cache.Access(a, 64)
			hits += h
			misses += m
		}
	}

	memNS := s.cfg.Latency.Cost(hits, misses) * s.cfg.MemoryMult
	cpuNS := s.prof.baseNS * s.cfg.ComputeMult
	cost := sim.Duration(memNS + cpuNS)

	// The len guard skips the map hash entirely in the common no-deny-state
	// case.
	drop := !known || (len(t.denied) != 0 && t.denied[flow])
	return Result{Cost: cost, Drop: drop, Hits: hits, Misses: misses}
}
