package service

import (
	"testing"

	"albatross/internal/cachesim"
	"albatross/internal/flowtable"
	"albatross/internal/packet"
	"albatross/internal/sim"
)

// refTable is one exact-match table of the chain Service used to hold, kept
// as the oracle's: its own key set, its own address counter. A Go map written
// the obvious way — it shares no code with flowtable.Index.
type refTable struct {
	base      uint64
	entrySize int
	next      uint64
	addr      map[packet.FiveTuple]uint64
}

func (t *refTable) insert(key packet.FiveTuple) {
	if _, ok := t.addr[key]; ok {
		return // replace: the entry keeps its address, no new one is consumed
	}
	t.addr[key] = t.base + t.next*uint64(t.entrySize)
	t.next++
}

// refService is the service as it was before the tables were shared: every
// table of the chain is populated and probed separately. Service must agree
// with it packet for packet — verdict, cost, and every modelled cache access.
type refService struct {
	cfg    Config
	prof   profile
	tables []*refTable
	denied map[packet.FiveTuple]bool
}

func newRefService(cfg Config) *refService {
	s := &refService{cfg: cfg, prof: profiles[cfg.Type]}
	for _, ts := range s.prof.tables {
		s.tables = append(s.tables, &refTable{base: cfg.Addrs.NextBase(), entrySize: ts.entrySize})
	}
	s.Populate(nil)
	return s
}

// Populate replaces the state, as Service.Populate does: the tables keep
// their bases and start over at entry 0.
func (s *refService) Populate(flows []Flow) {
	for _, tb := range s.tables {
		tb.next, tb.addr = 0, make(map[packet.FiveTuple]uint64)
	}
	s.denied = make(map[packet.FiveTuple]bool)
	for _, f := range flows {
		for _, tb := range s.tables {
			tb.insert(f.Tuple)
		}
		if f.Denied {
			s.denied[f.Tuple] = true
		}
	}
}

func (s *refService) Process(flow packet.FiveTuple) Result {
	var hits, misses int
	known := true
	for _, tb := range s.tables {
		addr, ok := tb.addr[flow]
		if !ok {
			known = false
			break
		}
		h, m := s.cfg.Cache.Access(addr, tb.entrySize)
		hits += h
		misses += m
	}
	lpmBase := uint64(0x7f) << 48
	for i := 0; i < s.prof.lpmLookups; i++ {
		dst := flow.Dst.Uint32()
		if i == 1 {
			dst = flow.Src.Uint32()
		}
		for _, a := range []uint64{
			lpmBase + uint64(dst>>24)*64,
			lpmBase + 1<<20 + uint64(dst>>16)*64,
			lpmBase + 1<<30 + uint64(dst>>8)*1024 + uint64(dst&0xff)/16*64,
		} {
			h, m := s.cfg.Cache.Access(a, 64)
			hits += h
			misses += m
		}
	}
	memNS := s.cfg.Latency.Cost(hits, misses) * s.cfg.MemoryMult
	cpuNS := s.prof.baseNS * s.cfg.ComputeMult
	return Result{
		Cost:   sim.Duration(memNS + cpuNS),
		Drop:   !known || s.denied[flow],
		Hits:   hits,
		Misses: misses,
	}
}

// chainOp is one step of a differential run.
type chainOp struct {
	populate bool // Populate(flows) on both sides; otherwise Process(flow)
	flows    []Flow
	flow     packet.FiveTuple
	warm     bool // Warm + WarmProbes on the Service first; must change nothing
}

// checkAgainstReferenceChain drives a Service and a refService of the same
// type through ops, each on its own cache of one small geometry and its own
// address space advanced by skip bases first (a node that has deployed other
// pods before this one). Every Result field and both cache counters must
// agree after every step.
func checkAgainstReferenceChain(t testing.TB, typ Type, skip int, ops []chainOp) {
	t.Helper()
	geometry := cachesim.Config{SizeBytes: 64 * 4 * 64, Ways: 4, LineBytes: 64}
	mk := func() Config {
		cfg := Config{
			Type: typ, Cache: cachesim.New(geometry), Addrs: flowtable.NewAddrSpace(),
			Latency: cachesim.DefaultLatency(), MemoryMult: 1.3, ComputeMult: 1.1,
		}
		for i := 0; i < skip; i++ {
			cfg.Addrs.NextBase()
		}
		return cfg
	}
	svc, err := New(mk())
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefService(mk())
	for i, op := range ops {
		if op.populate {
			svc.Populate(op.flows)
			ref.Populate(op.flows)
			var want int64
			for _, tb := range ref.tables {
				want += int64(len(tb.addr) * tb.entrySize)
			}
			if got := svc.TableMemoryBytes(); got != want || svc.NumTables() != len(ref.tables) {
				t.Fatalf("%v op %d: %d tables of %d bytes, reference %d of %d",
					typ, i, svc.NumTables(), got, len(ref.tables), want)
			}
			continue
		}
		if op.warm {
			fh := op.flow.Hash()
			svc.WarmProbes(fh)
			svc.Warm(op.flow, fh)
		}
		got, want := svc.Process(op.flow, 0), ref.Process(op.flow)
		if got != want {
			t.Fatalf("%v op %d: Process(%v) = %+v, reference %+v", typ, i, op.flow, got, want)
		}
		if c, rc := svc.cfg.Cache, ref.cfg.Cache; c.Hits() != rc.Hits() || c.Misses() != rc.Misses() {
			t.Fatalf("%v op %d: cache counters %d/%d, reference %d/%d",
				typ, i, c.Hits(), c.Misses(), rc.Hits(), rc.Misses())
		}
	}
}

// withRepeatsAndDenials returns flows with every seventh tuple installed a
// second time later on (the second copy denied, so the deny set must take the
// union) and every eleventh denied outright.
func withRepeatsAndDenials(flows []Flow) []Flow {
	out := append([]Flow(nil), flows...)
	for i := range out {
		if i%11 == 0 {
			out[i].Denied = true
		}
		if i%7 == 0 {
			dup := flows[i]
			dup.Denied = true
			out = append(out, dup)
		}
	}
	return out
}

func TestServiceMatchesReferenceChain(t *testing.T) {
	r := sim.NewRand(19)
	for _, typ := range All {
		for _, n := range []int{0, 1, 50, 3000} {
			first := withRepeatsAndDenials(testFlows(n, uint64(n)+1))
			second := withRepeatsAndDenials(testFlows(n/2+3, uint64(n)+2))
			unknown := testFlows(20, 99)
			ops := []chainOp{{populate: true, flows: first}}
			draw := func(installed []Flow) {
				for i := 0; i < 4000; i++ {
					op := chainOp{warm: r.Intn(4) == 0}
					if len(installed) == 0 || r.Intn(10) == 0 {
						op.flow = unknown[r.Intn(len(unknown))].Tuple
					} else {
						op.flow = installed[r.Intn(len(installed))].Tuple
					}
					ops = append(ops, op)
				}
			}
			draw(first)
			// A second Populate replaces the first: its flows start over at
			// entry 0 of each table, and the first set's flows are unknown.
			ops = append(ops, chainOp{populate: true, flows: second})
			draw(append(append([]Flow(nil), second...), first...))
			checkAgainstReferenceChain(t, typ, int(typ)*3, ops)
		}
	}
}

// FuzzServiceMatchesReferenceChain runs checkAgainstReferenceChain on a
// decoded byte string. seed picks the service type, how far the address space
// has advanced, and a universe of 64 tuples sharing a few /24s; each op is
// two bytes, kind and argument: 0xff populates with a list drawn from the
// universe by the argument (with repeats and denials), a kind with bit 4 set
// warms before processing, and the argument picks the tuple.
func FuzzServiceMatchesReferenceChain(f *testing.F) {
	f.Add(uint64(0), []byte("\xff\x05\x00\x00\x00\x01\x10\x02"))
	f.Add(uint64(1), []byte("\x00\x03\xff\x20\x00\x03\xff\x07\x00\x03\x10\x3f"))
	f.Fuzz(func(t *testing.T, seed uint64, data []byte) {
		r := sim.NewRand(seed)
		universe := make([]packet.FiveTuple, 64)
		for i := range universe {
			universe[i] = packet.FiveTuple{
				Src:   packet.IPv4FromUint32(0x0a000000 | r.Uint32()&0x3ff),
				Dst:   packet.IPv4FromUint32(0x30000000 | r.Uint32()&0x7ff),
				Proto: packet.IPProtocolTCP,
				SPort: uint16(1024 + r.Intn(8)),
				DPort: 443,
			}
		}
		var ops []chainOp
		for ; len(data) >= 2; data = data[2:] {
			kind, arg := data[0], int(data[1])
			if kind != 0xff {
				ops = append(ops, chainOp{flow: universe[arg%len(universe)], warm: kind&0x10 != 0})
				continue
			}
			flows := make([]Flow, arg%48)
			for j := range flows {
				idx := (arg*7 + j*j) % len(universe) // squares collide: repeats
				flows[j] = Flow{Tuple: universe[idx], Denied: (idx+arg)%5 == 0}
			}
			ops = append(ops, chainOp{populate: true, flows: flows})
		}
		checkAgainstReferenceChain(t, All[seed%uint64(len(All))], int((seed>>8)%7), ops)
	})
}

func TestPopulateReplaces(t *testing.T) {
	a, b := testFlows(100, 1), testFlows(40, 2)
	a[0].Denied = true
	s := newService(t, VPCInternet, a)
	s.Populate(b)
	if res := s.Process(a[1].Tuple, a[1].VNI); !res.Drop || res.Hits+res.Misses != 6 {
		t.Fatalf("flow of the replaced set: %+v, want an unknown-flow drop with LPM accesses only", res)
	}
	if res := s.Process(b[0].Tuple, b[0].VNI); res.Drop {
		t.Fatal("flow of the new set dropped")
	}
	if got, want := s.TableMemoryBytes(), int64(len(b)*s.NumTables()*128); got != want {
		t.Fatalf("TableMemoryBytes = %d after the second Populate, want %d", got, want)
	}
	if len(s.tables.denied) != 0 {
		t.Fatalf("%d denied flows: the first set's deny set survived", len(s.tables.denied))
	}
}

// Adopted tables are shared, not copied, and a service that replaces its own
// leaves the others' alone.
func TestAdoptSharesTables(t *testing.T) {
	flows := testFlows(100, 3)
	shared := BuildTables(flows)
	a, b := newService(t, VPCVPC, nil), newService(t, VPCInternet, nil)
	a.Adopt(shared)
	b.Adopt(shared)
	if a.tables != b.tables {
		t.Fatal("Adopt copied the tables")
	}
	a.Populate(nil)
	if res := b.Process(flows[0].Tuple, 0); res.Drop {
		t.Fatal("replacing one service's tables emptied another's")
	}
	if res := a.Process(flows[0].Tuple, 0); !res.Drop {
		t.Fatal("Populate(nil) left flows installed")
	}
}

func TestProcessHashDoesNotAllocate(t *testing.T) {
	flows := testFlows(1000, 4)
	flows[5].Denied = true
	s := newService(t, VPCInternet, flows)
	unknown := testFlows(1, 5)[0].Tuple
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		flow := flows[i%len(flows)].Tuple
		if i++; i%9 == 0 {
			flow = unknown
		}
		fh := flow.Hash()
		s.WarmProbes(fh)
		s.Warm(flow, fh)
		s.ProcessHash(flow, 0, fh)
	}); n != 0 {
		t.Fatalf("WarmProbes+Warm+ProcessHash allocates %v times per call", n)
	}
}
