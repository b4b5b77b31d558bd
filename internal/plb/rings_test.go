package plb

import (
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"albatross/internal/packet"
	"albatross/internal/sim"
)

// The growing rings against the full-depth oracle: a PLB built with
// newPLB(..., cfg.QueueDepth) allocates the model's QueueDepth entries per
// queue up front and never grows, so psn&ringMask is the model's
// psn&(QueueDepth-1). Two PLBs on two engines receive the same dispatches,
// returns, clock advances, core evictions, stress windows and flushes; every
// result, every emission and the final Stats must agree.

// ringPkt is the item a driven packet carries: its dispatch number.
type ringPkt struct{ id int }

// ringSide is one PLB under the differential drive.
type ringSide struct {
	e      *sim.Engine
	p      *PLB
	out    []Emission
	handed []any
}

func newRingSide(t testing.TB, cfg Config, ring int) *ringSide {
	s := &ringSide{e: sim.NewEngine()}
	p, err := newPLB(s.e, cfg, func(em Emission) { s.out = append(s.out, em) }, ring)
	if err != nil {
		t.Fatal(err)
	}
	s.p = p
	return s
}

// ringDrive applies one op stream to the growing PLB and the oracle.
type ringDrive struct {
	t      testing.TB
	cfg    Config
	grow   *ringSide
	oracle *ringSide
	id     int
	// grown is the largest ring any queue of the growing side reached;
	// lastPSN and wrapped detect a queue whose PSN passed 65535.
	grown   int
	lastPSN map[uint8]uint16
	wrapped bool
	// emitted and handed count the emissions and hand-backs compared.
	emitted, handed int
}

// decodeRingsFuzz turns the fuzz geometry into a small PLB: 1–4 order
// queues, QueueDepth 8 (below the first ring), 32, 64 or 128, 1–8 cores, a
// 20 µs timeout so packets outlive it. Bit 7 is unused: it once added a
// payload buffer that forgot some header-only packets, and the committed
// seeds that set it decode to their geometry without it. The high byte is
// the PSN every queue starts at, over 256, so a short op stream can wrap it.
func decodeRingsFuzz(geometry uint16) (cfg Config, start uint16) {
	depths := [...]int{8, 32, 64, 128}
	cfg = Config{
		NumOrderQueues: 1 + int(geometry&3),
		QueueDepth:     depths[geometry>>2&3],
		NumCores:       1 + int(geometry>>4&7),
		Timeout:        20 * sim.Microsecond,
		PodID:          7,
	}
	return cfg, geometry &^ 0xff
}

// runRings runs ops against both PLBs, every queue of both starting at
// PSN start as if that many packets had passed, and fails t at the first
// difference. Each op is two bytes, b and arg:
//
//	b&7 in 0..3  dispatch one packet of flow arg; b>>3 picks its fate
//	b&7 == 4     advance the clock by arg×100 ns
//	b&7 == 5     evict core arg%cores (restore it when arg&0x80)
//	b&7 == 6     stress queue arg&7 (out of range past the last) for
//	             (arg>>3+1) µs, holding heads if b&8, clamping depth to
//	             (b>>4)/16 of QueueDepth
//	b&7 == 7     Flush if b&8, else a burst of arg&63 dispatches
func runRings(t testing.TB, cfg Config, start uint16, ops []byte) *ringDrive {
	d := &ringDrive{
		t: t, cfg: cfg,
		grow:    newRingSide(t, cfg, firstRing),
		oracle:  newRingSide(t, cfg, 1<<15),
		lastPSN: map[uint8]uint16{},
	}
	for _, s := range []*ringSide{d.grow, d.oracle} {
		for qi := range s.p.queues {
			s.p.queues[qi].head, s.p.queues[qi].tail = start, start
		}
	}
	for i := 0; i+1 < len(ops); i += 2 {
		b, arg := ops[i], ops[i+1]
		switch b & 7 {
		case 0, 1, 2, 3:
			d.dispatch(arg, b>>3)
		case 4:
			d.advance(sim.Duration(arg) * 100)
		case 5:
			core := int(arg) % cfg.NumCores
			if arg&0x80 != 0 {
				d.grow.p.RestoreCore(core)
				d.oracle.p.RestoreCore(core)
				break
			}
			if g, o := d.grow.p.EvictCore(core), d.oracle.p.EvictCore(core); g != o {
				t.Fatalf("op %d: EvictCore(%d) marked %d, oracle %d", i/2, core, g, o)
			}
		case 6:
			q := int(arg&7) % (cfg.NumOrderQueues + 1)
			dur := sim.Duration(arg>>3+1) * sim.Microsecond
			clamp := int(b>>4) * cfg.QueueDepth / 16
			g := d.grow.p.StressQueue(q, dur, b&8 != 0, clamp)
			o := d.oracle.p.StressQueue(q, dur, b&8 != 0, clamp)
			if (g == nil) != (o == nil) {
				t.Fatalf("op %d: StressQueue(%d) = %v, oracle %v", i/2, q, g, o)
			}
		case 7:
			if b&8 != 0 {
				g := d.grow.p.Flush(func(item any) { d.grow.handed = append(d.grow.handed, item) })
				o := d.oracle.p.Flush(func(item any) { d.oracle.handed = append(d.oracle.handed, item) })
				if g != o {
					t.Fatalf("op %d: Flush discarded %d, oracle %d", i/2, g, o)
				}
				d.compare("flush")
				break
			}
			for k := byte(0); k < arg&63; k++ {
				d.dispatch(arg+k, k^b>>3)
			}
		}
		d.checkRings(i / 2)
	}
	d.grow.e.Run()
	d.oracle.e.Run()
	d.compare("end")
	return d
}

// dispatch sends one packet through both PLBs. fate's low three bits lose
// it on its core (0), set the drop flag (1) or corrupt its order queue (7);
// bit 3 marks it header-only; the rest, with flow, pick the return delay,
// 0–38 µs against the 20 µs timeout.
func (d *ringDrive) dispatch(flow, fate byte) {
	h := uint32(flow) * 2654435761
	gc, gm, gok := d.grow.p.Dispatch(h)
	oc, om, ook := d.oracle.p.Dispatch(h)
	if gc != oc || gm != om || gok != ook {
		d.t.Fatalf("packet %d: Dispatch = (%d, %+v, %v), oracle (%d, %+v, %v)", d.id, gc, gm, gok, oc, om, ook)
	}
	if !gok {
		return
	}
	if last, seen := d.lastPSN[gm.OrdQ]; seen && gm.PSN < last {
		d.wrapped = true
	}
	d.lastPSN[gm.OrdQ] = gm.PSN
	if n := len(d.grow.p.queues[gm.OrdQ].info); n > d.grown {
		d.grown = n
	}
	d.id++
	item := ringPkt{d.id}
	m := gm
	switch fate & 7 {
	case 0:
		return
	case 1:
		m.Flags |= packet.MetaFlagDrop
	case 7:
		m.OrdQ = 200
	}
	if fate&8 != 0 {
		m.Flags |= packet.MetaFlagHeaderOnly
	}
	delay := sim.Duration(uint(flow)*uint(fate+1)%256) * 150
	for _, s := range []*ringSide{d.grow, d.oracle} {
		p := s.p
		s.e.After(delay, func() { p.Return(item, m) })
	}
}

func (d *ringDrive) advance(by sim.Duration) {
	d.grow.e.RunFor(by)
	d.oracle.e.RunFor(by)
	d.compare("advance")
}

// checkRings holds the growing side's ring invariant: a power of two of
// entries, at least the queue's in-flight count, at most QueueDepth.
func (d *ringDrive) checkRings(op int) {
	for qi := range d.grow.p.queues {
		q := &d.grow.p.queues[qi]
		n := len(q.info)
		if bits.OnesCount(uint(n)) != 1 || len(q.buf) != n || int(q.ringMask) != n-1 ||
			int(q.tail-q.head) > n || n > d.cfg.QueueDepth {
			d.t.Fatalf("op %d: queue %d holds %d in flight in rings of %d/%d entries (mask %d), QueueDepth %d",
				op, qi, q.tail-q.head, n, len(q.buf), q.ringMask, d.cfg.QueueDepth)
		}
	}
}

// compare checks the emissions and hand-backs since the last compare, then
// the counters.
func (d *ringDrive) compare(when string) {
	g, o := d.grow, d.oracle
	if len(g.out) != len(o.out) || len(g.handed) != len(o.handed) {
		d.t.Fatalf("%s: %d emissions and %d hand-backs, oracle %d and %d",
			when, len(g.out), len(g.handed), len(o.out), len(o.handed))
	}
	for ; d.emitted < len(g.out); d.emitted++ {
		if i := d.emitted; g.out[i] != o.out[i] {
			d.t.Fatalf("%s: emission %d = %+v, oracle %+v", when, i, g.out[i], o.out[i])
		}
	}
	for ; d.handed < len(g.handed); d.handed++ {
		if i := d.handed; g.handed[i] != o.handed[i] {
			d.t.Fatalf("%s: Flush hand-back %d = %v, oracle %v", when, i, g.handed[i], o.handed[i])
		}
	}
	if gs, os := g.p.Stats(), o.p.Stats(); gs != os {
		d.t.Fatalf("%s: Stats = %+v, oracle %+v", when, gs, os)
	}
	if g.p.HeadWaitMean() != o.p.HeadWaitMean() || g.p.HeadWaitMax() != o.p.HeadWaitMax() {
		d.t.Fatalf("%s: head wait %v/%v, oracle %v/%v", when,
			g.p.HeadWaitMean(), g.p.HeadWaitMax(), o.p.HeadWaitMean(), o.p.HeadWaitMax())
	}
}

// randomOps draws n uniformly random ops.
func randomOps(seed uint64, n int) []byte {
	r := sim.NewRand(seed)
	ops := make([]byte, 2*n)
	for i := range n {
		ops[2*i] = byte(r.Uint32())
		ops[2*i+1] = byte(r.Uint32())
	}
	return ops
}

// storm is n back-to-back bursts of 63 packets, then rounds more after
// each of which the clock moves 25.5 µs on, past the timeout. Every core
// is restored first.
func storm(n, rounds int) []byte {
	var ops []byte
	for c := range byte(8) {
		ops = append(ops, 5, 0x80|c)
	}
	for range n {
		ops = append(ops, 7, 63)
	}
	for range rounds {
		ops = append(ops, 7, 63, 4, 255)
	}
	return ops
}

// TestRingsMatchFullDepth drives long op streams through geometries of
// every kind: a storm grows the rings through every step to QueueDepth,
// random ops follow, and the PSN wraps — on one-queue geometries after a
// train of 65 536 packets, on the others from a start near the wrap. Every
// result, emission and counter matches the full-depth oracle.
func TestRingsMatchFullDepth(t *testing.T) {
	for _, tc := range []struct {
		name   string
		geom   uint16
		rounds int // burst-and-wait rounds after the random ops
	}{
		{"1q-depth8-below-first-ring", 0<<2 | 0 | 3<<4, 1 << 16 / 8},
		{"1q-depth32", 1<<2 | 0 | 3<<4, 1 << 16 / 32},
		{"2q-depth64-payload", 0xff00 | 2<<2 | 1 | 5<<4 | 0x80, 0},
		{"3q-depth128", 0xff00 | 3<<2 | 2 | 7<<4, 0},
		{"4q-depth128-1core-payload", 0xf000 | 3<<2 | 3 | 0<<4 | 0x80, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, start := decodeRingsFuzz(tc.geom)
			ops := append(storm(12, 0), randomOps(uint64(tc.geom)+1, 20_000)...)
			if tc.rounds > 0 {
				ops = append(ops, storm(0, tc.rounds+100)...)
			}
			d := runRings(t, cfg, start, ops)
			if d.grown != cfg.QueueDepth {
				t.Errorf("rings reached %d entries, want every step up to QueueDepth %d", d.grown, cfg.QueueDepth)
			}
			if !d.wrapped {
				t.Errorf("%d packets never wrapped the PSN", d.id)
			}
		})
	}
	t.Run("paper-depth-4096", func(t *testing.T) {
		cfg := DefaultConfig(1, 8)
		cfg.Timeout = 20 * sim.Microsecond
		d := runRings(t, cfg, 0, append(storm(70, 0), randomOps(99, 20_000)...))
		if d.grown != cfg.QueueDepth {
			t.Errorf("rings reached %d entries, want every step up to QueueDepth %d", d.grown, cfg.QueueDepth)
		}
	})
}

// FuzzPLBRingsMatchFullDepth is TestRingsMatchFullDepth's comparison on
// arbitrary geometries and op streams (see runRings).
func FuzzPLBRingsMatchFullDepth(f *testing.F) {
	f.Add(uint16(1<<2|3<<4), []byte{0, 1, 0, 2, 0, 3, 4, 255, 7, 40})
	f.Add(uint16(2<<2|1|0x80), randomOps(7, 400))
	f.Fuzz(func(t *testing.T, geometry uint16, ops []byte) {
		if len(ops) > 1<<12 {
			ops = ops[:1<<12]
		}
		cfg, start := decodeRingsFuzz(geometry)
		runRings(t, cfg, start, ops)
	})
}

// TestFuzzSeedsCrossEveryGrowth keeps the committed fuzz seeds honest: each
// seed named grow-* grows a queue's rings through every doubling up to
// QueueDepth, and together they do so at every depth above the first ring
// and wrap the PSN at least once.
func TestFuzzSeedsCrossEveryGrowth(t *testing.T) {
	files, err := filepath.Glob("testdata/fuzz/FuzzPLBRingsMatchFullDepth/*")
	if err != nil {
		t.Fatal(err)
	}
	crossed := map[string]bool{}
	for _, name := range files {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		var geometry uint16
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 3 || lines[0] != "go test fuzz v1" {
			t.Fatalf("%s: not a two-value corpus file", name)
		}
		if _, err := fmt.Sscanf(lines[1], "uint16(%d)", &geometry); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ops, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[2], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cfg, start := decodeRingsFuzz(geometry)
		d := runRings(t, cfg, start, []byte(ops))
		if cfg.QueueDepth <= firstRing || d.grown != cfg.QueueDepth {
			if strings.HasPrefix(filepath.Base(name), "grow-") {
				t.Errorf("%s: rings reached %d of QueueDepth %d", name, d.grown, cfg.QueueDepth)
			}
			continue
		}
		crossed[fmt.Sprintf("depth %d", cfg.QueueDepth)] = true
		if d.wrapped {
			crossed["psn wrap"] = true
		}
	}
	for _, want := range []string{"depth 32", "depth 64", "depth 128", "psn wrap"} {
		if !crossed[want] {
			t.Errorf("no committed seed grows the rings to QueueDepth with %s", want)
		}
	}
}
