package workload

import (
	"math"
	"testing"

	"albatross/internal/sim"
)

func TestGenerateFlowsDeterministic(t *testing.T) {
	a := GenerateFlows(1000, 50, 1)
	b := GenerateFlows(1000, 50, 1)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("flow generation not deterministic")
		}
	}
	c := GenerateFlows(1000, 50, 2)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same > 10 {
		t.Fatalf("different seeds produced %d identical flows", same)
	}
}

func TestGenerateFlowsTenants(t *testing.T) {
	flows := GenerateFlows(10000, 16, 3)
	seen := map[uint32]int{}
	for _, f := range flows {
		if f.VNI >= 16 {
			t.Fatalf("VNI %d out of range", f.VNI)
		}
		seen[f.VNI]++
	}
	if len(seen) != 16 {
		t.Fatalf("only %d tenants used", len(seen))
	}
	// Zero tenants defaults to one.
	for _, f := range GenerateFlows(10, 0, 1) {
		if f.VNI != 0 {
			t.Fatal("degenerate tenant count")
		}
	}
}

func TestServiceFlowsDeniedFraction(t *testing.T) {
	flows := GenerateFlows(20000, 10, 4)
	sf := ServiceFlows(flows, 0.1)
	denied := 0
	for _, f := range sf {
		if f.Denied {
			denied++
		}
	}
	frac := float64(denied) / float64(len(sf))
	if math.Abs(frac-0.1) > 0.02 {
		t.Fatalf("denied fraction = %v, want ~0.1", frac)
	}
	for _, f := range ServiceFlows(flows, 0) {
		if f.Denied {
			t.Fatal("denial with zero fraction")
		}
	}
}

func TestRateFunctions(t *testing.T) {
	c := ConstantRate(5e6)
	if c(0) != 5e6 || c(sim.Time(sim.Second)) != 5e6 {
		t.Fatal("constant rate")
	}
	s := StepRate(4e6, 34e6, sim.Time(15*sim.Second))
	if s(0) != 4e6 || s(sim.Time(14*sim.Second)) != 4e6 {
		t.Fatal("step before")
	}
	if s(sim.Time(15*sim.Second)) != 34e6 || s(sim.Time(20*sim.Second)) != 34e6 {
		t.Fatal("step after")
	}
}

func TestMicroburst(t *testing.T) {
	m := Microburst(ConstantRate(1e6), 10, 100*sim.Millisecond, 5*sim.Millisecond)
	if m(0) != 10e6 {
		t.Fatalf("burst phase = %v", m(0))
	}
	if m(sim.Time(50*sim.Millisecond)) != 1e6 {
		t.Fatal("quiet phase")
	}
	if m(sim.Time(102*sim.Millisecond)) != 10e6 {
		t.Fatal("second burst")
	}
	// Zero period: passthrough.
	p := Microburst(ConstantRate(2e6), 10, 0, sim.Millisecond)
	if p(12345) != 2e6 {
		t.Fatal("zero-period passthrough")
	}
}

func TestSourceValidation(t *testing.T) {
	e := sim.NewEngine()
	if err := (&Source{}).Start(e); err == nil {
		t.Fatal("empty source started")
	}
	if err := (&Source{Flows: GenerateFlows(1, 1, 1)}).Start(e); err == nil {
		t.Fatal("source without rate started")
	}
	if err := (&Source{Flows: GenerateFlows(1, 1, 1), Rate: ConstantRate(1)}).Start(e); err == nil {
		t.Fatal("source without sink started")
	}
}

func TestSourceRateAccuracy(t *testing.T) {
	e := sim.NewEngine()
	n := 0
	src := &Source{
		Flows: GenerateFlows(100, 4, 1),
		Rate:  ConstantRate(1e6), // 1 Mpps
		Seed:  7,
		Sink:  func(Flow, int) { n++ },
	}
	if err := src.Start(e); err != nil {
		t.Fatal(err)
	}
	e.RunUntil(sim.Time(100 * sim.Millisecond)) // expect ~100K packets
	if n < 95000 || n > 105000 {
		t.Fatalf("generated %d packets in 100ms at 1Mpps", n)
	}
	if src.Generated != uint64(n) {
		t.Fatal("Generated counter mismatch")
	}
}

func TestSourceDeterministicSpacing(t *testing.T) {
	e := sim.NewEngine()
	var times []sim.Time
	src := &Source{
		Flows:         GenerateFlows(10, 1, 1),
		Rate:          ConstantRate(1e6),
		Deterministic: true,
		Sink:          func(Flow, int) { times = append(times, e.Now()) },
	}
	src.Start(e)
	e.RunUntil(sim.Time(10 * sim.Microsecond))
	if len(times) != 10 {
		t.Fatalf("generated %d", len(times))
	}
	for i := 1; i < len(times); i++ {
		if times[i]-times[i-1] != sim.Time(sim.Microsecond) {
			t.Fatalf("spacing %v", times[i]-times[i-1])
		}
	}
}

func TestSourceStop(t *testing.T) {
	e := sim.NewEngine()
	n := 0
	src := &Source{
		Flows: GenerateFlows(10, 1, 1),
		Rate:  ConstantRate(1e6),
		Sink:  func(Flow, int) { n++ },
	}
	src.Start(e)
	e.RunUntil(sim.Time(sim.Millisecond))
	src.Stop()
	at := n
	e.RunUntil(sim.Time(10 * sim.Millisecond))
	if n != at {
		t.Fatalf("source generated after Stop: %d -> %d", at, n)
	}
}

func TestSourceZeroRateIdles(t *testing.T) {
	e := sim.NewEngine()
	n := 0
	src := &Source{
		Flows: GenerateFlows(10, 1, 1),
		Rate:  StepRate(0, 1e6, sim.Time(50*sim.Millisecond)),
		Sink:  func(Flow, int) { n++ },
	}
	src.Start(e)
	e.RunUntil(sim.Time(40 * sim.Millisecond))
	if n != 0 {
		t.Fatalf("generated %d during zero-rate phase", n)
	}
	e.RunUntil(sim.Time(100 * sim.Millisecond))
	if n == 0 {
		t.Fatal("source never resumed after rate step")
	}
}

func TestSourceZipfSkew(t *testing.T) {
	e := sim.NewEngine()
	counts := map[uint32]int{}
	flows := GenerateFlows(1000, 1000, 1)
	for i := range flows {
		flows[i].VNI = uint32(i) // identify flows by VNI
	}
	src := &Source{
		Flows:        flows,
		Rate:         ConstantRate(1e6),
		ZipfExponent: 1.2,
		Seed:         3,
		Sink:         func(f Flow, _ int) { counts[f.VNI]++ },
	}
	src.Start(e)
	e.RunUntil(sim.Time(100 * sim.Millisecond))
	if counts[0] < counts[500]*5 {
		t.Fatalf("Zipf skew missing: rank0=%d rank500=%d", counts[0], counts[500])
	}
}

func TestSourcePacketSizeDefault(t *testing.T) {
	e := sim.NewEngine()
	var size int
	src := &Source{
		Flows: GenerateFlows(1, 1, 1),
		Rate:  ConstantRate(1e6),
		Sink:  func(_ Flow, b int) { size = b },
	}
	src.Start(e)
	e.RunUntil(sim.Time(sim.Millisecond))
	if size != 256 {
		t.Fatalf("default packet size = %d", size)
	}
}
