package gop

import (
	"math"
	"testing"
	"testing/quick"

	"albatross/internal/sim"
)

func TestTokenBucketBasics(t *testing.T) {
	tb := NewTokenBucket(1000, 10) // 1000 pps, burst 10
	// Burst available immediately.
	for i := 0; i < 10; i++ {
		if !tb.Allow(0) {
			t.Fatalf("burst packet %d denied", i)
		}
	}
	if tb.Allow(0) {
		t.Fatal("11th packet at t=0 allowed")
	}
	// After 1ms, one token refilled.
	if !tb.Allow(sim.Time(sim.Millisecond)) {
		t.Fatal("refilled token denied")
	}
	if tb.Allow(sim.Time(sim.Millisecond)) {
		t.Fatal("second packet after 1ms allowed")
	}
}

func TestTokenBucketSteadyRate(t *testing.T) {
	tb := NewTokenBucket(1e6, 100) // 1Mpps
	// Offer 2Mpps for one second: ~1M should conform.
	allowed := 0
	const offered = 2_000_000
	for i := 0; i < offered; i++ {
		now := sim.Time(float64(i) / offered * float64(sim.Second))
		if tb.Allow(now) {
			allowed++
		}
	}
	if math.Abs(float64(allowed)-1e6) > 1e4 {
		t.Fatalf("allowed %d, want ~1M", allowed)
	}
}

func TestTokenBucketCapsAtBurst(t *testing.T) {
	tb := NewTokenBucket(1000, 5)
	// Long idle must not accumulate more than burst.
	tb.Allow(0)
	n := 0
	for i := 0; i < 100; i++ {
		if tb.Allow(sim.Time(10 * sim.Second)) {
			n++
		}
	}
	if n != 5 {
		t.Fatalf("allowed %d after idle, want burst 5", n)
	}
}

func TestTokenBucketDefaultBurst(t *testing.T) {
	tb := NewTokenBucket(1e6, 0)
	if tb.rate != 1e6 {
		t.Fatal("rate wrong")
	}
	// Default burst = 10ms of rate = 10000.
	n := 0
	for i := 0; i < 20000; i++ {
		if tb.Allow(0) {
			n++
		}
	}
	if n != 10000 {
		t.Fatalf("default burst = %d, want 10000", n)
	}
	tiny := NewTokenBucket(10, 0)
	if !tiny.Allow(0) {
		t.Fatal("minimum burst must be at least 1")
	}
}

func TestTokenBucketTimeMonotonic(t *testing.T) {
	tb := NewTokenBucket(1000, 1)
	tb.Allow(sim.Time(sim.Second))
	// An out-of-order earlier timestamp must not refill or panic.
	if tb.Allow(sim.Time(sim.Millisecond)) {
		t.Fatal("stale timestamp refilled bucket")
	}
}

func TestLimiterValidation(t *testing.T) {
	if _, err := NewLimiter(Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
	cfg := DefaultConfig()
	cfg.Stage1Rate = 0
	if _, err := NewLimiter(cfg); err == nil {
		t.Fatal("zero rate accepted")
	}
	cfg = DefaultConfig()
	cfg.PreEntries = -1
	if _, err := NewLimiter(cfg); err == nil {
		t.Fatal("negative pre entries accepted")
	}
}

func TestSRAMBudget(t *testing.T) {
	l, err := NewLimiter(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	got := l.SRAMBytes()
	if got > 2<<20 {
		t.Fatalf("two-stage SRAM = %d bytes, must be within the paper's 2MB", got)
	}
	naive := NaiveSRAMBytes(1_000_000)
	if naive < 200e6 {
		t.Fatalf("naive SRAM = %d, paper says >200MB for 1M tenants", naive)
	}
	if naive/got < 100 {
		t.Fatalf("reduction factor = %dx, paper claims ~100x", naive/got)
	}
}

// offer sends pps packets/sec of tenant vni through l for dur, returning
// the number passed.
func offer(l *Limiter, vni uint32, pps float64, start sim.Time, dur sim.Duration) (passed, dropped int) {
	n := int(pps * dur.Seconds())
	for i := 0; i < n; i++ {
		now := start.Add(sim.Duration(float64(i) / pps * float64(sim.Second)))
		if l.Process(vni, now) == VerdictPass {
			passed++
		} else {
			dropped++
		}
	}
	return
}

func TestWithinStage1Passes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SampleOneIn = 0
	l, _ := NewLimiter(cfg)
	passed, dropped := offer(l, 42, 4e6, 0, sim.Second/10)
	if dropped > passed/100 {
		t.Fatalf("4Mpps (< 8Mpps stage-1) dropped %d of %d", dropped, passed+dropped)
	}
}

func TestTwoStageCombinedRate(t *testing.T) {
	// A tenant blasting 34Mpps against 8+2Mpps meters passes ~10Mpps.
	cfg := DefaultConfig()
	cfg.SampleOneIn = 0 // isolate the metering math from detection
	l, _ := NewLimiter(cfg)
	passed, _ := offer(l, 7, 34e6, 0, sim.Second/10)
	rate := float64(passed) / 0.1
	if rate < 9e6 || rate > 11.5e6 {
		t.Fatalf("passed rate = %.2fMpps, want ~10Mpps (8+2)", rate/1e6)
	}
	s := l.Stats()
	if s.Stage2Drops == 0 || s.Stage2Conform == 0 || s.Stage1Conform == 0 {
		t.Fatalf("stage accounting: %+v", s)
	}
}

func TestBypassTenantNeverLimited(t *testing.T) {
	l, _ := NewLimiter(DefaultConfig())
	if err := l.ConfigureBypass(5); err != nil {
		t.Fatal(err)
	}
	// 50 Mpps is far above both stage rates (8 + 2 Mpps): every packet
	// passes, and none of them reaches a meter.
	passed, dropped := offer(l, 5, 50e6, 0, sim.Second/20)
	if dropped != 0 || passed == 0 {
		t.Fatalf("bypass tenant dropped %d of %d", dropped, passed+dropped)
	}
	if s := l.Stats(); s.PreMetered != 0 || s.Stage1Conform != 0 || s.Stage2Conform != 0 || s.Stage2Drops != 0 {
		t.Fatalf("bypassed packets were metered: %+v", s)
	}
}

func TestBypassTableFull(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PreEntries = 2
	l, _ := NewLimiter(cfg)
	if err := l.ConfigureBypass(1); err != nil {
		t.Fatal(err)
	}
	if err := l.ConfigureBypass(2); err != nil {
		t.Fatal(err)
	}
	if err := l.ConfigureBypass(3); err == nil {
		t.Fatal("third entry accepted in 2-entry table")
	}
	// Upgrading an existing entry still works.
	if err := l.ConfigureBypass(1); err != nil {
		t.Fatal(err)
	}
}

func TestInstallHeavyHitter(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SampleOneIn = 0
	l, _ := NewLimiter(cfg)
	if err := l.InstallHeavyHitter(9, 1e6); err != nil {
		t.Fatal(err)
	}
	if l.pre[9] == nil {
		t.Fatal("not installed")
	}
	passed, _ := offer(l, 9, 10e6, 0, sim.Second/10)
	rate := float64(passed) / 0.1
	if rate > 1.5e6 {
		t.Fatalf("pre-metered rate = %.2fMpps, want ~1Mpps", rate/1e6)
	}
	// Reinstall adjusts the rate.
	if err := l.InstallHeavyHitter(9, 5e6); err != nil {
		t.Fatal(err)
	}
	// Bypass conflict.
	l.ConfigureBypass(11)
	if err := l.InstallHeavyHitter(11, 1e6); err == nil {
		t.Fatal("installed over bypass entry")
	}
}

func TestSamplingDetectsHeavyHitter(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SampleOneIn = 10
	cfg.SampleThreshold = 20
	l, _ := NewLimiter(cfg)
	// 34Mpps blast: stage-2 drops accumulate samples and promote the
	// tenant within the window.
	offer(l, 77, 34e6, 0, sim.Second/10)
	if l.pre[77] == nil {
		t.Fatal("heavy hitter not detected and installed")
	}
	s := l.Stats()
	if s.HeavyInstalls != 1 || s.SamplesTaken == 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestInnocentTenantNotDetected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SampleOneIn = 10
	cfg.SampleThreshold = 20
	l, _ := NewLimiter(cfg)
	// 1Mpps tenant well within limits: no drops, no samples, no install.
	_, dropped := offer(l, 88, 1e6, 0, sim.Second/10)
	if dropped != 0 {
		t.Fatalf("innocent tenant dropped %d", dropped)
	}
	if l.pre[88] != nil || l.Stats().SamplesTaken != 0 {
		t.Fatal("innocent tenant sampled/installed")
	}
}

func TestCollisionProtectionByPreMeter(t *testing.T) {
	// Force a dominant and an innocent tenant into the same meter entry
	// (MeterEntries=1 makes every tenant collide), plus the same color
	// entry (ColorEntries=1). With detection enabled, the dominant tenant
	// is pulled into the pre_meter, and the innocent one recovers the
	// shared stage-2 budget.
	cfg := DefaultConfig()
	cfg.ColorEntries = 1
	cfg.MeterEntries = 1
	cfg.Stage1Rate = 1e6
	cfg.Stage2Rate = 0.5e6
	cfg.SampleOneIn = 5
	cfg.SampleThreshold = 10
	l, _ := NewLimiter(cfg)

	// Phase 1 (0..100ms): dominant blasts 20Mpps; innocent sends 0.4Mpps.
	// Interleave by offering in small time slices.
	const phase = 100 * sim.Millisecond
	slices := 1000
	var innocentDropPhase1 int
	for s := 0; s < slices; s++ {
		start := sim.Time(s) * sim.Time(phase) / sim.Time(slices)
		_, _ = offer(l, 1, 20e6, start, phase/sim.Duration(slices))
		_, d := offer(l, 2, 0.4e6, start, phase/sim.Duration(slices))
		innocentDropPhase1 += d
	}
	if l.pre[1] == nil {
		t.Fatal("dominant tenant not installed to pre_meter")
	}
	if l.pre[2] != nil {
		t.Fatal("innocent tenant wrongly installed")
	}

	// Phase 2: with the dominant tenant early-limited, the innocent tenant
	// keeps a clean pass rate.
	var innocentDropPhase2, innocentPassPhase2 int
	for s := 0; s < slices; s++ {
		start := sim.Time(phase).Add(sim.Duration(s) * phase / sim.Duration(slices))
		_, _ = offer(l, 1, 20e6, start, phase/sim.Duration(slices))
		p, d := offer(l, 2, 0.4e6, start, phase/sim.Duration(slices))
		innocentDropPhase2 += d
		innocentPassPhase2 += p
	}
	dropRate := float64(innocentDropPhase2) / float64(innocentDropPhase2+innocentPassPhase2)
	if dropRate > 0.15 {
		t.Fatalf("innocent tenant still dropping %.1f%% after heavy-hitter isolation", dropRate*100)
	}
}

func TestProcessDeterministic(t *testing.T) {
	run := func() Stats {
		cfg := DefaultConfig()
		l, _ := NewLimiter(cfg)
		offer(l, 3, 30e6, 0, sim.Second/20)
		offer(l, 4, 2e6, 0, sim.Second/20)
		return l.Stats()
	}
	if run() != run() {
		t.Fatal("limiter not deterministic")
	}
}

// Property: passed packets never exceed offered, and for any single tenant
// the pass rate is bounded by stage1+stage2 rates plus bursts.
func TestRateBoundProperty(t *testing.T) {
	f := func(seed uint64, ratePct uint8) bool {
		cfg := DefaultConfig()
		cfg.SampleOneIn = 0
		cfg.Stage1Rate = 1e6
		cfg.Stage2Rate = 0.25e6
		cfg.Burst = 100
		l, err := NewLimiter(cfg)
		if err != nil {
			return false
		}
		offeredRate := 0.1e6 + float64(ratePct)*0.05e6 // 0.1..12.85 Mpps
		vni := uint32(seed)
		passed, dropped := offer(l, vni, offeredRate, 0, sim.Second/10)
		if passed+dropped == 0 {
			return true
		}
		limit := (cfg.Stage1Rate+cfg.Stage2Rate)*0.1 + 2*cfg.Burst
		return float64(passed) <= limit+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkProcess(b *testing.B) {
	l, _ := NewLimiter(DefaultConfig())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Process(uint32(i%1000), sim.Time(i))
	}
}
