// Package gop implements Albatross's gateway overload protection (paper
// §4.3): the two-stage tenant rate limiter that protects the CPU from
// heavy-hitter tenants using ~2MB of FPGA SRAM instead of the >200MB a
// per-tenant meter table would need for a million tenants.
//
// Stage 1 (color_table) is a 4K-entry meter array indexed by VNI % 4K that
// applies a coarse per-entry rate; traffic exceeding it is *marked* (not
// dropped) and handed to stage 2. Stage 2 (meter_table) hashes the VNI into
// a 4K-entry fine-grained meter array; marked traffic that also exceeds the
// fine rate is dropped. A 128-entry pre_check table in front of both stages
// handles two special cases: top-tier tenants configured to bypass rate
// limiting entirely, and detected heavy hitters that are early-limited in
// the 128-entry pre_meter so their excess never contaminates the shared
// meter_table entries (the hash-collision false-positive fix). Heavy
// hitters are found by sampling stage-2 violations — dominant tenants are
// sampled proportionally more often — and installing any tenant whose
// sample count crosses a threshold within a one-second window.
package gop

import (
	"albatross/internal/errs"
	"fmt"

	"albatross/internal/sim"
)

// TokenBucket is a single-rate two-color meter in virtual time.
type TokenBucket struct {
	rate   float64 // tokens (packets) per second
	burst  float64 // bucket depth
	tokens float64
	last   sim.Time
}

// NewTokenBucket creates a meter admitting rate packets/second with the
// given burst. A zero burst defaults to rate/100 (10ms of burst), min 1.
func NewTokenBucket(rate, burst float64) *TokenBucket {
	if burst <= 0 {
		burst = rate / 100
		if burst < 1 {
			burst = 1
		}
	}
	return &TokenBucket{rate: rate, burst: burst, tokens: burst}
}

// Allow consumes one token if available at virtual time now. It reports
// whether the packet conforms.
func (tb *TokenBucket) Allow(now sim.Time) bool {
	if now > tb.last {
		tb.tokens += tb.rate * now.Sub(tb.last).Seconds()
		if tb.tokens > tb.burst {
			tb.tokens = tb.burst
		}
		tb.last = now
	}
	if tb.tokens >= 1 {
		tb.tokens--
		return true
	}
	return false
}

// SetRate reconfigures the meter rate.
func (tb *TokenBucket) SetRate(rate float64) { tb.rate = rate }

// Verdict is the rate limiter's decision for a packet.
type Verdict uint8

// Verdicts.
const (
	// VerdictPass admits the packet to the CPU.
	VerdictPass Verdict = iota
	// VerdictDrop rate-limits the packet in the NIC pipeline.
	VerdictDrop
)

// Config parameterizes the two-stage rate limiter.
type Config struct {
	// ColorEntries is the stage-1 table size (paper: 4K).
	ColorEntries int
	// MeterEntries is the stage-2 table size (paper-scale: 4K).
	MeterEntries int
	// PreEntries is the pre_check/pre_meter size (paper: 128).
	PreEntries int
	// Stage1Rate is the coarse per-entry rate in packets/second.
	Stage1Rate float64
	// Stage2Rate is the fine per-entry rate for marked traffic.
	Stage2Rate float64
	// Burst is the bucket depth in packets for all meters (0 = 10ms of rate).
	Burst float64
	// SampleOneIn samples one in N stage-2 violations for heavy-hitter
	// detection (0 disables detection).
	SampleOneIn int
	// SampleThreshold promotes a tenant to the pre_meter once its samples
	// within SampleWindow reach this count.
	SampleThreshold int
	// SampleWindow is the detection window (paper: effective "in one
	// second").
	SampleWindow sim.Duration
	// Seed feeds the sampler's deterministic RNG.
	Seed uint64
}

// DefaultConfig mirrors the paper's production setup: 4K+4K meters,
// 128-entry pre tables, sampled detection converging within a second.
func DefaultConfig() Config {
	return Config{
		ColorEntries:    4096,
		MeterEntries:    4096,
		PreEntries:      128,
		Stage1Rate:      8e6,
		Stage2Rate:      2e6,
		SampleOneIn:     100,
		SampleThreshold: 50,
		SampleWindow:    sim.Second,
		Seed:            1,
	}
}

// Stats counts rate limiter decisions.
type Stats struct {
	Bypassed      uint64 // pre_check top-tier bypass
	PreMetered    uint64 // packets metered in pre_meter
	Stage1Conform uint64 // passed the color table
	Stage2Conform uint64 // marked, passed the meter table
	Stage2Drops   uint64
	HeavyInstalls uint64 // tenants promoted to pre_meter
	SamplesTaken  uint64
}

// preEntry is a pre_check row.
type preEntry struct {
	vni    uint32
	bypass bool
	meter  *TokenBucket
}

// Limiter is the two-stage tenant overload rate limiter.
type Limiter struct {
	cfg   Config
	color []*TokenBucket
	meter []*TokenBucket
	pre   map[uint32]*preEntry // keyed by VNI; size-capped at PreEntries
	rng   *sim.Rand
	stats Stats
	// samples tracks per-VNI sample counts within the current window.
	samples     map[uint32]int
	windowStart sim.Time
}

// NewLimiter creates a rate limiter.
func NewLimiter(cfg Config) (*Limiter, error) {
	if cfg.ColorEntries <= 0 || cfg.MeterEntries <= 0 {
		return nil, fmt.Errorf("gop: table sizes must be positive: %+v: %w", cfg, errs.BadConfig)
	}
	if cfg.PreEntries < 0 {
		return nil, fmt.Errorf("gop: negative PreEntries: %w", errs.BadConfig)
	}
	if cfg.Stage1Rate <= 0 || cfg.Stage2Rate <= 0 {
		return nil, fmt.Errorf("gop: rates must be positive: %w", errs.BadConfig)
	}
	if cfg.SampleWindow <= 0 {
		cfg.SampleWindow = sim.Second
	}
	l := &Limiter{
		cfg:     cfg,
		color:   make([]*TokenBucket, cfg.ColorEntries),
		meter:   make([]*TokenBucket, cfg.MeterEntries),
		pre:     make(map[uint32]*preEntry, cfg.PreEntries),
		rng:     sim.NewRand(cfg.Seed),
		samples: make(map[uint32]int),
	}
	for i := range l.color {
		l.color[i] = NewTokenBucket(cfg.Stage1Rate, cfg.Burst)
	}
	for i := range l.meter {
		l.meter[i] = NewTokenBucket(cfg.Stage2Rate, cfg.Burst)
	}
	return l, nil
}

// Stats returns a snapshot of the counters.
func (l *Limiter) Stats() Stats { return l.stats }

// meterIndex hashes a VNI into the stage-2 table (the collision-prone
// mapping the pre_check exists to compensate for).
func (l *Limiter) meterIndex(vni uint32) int {
	h := vni
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	return int(h % uint32(l.cfg.MeterEntries))
}

// ConfigureBypass marks a top-tier tenant to skip all rate limiting. It
// fails when the pre table is full.
func (l *Limiter) ConfigureBypass(vni uint32) error {
	if e, ok := l.pre[vni]; ok {
		e.bypass = true
		e.meter = nil
		return nil
	}
	if len(l.pre) >= l.cfg.PreEntries {
		return fmt.Errorf("gop: pre_check table full (%d entries): %w", l.cfg.PreEntries, errs.Exhausted)
	}
	l.pre[vni] = &preEntry{vni: vni, bypass: true}
	return nil
}

// InstallHeavyHitter pins a tenant into the pre_meter at the given rate —
// the control-plane path the paper plans for proactive installs, also used
// internally when sampling detects a dominant tenant.
func (l *Limiter) InstallHeavyHitter(vni uint32, rate float64) error {
	if e, ok := l.pre[vni]; ok {
		if e.bypass {
			return fmt.Errorf("gop: tenant %d is configured bypass", vni)
		}
		e.meter.SetRate(rate)
		return nil
	}
	if len(l.pre) >= l.cfg.PreEntries {
		return fmt.Errorf("gop: pre tables full (%d entries): %w", l.cfg.PreEntries, errs.Exhausted)
	}
	l.pre[vni] = &preEntry{vni: vni, meter: NewTokenBucket(rate, l.cfg.Burst)}
	l.stats.HeavyInstalls++
	return nil
}

// Process runs one packet of tenant vni through the limiter at virtual
// time now.
func (l *Limiter) Process(vni uint32, now sim.Time) Verdict {
	// Pre-check stage.
	if e, ok := l.pre[vni]; ok {
		if e.bypass {
			l.stats.Bypassed++
			return VerdictPass
		}
		l.stats.PreMetered++
		if e.meter.Allow(now) {
			return VerdictPass
		}
		return VerdictDrop
	}

	// Stage 1: coarse color table.
	if l.color[int(vni)%l.cfg.ColorEntries].Allow(now) {
		l.stats.Stage1Conform++
		return VerdictPass
	}

	// Stage 2: marked traffic, fine meter table.
	if l.meter[l.meterIndex(vni)].Allow(now) {
		l.stats.Stage2Conform++
		return VerdictPass
	}
	l.stats.Stage2Drops++
	l.maybeSample(vni, now)
	return VerdictDrop
}

// maybeSample implements the detection path: stage-2 violations are sampled
// 1-in-N; a tenant crossing the threshold within the window is promoted to
// the pre_meter at the combined two-stage rate.
func (l *Limiter) maybeSample(vni uint32, now sim.Time) {
	if l.cfg.SampleOneIn <= 0 {
		return
	}
	if now.Sub(l.windowStart) > l.cfg.SampleWindow {
		l.windowStart = now
		clear(l.samples)
	}
	if l.rng.Intn(l.cfg.SampleOneIn) != 0 {
		return
	}
	l.stats.SamplesTaken++
	l.samples[vni]++
	if l.samples[vni] >= l.cfg.SampleThreshold {
		// The pre_meter pins the heavy hitter to its fair two-stage rate so
		// its excess stops contaminating shared meter entries.
		_ = l.InstallHeavyHitter(vni, l.cfg.Stage1Rate+l.cfg.Stage2Rate)
		delete(l.samples, vni)
	}
}
