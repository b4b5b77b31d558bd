// Package workload generates the synthetic traffic the paper's experiments
// describe: 500K-concurrent-flow tenant mixes, Zipf-popular flows, periodic
// microbursts (the production phenomenon behind Fig. 9/10), and heavy-
// hitter schedules (Fig. 8, 13, 14).
//
// Sources are event-driven Poisson (or deterministic) arrival processes on
// the virtual-time engine; each arrival invokes a sink callback with the
// flow and packet size.
package workload

import (
	"albatross/internal/errs"
	"fmt"

	"albatross/internal/packet"
	"albatross/internal/service"
	"albatross/internal/sim"
)

// Flow is one tenant flow.
type Flow struct {
	Tuple packet.FiveTuple
	VNI   uint32
}

// GenerateFlows deterministically creates n flows spread over the given
// number of tenants. Destinations cluster into /24s (as production VIP
// ranges do), sources spread widely.
func GenerateFlows(n, tenants int, seed uint64) []Flow {
	if tenants <= 0 {
		tenants = 1
	}
	r := sim.NewRand(seed)
	flows := make([]Flow, n)
	for i := range flows {
		flows[i] = Flow{
			Tuple: packet.FiveTuple{
				Src:   packet.IPv4FromUint32(0x0a000000 | r.Uint32()&0x00ffffff),
				Dst:   packet.IPv4FromUint32(0x30000000 | r.Uint32()&0x00ffffff),
				Proto: packet.IPProtocolTCP,
				SPort: uint16(1024 + r.Intn(60000)),
				DPort: 443,
			},
			VNI: uint32(r.Intn(tenants)),
		}
	}
	return flows
}

// ServiceFlows converts workload flows to the service package's install
// format, marking a deterministic fraction as ACL-denied.
func ServiceFlows(flows []Flow, deniedFrac float64) []service.Flow {
	out := make([]service.Flow, len(flows))
	for i, f := range flows {
		out[i] = service.Flow{
			Tuple:  f.Tuple,
			VNI:    f.VNI,
			Denied: deniedFrac > 0 && float64(f.Tuple.Hash()%10000) < deniedFrac*10000,
		}
	}
	return out
}

// RateFn returns the offered rate in packets/second at virtual time t.
type RateFn func(t sim.Time) float64

// ConstantRate offers a fixed rate.
func ConstantRate(pps float64) RateFn {
	return func(sim.Time) float64 { return pps }
}

// StepRate offers `before` pps until at, then `after` pps — the Fig. 13/14
// "tenant 1 raises its rate to 34Mpps at the 15th second" shape.
func StepRate(before, after float64, at sim.Time) RateFn {
	return func(t sim.Time) float64 {
		if t < at {
			return before
		}
		return after
	}
}

// Microburst modulates a base rate with periodic bursts: every `period`,
// the rate multiplies by `factor` for `burstLen`. Cloud gateways see many
// such sub-second bursts (paper §6, Fig. 10).
func Microburst(base RateFn, factor float64, period, burstLen sim.Duration) RateFn {
	return func(t sim.Time) float64 {
		r := base(t)
		if period <= 0 {
			return r
		}
		phase := sim.Duration(t) % period
		if phase < burstLen {
			return r * factor
		}
		return r
	}
}

// Source is a Poisson (or deterministic) arrival process over a flow set.
type Source struct {
	// Flows to draw from. Required.
	Flows []Flow
	// Rate is the offered aggregate rate. Required.
	Rate RateFn
	// PacketBytes is the wire size of generated packets (paper tests use
	// 256B). Default 256.
	PacketBytes int
	// ZipfExponent skews flow popularity; 0 = uniform.
	ZipfExponent float64
	// Deterministic spaces arrivals exactly 1/rate apart instead of
	// exponentially.
	Deterministic bool
	// Seed for the arrival and flow-pick RNG.
	Seed uint64
	// Sink receives each arrival. Required.
	Sink func(f Flow, bytes int)

	engine  *sim.Engine
	rng     *sim.Rand
	zipf    *sim.Zipf
	stopped bool
	// Generated counts emitted packets.
	Generated uint64
}

// Start begins generating arrivals on the engine until Stop or the end of
// simulation.
func (s *Source) Start(engine *sim.Engine) error {
	if len(s.Flows) == 0 {
		return fmt.Errorf("workload: source has no flows: %w", errs.BadConfig)
	}
	if s.Rate == nil {
		return fmt.Errorf("workload: source has no rate function: %w", errs.BadConfig)
	}
	if s.Sink == nil {
		return fmt.Errorf("workload: source has no sink: %w", errs.BadConfig)
	}
	if s.PacketBytes <= 0 {
		s.PacketBytes = 256
	}
	s.engine = engine
	s.rng = sim.NewRand(s.Seed)
	if s.ZipfExponent > 0 {
		s.zipf = sim.NewZipf(s.rng, len(s.Flows), s.ZipfExponent)
	}
	s.stopped = false
	s.scheduleNext()
	return nil
}

// Stop halts the source.
func (s *Source) Stop() { s.stopped = true }

func (s *Source) scheduleNext() {
	if s.stopped {
		return
	}
	rate := s.Rate(s.engine.Now())
	if rate <= 0 {
		// Idle: poll again shortly (1ms) for the rate to come back.
		s.engine.After(sim.Millisecond, s.scheduleNext)
		return
	}
	mean := sim.Duration(float64(sim.Second) / rate)
	var gap sim.Duration
	if s.Deterministic {
		gap = mean
	} else {
		gap = s.rng.Exp(mean)
	}
	if gap < 1 {
		gap = 1
	}
	s.engine.After(gap, func() {
		if s.stopped {
			return
		}
		s.emit()
		s.scheduleNext()
	})
}

func (s *Source) emit() {
	var idx int
	if s.zipf != nil {
		idx = s.zipf.Next()
	} else {
		idx = s.rng.Intn(len(s.Flows))
	}
	s.Generated++
	s.Sink(s.Flows[idx], s.PacketBytes)
}
