package workload

import (
	"fmt"

	"albatross/internal/errs"
)

// Option configures a Source built by New. Options replace the older
// struct-literal construction (`&Source{...}`) everywhere a caller wants
// eager validation: New rejects an incomplete or contradictory source at
// build time instead of at Start.
type Option func(*Source)

// WithFlows sets the flow set arrivals draw from. Required.
func WithFlows(flows []Flow) Option {
	return func(s *Source) { s.Flows = flows }
}

// WithRate sets the offered aggregate rate function. Required.
func WithRate(rate RateFn) Option {
	return func(s *Source) { s.Rate = rate }
}

// WithSeed seeds the arrival and flow-pick RNG.
func WithSeed(seed uint64) Option {
	return func(s *Source) { s.Seed = seed }
}

// WithSink sets the per-arrival callback. Required.
func WithSink(sink func(f Flow, bytes int)) Option {
	return func(s *Source) { s.Sink = sink }
}

// WithPacketBytes overrides the generated wire size (default 256B).
func WithPacketBytes(n int) Option {
	return func(s *Source) { s.PacketBytes = n }
}

// WithZipf skews flow popularity with the given Zipf exponent.
func WithZipf(exponent float64) Option {
	return func(s *Source) { s.ZipfExponent = exponent }
}

// WithDeterministic spaces arrivals exactly 1/rate apart instead of
// exponentially.
func WithDeterministic() Option {
	return func(s *Source) { s.Deterministic = true }
}

// New builds a Source from options and validates it eagerly. All
// validation errors wrap errs.BadConfig.
func New(opts ...Option) (*Source, error) {
	s := &Source{}
	for _, opt := range opts {
		opt(s)
	}
	if len(s.Flows) == 0 {
		return nil, fmt.Errorf("workload: source has no flows: %w", errs.BadConfig)
	}
	if s.Rate == nil {
		return nil, fmt.Errorf("workload: source has no rate function: %w", errs.BadConfig)
	}
	if s.Sink == nil {
		return nil, fmt.Errorf("workload: source has no sink: %w", errs.BadConfig)
	}
	if s.PacketBytes < 0 {
		return nil, fmt.Errorf("workload: negative packet size %d: %w", s.PacketBytes, errs.BadConfig)
	}
	if s.PacketBytes == 0 {
		s.PacketBytes = 256
	}
	if s.ZipfExponent < 0 {
		return nil, fmt.Errorf("workload: negative Zipf exponent %g: %w", s.ZipfExponent, errs.BadConfig)
	}
	return s, nil
}
