package bgp

import (
	"fmt"

	"albatross/internal/errs"
	"albatross/internal/sim"
)

// SimSession is a deterministic, virtual-time model of one gateway↔switch
// BGP session guarded by BFD. It is the only BFD in the repository: BFD
// here is a timing contract (probe grid, DetectMult detection, three-way
// handshake, delayed re-advertisement) evaluated on the event engine, so
// every run that detects a link failure stays byte-identical.
//
// The model: BFD probes arrive on a fixed grid every TxInterval. A link
// flap (InjectFlap) suppresses probes for its duration. The session
// declares down at the first probe tick where DetectMult consecutive
// probes have been missed — so detection latency is DetectMult×TxInterval
// quantized up to the probe grid, the paper's "losing three consecutive
// BFD probe packets". Flaps shorter than the detection window are absorbed
// entirely (no state change), which is exactly why BFD probes ride the NIC
// priority queues. After the link returns, a three-way handshake (two
// received probes) brings BFD up, and the route is re-advertised
// ReestablishDelay later (BGP reconvergence), make-before-break style: the
// proxy path keeps forwarding until then.
type SimSession struct {
	engine *sim.Engine
	cfg    SimSessionConfig

	linkDownUntil sim.Time // probes are lost while now < linkDownUntil
	flapActive    bool     // a flap is in progress (for absorbed accounting)
	bfdUp         bool
	routeUp       bool
	lastRx        sim.Time // virtual time of last received probe
	goodRx        int      // consecutive received probes since link restore
	downedAt      sim.Time
	// nextProbeAt / readvertiseAt mirror the armed timers so NextTransition
	// can expose a conservative lookahead bound without touching the heap.
	nextProbeAt   sim.Time
	readvertiseAt sim.Time // zero when no re-advertisement is pending
	// onRouteChange runs after every RouteUp transition, inside the
	// transition's event (set by NewProxiedSession; nil when unobserved).
	onRouteChange func()

	stats SimSessionStats
}

// SimSessionConfig parameterizes the model. Zero values take the BFD
// defaults used by the socket stack (50ms probes, DetectMult 3).
type SimSessionConfig struct {
	// TxInterval is the BFD probe interval. Default 50ms.
	TxInterval sim.Duration
	// DetectMult consecutive missed probes declare the session down.
	// Default 3.
	DetectMult int
	// ReestablishDelay is the gap between BFD recovering and the route
	// being advertised again (BGP session re-establishment + UPDATE
	// propagation). Default 1s.
	ReestablishDelay sim.Duration
}

// SimSessionStats are cumulative session counters.
type SimSessionStats struct {
	Flaps        uint64       // InjectFlap calls
	Absorbed     uint64       // flaps that ended before BFD could detect them
	Detections   uint64       // session-down declarations
	Recoveries   uint64       // route re-advertisements
	DownTime     sim.Duration // total route-withdrawn time
	LastDetectNS sim.Duration // flap start → down declaration, last detection
}

// NewSimSession starts a session in the established state (link up, BFD up,
// route advertised) and begins the probe grid at the current virtual time.
func NewSimSession(engine *sim.Engine, cfg SimSessionConfig) (*SimSession, error) {
	if cfg.TxInterval <= 0 {
		cfg.TxInterval = 50 * sim.Millisecond
	}
	if cfg.DetectMult <= 0 {
		cfg.DetectMult = 3
	}
	if cfg.DetectMult > 255 {
		return nil, fmt.Errorf("bgp: DetectMult %d out of [1,255]: %w", cfg.DetectMult, errs.BadConfig)
	}
	if cfg.ReestablishDelay <= 0 {
		cfg.ReestablishDelay = 1 * sim.Second
	}
	s := &SimSession{
		engine:  engine,
		cfg:     cfg,
		bfdUp:   true,
		routeUp: true,
		lastRx:  engine.Now(),
	}
	s.nextProbeAt = engine.Now().Add(cfg.TxInterval)
	engine.AfterArg(cfg.TxInterval, simSessionProbe, s)
	return s, nil
}

// RouteUp reports whether the route is currently advertised.
func (s *SimSession) RouteUp() bool { return s.routeUp }

// LinkUp reports whether the physical link is up (no flap in progress).
func (s *SimSession) LinkUp() bool { return s.engine.Now() >= s.linkDownUntil }

// Stats returns a snapshot of the counters.
func (s *SimSession) Stats() SimSessionStats { return s.stats }

// NextTransition returns a conservative lower bound on the next virtual
// time at which the session's externally visible state (RouteUp) could
// change: TimeMax while the session is settled (route advertised, link up,
// no flap in progress), else the next probe tick or pending
// re-advertisement, whichever is sooner. Sharded cluster runs use it as the
// lookahead horizon — control-plane work strictly before the bound may
// read RouteUp without advancing this session's engine. The bound is always
// strictly in the future: probe and re-advertisement times are re-armed
// before their handlers return.
func (s *SimSession) NextTransition() sim.Time {
	if s.routeUp && !s.flapActive {
		return sim.TimeMax
	}
	b := s.nextProbeAt
	if s.readvertiseAt != 0 && s.readvertiseAt < b {
		b = s.readvertiseAt
	}
	return b
}

// DetectionWindow returns the worst-case detection latency,
// DetectMult×TxInterval plus up to one probe interval of grid quantization.
func (s *SimSession) DetectionWindow() sim.Duration {
	return sim.Duration(s.cfg.DetectMult+1) * s.cfg.TxInterval
}

// InjectFlap takes the link down for d: probes are lost until now+d. A flap
// shorter than the detection window is absorbed. Overlapping flaps extend
// the outage (the later deadline wins).
func (s *SimSession) InjectFlap(d sim.Duration) {
	if d <= 0 {
		return
	}
	s.stats.Flaps++
	now := s.engine.Now()
	if !s.flapActive {
		s.flapActive = true
		s.downedAt = now
		s.goodRx = 0
	}
	if end := now.Add(d); end > s.linkDownUntil {
		s.linkDownUntil = end
	}
}

// simSessionProbe is the probe-grid tick.
func simSessionProbe(arg any) {
	s := arg.(*SimSession)
	now := s.engine.Now()
	if now >= s.linkDownUntil {
		if s.flapActive {
			s.flapActive = false
			if s.bfdUp {
				// The flap ended before DetectMult probes were missed.
				s.stats.Absorbed++
			}
		}
		s.lastRx = now
		if !s.bfdUp {
			// Three-way handshake: two consecutive received probes.
			s.goodRx++
			if s.goodRx >= 2 {
				s.bfdUp = true
				s.readvertiseAt = now.Add(s.cfg.ReestablishDelay)
				s.engine.AfterArg(s.cfg.ReestablishDelay, simSessionReadvertise, s)
			}
		}
	} else if s.bfdUp &&
		now.Sub(s.lastRx) >= sim.Duration(s.cfg.DetectMult)*s.cfg.TxInterval {
		// DetectMult consecutive probes missed: declare down, withdraw.
		s.bfdUp = false
		s.routeUp = false
		s.stats.Detections++
		s.stats.LastDetectNS = now.Sub(s.downedAt)
		if s.onRouteChange != nil {
			s.onRouteChange()
		}
	}
	s.nextProbeAt = now.Add(s.cfg.TxInterval)
	s.engine.AfterArg(s.cfg.TxInterval, simSessionProbe, s)
}

func simSessionReadvertise(arg any) {
	s := arg.(*SimSession)
	s.readvertiseAt = 0
	if !s.bfdUp || s.routeUp {
		// A new flap won the race, or already advertised.
		return
	}
	now := s.engine.Now()
	s.routeUp = true
	s.stats.Recoveries++
	s.stats.DownTime += now.Sub(s.downedAt)
	if s.onRouteChange != nil {
		s.onRouteChange()
	}
}
