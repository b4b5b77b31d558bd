package bgp

import (
	"fmt"

	"albatross/internal/packet"
	"albatross/internal/sim"
)

// MemberPrefix returns the canonical VIP prefix member i advertises:
// 10.(i>>8).(i&255).0/24. Disjoint per member, so concurrent RIB updates
// from different members commute.
func MemberPrefix(i int) Prefix {
	return Prefix{Addr: packet.IPv4FromUint32(0x0a000000 | uint32(i)<<8), Len: 24}
}

// ProxiedSessionConfig parameterizes one member's proxy fabric.
type ProxiedSessionConfig struct {
	// Prefix is the VIP the member's pod advertises. Zero value uses
	// MemberPrefix(Member).
	Prefix Prefix
	// Member is the cluster member index; it seeds Prefix and RouterID
	// defaults.
	Member int
	// LocalAS is the server-side AS shared by pod and proxy (iBGP).
	// Default 64512.
	LocalAS uint16
	// RouterID identifies the proxy's upstream session. Zero value derives
	// from Member (1-based, so member 0 is valid). The pod-session router
	// ID is RouterID|0x80000000.
	RouterID uint32
	// KeepaliveEvery is the virtual-time KEEPALIVE cadence on all four
	// speakers. Default 30s. Keepalives never change externally visible
	// state, so they do not factor into SimSession.NextTransition.
	KeepaliveEvery sim.Duration
}

// ProxiedSession is the real BGP stack observing one member's uplink: a GW
// pod speaker peers iBGP with a Proxy (paper §5: one proxy pod per server),
// and the proxy holds the single eBGP session to the shared switch model —
// all over in-memory conns, pumped synchronously inside virtual-time
// events so byte-identical determinism is preserved.
//
// The member's SimSession is the timing model and the only authority for
// RouteUp/LinkUp/NextTransition; the fabric never feeds back into it. On
// every session transition (and admin change) the fabric mirrors the new
// state: the pod speaker announces or withdraws the VIP, the proxy refcounts
// and forwards it upstream, and the switch RIB updates — real
// OPEN/UPDATE/KEEPALIVE bytes end to end.
//
// Packet-path eligibility deliberately reads the session, not the RIB: the
// RIB is observable shadow state, checked against the session by the Desyncs
// counter and pinned in tests. Deriving eligibility from the RIB would tie
// packet-path behavior to message-pump ordering rather than the timing model.
type ProxiedSession struct {
	session *SimSession

	sw     *Switch
	proxy  *Proxy
	prefix Prefix

	pod    *Speaker // our end of the pod↔proxy iBGP session
	podSrv *Speaker // proxy's end of the pod session
	swPeer *Speaker // switch's end of the upstream eBGP session

	adminUp    bool
	advertised bool

	keepaliveEvery sim.Duration

	// AdminWithdraws / AdminRestores count SetAdmin transitions; Desyncs
	// counts refreshes where the switch RIB disagreed with the wanted state
	// after pumping (always 0 unless the fabric breaks).
	AdminWithdraws uint64
	AdminRestores  uint64
	Desyncs        uint64
}

type sessionResult struct {
	sp  *Speaker
	err error
}

// NewProxiedSession wires pod↔proxy↔switch sessions for one member and
// subscribes them to session's route transitions; the keepalive cadence runs
// on the session's engine. The switch must be in Manual mode; all sessions
// are established before returning and the VIP is advertised (and visible in
// the switch RIB) when the session's route is up. A session takes one fabric:
// a second replaces the first's subscription.
func NewProxiedSession(sw *Switch, session *SimSession, cfg ProxiedSessionConfig) (*ProxiedSession, error) {
	if !sw.Manual {
		return nil, fmt.Errorf("bgp: proxied session requires a Manual switch")
	}
	if cfg.LocalAS == 0 {
		cfg.LocalAS = 64512
	}
	if cfg.RouterID == 0 {
		cfg.RouterID = uint32(cfg.Member) + 1
	}
	if cfg.Prefix == (Prefix{}) {
		cfg.Prefix = MemberPrefix(cfg.Member)
	}
	if cfg.KeepaliveEvery <= 0 {
		cfg.KeepaliveEvery = 30 * sim.Second
	}
	s := &ProxiedSession{
		session:        session,
		sw:             sw,
		prefix:         cfg.Prefix.Canonical(),
		adminUp:        true,
		keepaliveEvery: cfg.KeepaliveEvery,
	}

	// Switch ↔ proxy eBGP. The handshake needs both ends concurrent: each
	// side sends its OPEN first, then reads.
	up1, up2 := NewMemPipe()
	swCh := make(chan sessionResult, 1)
	go func() {
		sp, err := sw.AcceptPeer(up1)
		swCh <- sessionResult{sp, err}
	}()
	proxy, err := NewProxyConfig(up2, ProxyConfig{
		LocalAS:  cfg.LocalAS,
		SwitchAS: sw.AS,
		RouterID: cfg.RouterID,
		Manual:   true,
	})
	swRes := <-swCh
	if err != nil {
		return nil, err
	}
	if swRes.err != nil {
		return nil, fmt.Errorf("bgp: switch side: %w", swRes.err)
	}
	s.proxy = proxy
	s.swPeer = swRes.sp

	// Pod ↔ proxy iBGP.
	pd1, pd2 := NewMemPipe()
	podCh := make(chan sessionResult, 1)
	go func() {
		sp, err := proxy.ServePod(pd1)
		podCh <- sessionResult{sp, err}
	}()
	pod := NewSpeaker(pd2, SpeakerConfig{
		AS:       cfg.LocalAS,
		RouterID: cfg.RouterID | 0x80000000,
		PeerAS:   cfg.LocalAS,
		Manual:   true,
	})
	podErr := pod.Start()
	podRes := <-podCh
	if podErr != nil {
		return nil, fmt.Errorf("bgp: pod session: %w", podErr)
	}
	if podRes.err != nil {
		return nil, fmt.Errorf("bgp: proxy pod side: %w", podRes.err)
	}
	s.pod = pod
	s.podSrv = podRes.sp

	session.onRouteChange = s.refresh
	s.refresh()
	session.engine.AfterArg(s.keepaliveEvery, proxiedKeepalive, s)
	return s, nil
}

// refresh reconciles the fabric with the wanted advertisement state
// (admin-up AND session route-up), pumping all four speakers so the switch RIB
// reflects the change before the event returns.
func (s *ProxiedSession) refresh() {
	want := s.adminUp && s.session.RouteUp()
	if want == s.advertised {
		return
	}
	if want {
		_ = s.pod.Announce([]Prefix{s.prefix}, nil)
	} else {
		_ = s.pod.Withdraw([]Prefix{s.prefix})
	}
	s.pump()
	s.advertised = want
	if got := s.sw.RIB().PathCount(s.prefix) > 0; got != want {
		s.Desyncs++
	}
}

// pump drains every buffered message along the pod→proxy→switch chain (and
// the reverse keepalive direction). Safe inside a virtual-time event: all
// conns are MemConns and Manual speakers never block.
func (s *ProxiedSession) pump() {
	_ = s.podSrv.Pump() // pod announce/withdraw → proxy refcount → upstream UPDATE
	_ = s.swPeer.Pump() // upstream UPDATE → switch RIB
	_ = s.proxy.Upstream().Pump()
	_ = s.pod.Pump()
}

func proxiedKeepalive(arg any) {
	s := arg.(*ProxiedSession)
	for _, sp := range [...]*Speaker{s.pod, s.podSrv, s.proxy.Upstream(), s.swPeer} {
		_ = sp.SendKeepalive()
	}
	s.pump()
	s.session.engine.AfterArg(s.keepaliveEvery, proxiedKeepalive, s)
}

// SetAdmin drives administrative advertisement: SetAdmin(false) withdraws
// the VIP through the fabric (a drain) regardless of BFD state;
// SetAdmin(true) restores it. The session's RouteUp is untouched: the
// cluster's adminUntil clock comparison stays the authority for
// administrative drains, so a packet arriving at the drain-expiry instant
// sees the same eligibility whether or not the admin-restore event has run.
// Must be called from control context (after shard synchronization).
func (s *ProxiedSession) SetAdmin(up bool) {
	if s.adminUp == up {
		return
	}
	s.adminUp = up
	if up {
		s.AdminRestores++
	} else {
		s.AdminWithdraws++
	}
	s.refresh()
}
