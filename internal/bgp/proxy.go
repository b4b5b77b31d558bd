package bgp

import (
	"fmt"
	"net"
	"sync"
)

// Proxy is the BGP proxy pod of paper §5 (Fig. 7 right): GW pods on a
// server peer with the proxy over iBGP, and the proxy maintains the single
// eBGP session to the uplink switch, reducing the switch's peer count from
// m (pods per server) to 1.
//
// The proxy reference-counts pod advertisements per prefix: the first pod
// announcing a VIP triggers an upstream announcement, and the upstream
// withdrawal happens only when the last pod withdraws (or dies).
type Proxy struct {
	as       uint16
	routerID uint32
	manual   bool
	upstream *Speaker

	mu   sync.Mutex
	refs map[Prefix]int
	pods map[*Speaker]bool
}

// ProxyConfig parameterizes a proxy pod.
type ProxyConfig struct {
	LocalAS  uint16
	SwitchAS uint16
	RouterID uint32
	// Manual propagates to every session the proxy owns (upstream and pod
	// sessions): no background goroutines; the owner pumps and emits
	// keepalives on its own clock. See SpeakerConfig.Manual.
	Manual bool
}

// NewProxy creates a proxy speaking iBGP to pods as AS `localAS` and eBGP
// to the switch over upstreamConn (whose peer must be `switchAS`). The
// upstream session is established before returning.
func NewProxy(upstreamConn net.Conn, localAS, switchAS uint16, routerID uint32) (*Proxy, error) {
	return NewProxyConfig(upstreamConn, ProxyConfig{LocalAS: localAS, SwitchAS: switchAS, RouterID: routerID})
}

// NewProxyConfig is NewProxy with the full configuration surface.
func NewProxyConfig(upstreamConn net.Conn, cfg ProxyConfig) (*Proxy, error) {
	if cfg.LocalAS == cfg.SwitchAS {
		return nil, fmt.Errorf("bgp: proxy-switch session must be eBGP (AS %d == %d)", cfg.LocalAS, cfg.SwitchAS)
	}
	p := &Proxy{
		as:       cfg.LocalAS,
		routerID: cfg.RouterID,
		manual:   cfg.Manual,
		refs:     make(map[Prefix]int),
		pods:     make(map[*Speaker]bool),
	}
	p.upstream = NewSpeaker(upstreamConn, SpeakerConfig{
		AS:       cfg.LocalAS,
		RouterID: cfg.RouterID,
		PeerAS:   cfg.SwitchAS,
		Manual:   cfg.Manual,
	})
	if err := p.upstream.Start(); err != nil {
		return nil, fmt.Errorf("bgp: proxy upstream session: %w", err)
	}
	return p, nil
}

// Upstream returns the eBGP session to the switch.
func (p *Proxy) Upstream() *Speaker { return p.upstream }

// PodCount returns the number of live pod sessions.
func (p *Proxy) PodCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.pods)
}

// AdvertisedCount returns the number of prefixes currently advertised
// upstream.
func (p *Proxy) AdvertisedCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, c := range p.refs {
		if c > 0 {
			n++
		}
	}
	return n
}

// ServePod accepts one GW pod's iBGP session. The session is established
// before returning; route changes flow to the upstream automatically.
func (p *Proxy) ServePod(conn net.Conn) (*Speaker, error) {
	var sp *Speaker
	sp = NewSpeaker(conn, SpeakerConfig{
		AS:       p.as,
		RouterID: p.routerID,
		PeerAS:   p.as, // iBGP
		Manual:   p.manual,
		OnRoute: func(prefix Prefix, attrs PathAttrs, withdrawn bool) {
			if withdrawn {
				p.release(prefix)
			} else {
				p.acquire(prefix)
			}
		},
		OnDown: func(error) {
			p.podDown(sp)
		},
	})
	if err := sp.Start(); err != nil {
		return nil, fmt.Errorf("bgp: pod session: %w", err)
	}
	p.mu.Lock()
	p.pods[sp] = true
	p.mu.Unlock()
	return sp, nil
}

func (p *Proxy) acquire(prefix Prefix) {
	p.mu.Lock()
	p.refs[prefix]++
	first := p.refs[prefix] == 1
	p.mu.Unlock()
	if first {
		// Announce fails only while the upstream session is not
		// established, an outage its own teardown reports; this route
		// callback has no caller to hand the error to.
		_ = p.upstream.Announce([]Prefix{prefix}, nil)
	}
}

func (p *Proxy) release(prefix Prefix) {
	p.mu.Lock()
	if p.refs[prefix] == 0 {
		p.mu.Unlock()
		return
	}
	p.refs[prefix]--
	last := p.refs[prefix] == 0
	if last {
		delete(p.refs, prefix)
	}
	p.mu.Unlock()
	if last {
		// Withdraw fails only while the upstream session is not
		// established, an outage its own teardown reports.
		_ = p.upstream.Withdraw([]Prefix{prefix})
	}
}

// podDown withdraws everything a dead pod had advertised.
func (p *Proxy) podDown(sp *Speaker) {
	p.mu.Lock()
	if !p.pods[sp] {
		p.mu.Unlock()
		return
	}
	delete(p.pods, sp)
	p.mu.Unlock()
	for _, prefix := range sp.AdjIn().Prefixes() {
		p.release(prefix)
	}
}

// Serve accepts pod iBGP sessions from a listener until it fails (a closed
// listener included), serving each on its own goroutine. onPod, when not
// nil, is told each pod's connection and the outcome of its session set-up.
func (p *Proxy) Serve(ln net.Listener, onPod func(net.Conn, error)) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		go func(c net.Conn) {
			_, err := p.ServePod(c)
			if onPod != nil {
				onPod(c, err)
			}
		}(conn)
	}
}

// Close tears down all sessions.
func (p *Proxy) Close() {
	p.mu.Lock()
	pods := make([]*Speaker, 0, len(p.pods))
	for sp := range p.pods {
		pods = append(pods, sp)
	}
	p.mu.Unlock()
	for _, sp := range pods {
		sp.Close()
	}
	p.upstream.Close()
}
