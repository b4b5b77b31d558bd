package bgp

import (
	"fmt"
	"net"
	"sync"
	"time"
)

// Switch models the uplink switch: a real passive eBGP endpoint (it
// accepts peer sessions and accumulates routes in a RIB) combined with the
// control-plane capacity model behind the paper's container-density
// constraint — beyond ~64 peers, route convergence after failures degrades
// to tens of minutes.
type Switch struct {
	AS       uint16
	RouterID uint32
	// Manual propagates to every accepted peer session: no background
	// goroutines; the owner pumps and emits keepalives on its own clock.
	// Must be set before AcceptPeer. See SpeakerConfig.Manual.
	Manual bool

	mu    sync.Mutex
	peers map[*Speaker]bool
	rib   *RIB
}

// NewSwitch creates a switch endpoint.
func NewSwitch(as uint16, routerID uint32) *Switch {
	return &Switch{
		AS:       as,
		RouterID: routerID,
		peers:    make(map[*Speaker]bool),
		rib:      NewRIB(),
	}
}

// RIB returns the switch's route table.
func (sw *Switch) RIB() *RIB { return sw.rib }

// PeerCount returns the number of live sessions.
func (sw *Switch) PeerCount() int {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return len(sw.peers)
}

// AcceptPeer serves one eBGP session (from a gateway pod or a BGP proxy).
// The session is established before returning.
func (sw *Switch) AcceptPeer(conn net.Conn) (*Speaker, error) {
	var sp *Speaker
	sp = NewSpeaker(conn, SpeakerConfig{
		AS:       sw.AS,
		RouterID: sw.RouterID,
		Manual:   sw.Manual,
		// PeerAS 0: the switch accepts any external AS.
		OnRoute: func(prefix Prefix, attrs PathAttrs, withdrawn bool) {
			if withdrawn {
				sw.rib.Withdraw(prefix, sp.PeerRouterID())
			} else {
				sw.rib.Update(Route{Prefix: prefix, Attrs: attrs, PeerID: sp.PeerRouterID()})
			}
		},
		OnDown: func(error) {
			sw.mu.Lock()
			delete(sw.peers, sp)
			sw.mu.Unlock()
			sw.rib.WithdrawPeer(sp.PeerRouterID())
		},
	})
	if err := sp.Start(); err != nil {
		return nil, fmt.Errorf("bgp: switch peer: %w", err)
	}
	if sp.PeerAS() == sw.AS {
		sp.Close()
		return nil, fmt.Errorf("bgp: switch requires eBGP peers (got AS %d)", sp.PeerAS())
	}
	sw.mu.Lock()
	sw.peers[sp] = true
	sw.mu.Unlock()
	return sp, nil
}

// Serve accepts eBGP peers from a listener until it is closed. Sessions
// that fail the handshake (or attempt iBGP) are simply dropped; Serve only
// returns on listener errors.
func (sw *Switch) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		go func(c net.Conn) {
			_, _ = sw.AcceptPeer(c)
		}(conn)
	}
}

// Close tears down all peer sessions.
func (sw *Switch) Close() {
	sw.mu.Lock()
	peers := make([]*Speaker, 0, len(sw.peers))
	for sp := range sw.peers {
		peers = append(peers, sp)
	}
	sw.mu.Unlock()
	for _, sp := range peers {
		sp.Close()
	}
}

// ConvergenceModel estimates route convergence time after a control-plane
// event (switch restart, power loss) as a function of peer count. Within
// the safe threshold convergence is linear (per-peer session re-sync);
// beyond it the control-plane CPU saturates and convergence degrades
// quadratically, reaching the paper's "tens of minutes".
type ConvergenceModel struct {
	PerPeer     time.Duration // linear cost per peer
	SafePeers   int
	OverPenalty time.Duration // quadratic coefficient beyond the threshold
}

// DefaultConvergenceModel matches the paper's anecdotes: 64 peers converge
// in seconds; ~128 peers can take tens of minutes after abnormal events.
func DefaultConvergenceModel() ConvergenceModel {
	return ConvergenceModel{
		PerPeer:     50 * time.Millisecond,
		SafePeers:   64,
		OverPenalty: 500 * time.Millisecond,
	}
}

// Converge returns the modelled convergence time for n peers.
func (m ConvergenceModel) Converge(n int) time.Duration {
	if n <= 0 {
		return 0
	}
	d := time.Duration(n) * m.PerPeer
	if n > m.SafePeers {
		over := n - m.SafePeers
		d += time.Duration(over*over) * m.OverPenalty
	}
	return d
}
