package bgp

import (
	"fmt"
	"net"
	"sync"
)

// Switch models the uplink switch: a real passive eBGP endpoint (it
// accepts peer sessions and accumulates routes in a RIB). Its peer count is
// the paper's container-density constraint — beyond ~64 peers, route
// convergence after failures degrades to tens of minutes (ExamplePeerMath).
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
