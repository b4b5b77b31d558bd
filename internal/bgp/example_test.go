package bgp

import (
	"fmt"
	"os"
	"text/tabwriter"
	"time"
)

// PeerMath captures Fig. 7's arithmetic: how many BGP peers the uplink
// switch must maintain with and without the proxy.
type PeerMath struct {
	Servers       int
	PodsPerServer int
	ProxiesPerSrv int // dual-proxy deployment uses 2
}

// SwitchPeersDirect returns the peer count with per-pod eBGP sessions.
func (m PeerMath) SwitchPeersDirect() int { return m.Servers * m.PodsPerServer }

// SwitchPeersProxied returns the peer count with the BGP proxy.
func (m PeerMath) SwitchPeersProxied() int {
	p := m.ProxiesPerSrv
	if p <= 0 {
		p = 1
	}
	return m.Servers * p
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

// ExamplePeerMath prints Fig. 7: 32 servers of 4 pods each peer directly with
// the uplink switch past its 64-peer safe limit, where convergence after a
// failure takes tens of minutes; two proxies per server bring it to 64 peers
// and seconds.
func ExamplePeerMath() {
	m := PeerMath{Servers: 32, PodsPerServer: 4, ProxiesPerSrv: 2}
	conv := DefaultConvergenceModel()
	w := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(w, "Scheme\tSwitch BGP peers\tWithin 64-peer limit\tConvergence after failure")
	for _, row := range []struct {
		name  string
		peers int
	}{{"Per-pod eBGP (original)", m.SwitchPeersDirect()}, {"BGP proxy (dual)", m.SwitchPeersProxied()}} {
		fmt.Fprintf(w, "%s\t%d\t%v\t%v\n", row.name, row.peers, row.peers <= conv.SafePeers,
			conv.Converge(row.peers).Round(time.Second))
	}
	w.Flush()
	fmt.Printf("peers per server: %d -> %d\n", m.PodsPerServer, m.ProxiesPerSrv)
	// Output:
	// Scheme                   Switch BGP peers  Within 64-peer limit  Convergence after failure
	// Per-pod eBGP (original)  128               false                 34m14s
	// BGP proxy (dual)         64                true                  3s
	// peers per server: 4 -> 2
}
