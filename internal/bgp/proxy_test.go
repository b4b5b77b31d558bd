package bgp

import (
	"sync"
	"testing"
	"time"
)

// buildProxySetup wires switch <-eBGP-> proxy <-iBGP-> n pod speakers.
func buildProxySetup(t *testing.T, pods int) (*Switch, *Proxy, []*Speaker) {
	t.Helper()
	sw := NewSwitch(65000, 0xffff0001)

	upA, upB := newBufConnPair()
	var proxy *Proxy
	var perr error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		proxy, perr = NewProxy(upA, 64512, 65000, 0xaa000001)
	}()
	go func() {
		defer wg.Done()
		if _, err := sw.AcceptPeer(upB); err != nil {
			t.Errorf("switch accept: %v", err)
		}
	}()
	wg.Wait()
	if perr != nil {
		t.Fatal(perr)
	}

	var podSpeakers []*Speaker
	for i := 0; i < pods; i++ {
		pa, pb := newBufConnPair()
		podSp := NewSpeaker(pa, SpeakerConfig{AS: 64512, RouterID: uint32(100 + i), PeerAS: 64512})
		var wg2 sync.WaitGroup
		wg2.Add(2)
		var podErr, proxyErr error
		go func() { defer wg2.Done(); podErr = podSp.Start() }()
		go func() { defer wg2.Done(); _, proxyErr = proxy.ServePod(pb) }()
		wg2.Wait()
		if podErr != nil || proxyErr != nil {
			t.Fatalf("pod %d session: %v / %v", i, podErr, proxyErr)
		}
		podSpeakers = append(podSpeakers, podSp)
	}
	t.Cleanup(func() {
		proxy.Close()
		sw.Close()
	})
	return sw, proxy, podSpeakers
}

func TestProxySinglePeerUpstream(t *testing.T) {
	sw, proxy, _ := buildProxySetup(t, 4)
	// The whole point: 4 pods, but the switch sees ONE peer.
	if sw.PeerCount() != 1 {
		t.Fatalf("switch peers = %d, want 1", sw.PeerCount())
	}
	if proxy.PodCount() != 4 {
		t.Fatalf("pod sessions = %d", proxy.PodCount())
	}
}

func TestProxyAggregatesAdvertisements(t *testing.T) {
	sw, proxy, pods := buildProxySetup(t, 3)
	vip := pfx(203, 0, 113, 0, 24)

	// All three pods advertise the same VIP: the switch must receive
	// exactly one upstream route.
	for _, p := range pods {
		if err := p.Announce([]Prefix{vip}, nil); err != nil {
			t.Fatal(err)
		}
	}
	waitForT(t, "switch learns VIP", func() bool { return sw.RIB().Len() == 1 })
	if proxy.AdvertisedCount() != 1 {
		t.Fatalf("advertised = %d", proxy.AdvertisedCount())
	}
	rt, ok := sw.RIB().Best(vip)
	if !ok {
		t.Fatal("VIP missing at switch")
	}
	// eBGP from proxy: AS path = [proxy AS].
	if len(rt.Attrs.ASPath) != 1 || rt.Attrs.ASPath[0] != 64512 {
		t.Fatalf("as path = %v", rt.Attrs.ASPath)
	}

	// First two pods withdraw: still advertised.
	pods[0].Withdraw([]Prefix{vip})
	pods[1].Withdraw([]Prefix{vip})
	time.Sleep(50 * time.Millisecond)
	if sw.RIB().Len() != 1 {
		t.Fatal("VIP withdrawn while a pod still advertises")
	}

	// Last pod withdraws: gone.
	pods[2].Withdraw([]Prefix{vip})
	waitForT(t, "switch withdraws VIP", func() bool { return sw.RIB().Len() == 0 })
}

func TestProxyPodDeathWithdraws(t *testing.T) {
	sw, _, pods := buildProxySetup(t, 2)
	vipShared := pfx(203, 0, 113, 0, 24)
	vipSolo := pfx(198, 51, 100, 0, 24)
	pods[0].Announce([]Prefix{vipShared, vipSolo}, nil)
	pods[1].Announce([]Prefix{vipShared}, nil)
	waitForT(t, "both VIPs at switch", func() bool { return sw.RIB().Len() == 2 })

	// Pod 0 dies without withdrawing. Its solo VIP must disappear; the
	// shared VIP survives via pod 1.
	pods[0].Close()
	waitForT(t, "solo VIP withdrawn", func() bool { return sw.RIB().Len() == 1 })
	if _, ok := sw.RIB().Best(vipShared); !ok {
		t.Fatal("shared VIP lost on pod death")
	}
}

func TestProxyRejectsIBGPUpstream(t *testing.T) {
	upA, _ := newBufConnPair()
	if _, err := NewProxy(upA, 65000, 65000, 1); err == nil {
		t.Fatal("iBGP upstream accepted")
	}
}

func TestSwitchRejectsIBGPPeer(t *testing.T) {
	sw := NewSwitch(65000, 1)
	ca, cb := newBufConnPair()
	peer := NewSpeaker(ca, SpeakerConfig{AS: 65000, RouterID: 2}) // same AS as switch
	var wg sync.WaitGroup
	var swErr error
	wg.Add(2)
	go func() { defer wg.Done(); _ = peer.Start() }()
	go func() { defer wg.Done(); _, swErr = sw.AcceptPeer(cb) }()
	wg.Wait()
	if swErr == nil {
		t.Fatal("switch accepted iBGP peer")
	}
	peer.Close()
}

func TestSwitchPeerTracking(t *testing.T) {
	sw, _, _ := buildProxySetup(t, 1)
	if n := sw.PeerCount(); n != 1 {
		t.Fatalf("switch tracks %d peers behind one proxy, want 1", n)
	}
}

func TestPeerMathFig7(t *testing.T) {
	// The paper's deployment: 32 servers per switch, 4 pods each, dual
	// proxies.
	m := PeerMath{Servers: 32, PodsPerServer: 4, ProxiesPerSrv: 2}
	if m.SwitchPeersDirect() != 128 {
		t.Fatalf("direct = %d", m.SwitchPeersDirect())
	}
	if m.SwitchPeersProxied() != 64 {
		t.Fatalf("proxied = %d", m.SwitchPeersProxied())
	}
	// Direct peering busts the 64-peer safe threshold; proxied fits.
	safe := DefaultConvergenceModel().SafePeers
	if m.SwitchPeersDirect() <= safe {
		t.Fatal("direct should exceed threshold")
	}
	if m.SwitchPeersProxied() > safe {
		t.Fatal("proxied should fit threshold")
	}
	// Default proxies.
	if (PeerMath{Servers: 4, PodsPerServer: 4}).SwitchPeersProxied() != 4 {
		t.Fatal("default 1 proxy per server")
	}
}

func TestConvergenceModel(t *testing.T) {
	m := DefaultConvergenceModel()
	if m.Converge(0) != 0 {
		t.Fatal("zero peers should converge instantly")
	}
	within := m.Converge(64)
	if within > 10*time.Second {
		t.Fatalf("64 peers converge in %v, want seconds", within)
	}
	over := m.Converge(128)
	if over < 10*time.Minute {
		t.Fatalf("128 peers converge in %v, paper says tens of minutes", over)
	}
	if m.Converge(65) <= within {
		t.Fatal("convergence must be monotone")
	}
}

func waitForT(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}
