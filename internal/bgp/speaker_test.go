package bgp

import (
	"net"
	"sync"
	"testing"
	"time"

	"albatross/internal/packet"
)

// startPair establishes a session between two speakers over a buffered
// in-memory conn and returns both established speakers.
func startPair(t *testing.T, a, b SpeakerConfig) (*Speaker, *Speaker) {
	t.Helper()
	ca, cb := newBufConnPair()
	sa := NewSpeaker(ca, a)
	sb := NewSpeaker(cb, b)
	var wg sync.WaitGroup
	var errA, errB error
	wg.Add(2)
	go func() { defer wg.Done(); errA = sa.Start() }()
	go func() { defer wg.Done(); errB = sb.Start() }()
	wg.Wait()
	if errA != nil || errB != nil {
		t.Fatalf("handshake: %v / %v", errA, errB)
	}
	t.Cleanup(func() {
		sa.Close()
		sb.Close()
	})
	return sa, sb
}

func waitFor(t *testing.T, what string, cond func() bool) {
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

func TestHandshakeEstablishes(t *testing.T) {
	established := make(chan struct{}, 2)
	sa, sb := startPair(t,
		SpeakerConfig{AS: 65001, RouterID: 1, OnEstablished: func() { established <- struct{}{} }},
		SpeakerConfig{AS: 65002, RouterID: 2, OnEstablished: func() { established <- struct{}{} }},
	)
	if sa.State() != StateEstablished || sb.State() != StateEstablished {
		t.Fatalf("states: %v / %v", sa.State(), sb.State())
	}
	if sa.PeerAS() != 65002 || sb.PeerAS() != 65001 {
		t.Fatalf("peer AS: %d / %d", sa.PeerAS(), sb.PeerAS())
	}
	if sa.PeerRouterID() != 2 || sb.PeerRouterID() != 1 {
		t.Fatal("peer router IDs wrong")
	}
	if sa.IsIBGP() || sb.IsIBGP() {
		t.Fatal("different-AS session classified iBGP")
	}
	<-established
	<-established
}

func TestIBGPDetection(t *testing.T) {
	sa, sb := startPair(t,
		SpeakerConfig{AS: 65001, RouterID: 1},
		SpeakerConfig{AS: 65001, RouterID: 2},
	)
	if !sa.IsIBGP() || !sb.IsIBGP() {
		t.Fatal("same-AS session not iBGP")
	}
}

func TestPeerASEnforcement(t *testing.T) {
	ca, cb := newBufConnPair()
	sa := NewSpeaker(ca, SpeakerConfig{AS: 65001, RouterID: 1, PeerAS: 65099})
	sb := NewSpeaker(cb, SpeakerConfig{AS: 65002, RouterID: 2})
	var wg sync.WaitGroup
	var errA error
	wg.Add(2)
	go func() { defer wg.Done(); errA = sa.Start() }()
	go func() { defer wg.Done(); _ = sb.Start() }()
	wg.Wait()
	if errA == nil {
		t.Fatal("wrong peer AS accepted")
	}
	sa.Close()
	sb.Close()
}

func TestAnnounceAndLearn(t *testing.T) {
	type routeEvent struct {
		p         Prefix
		withdrawn bool
	}
	var mu sync.Mutex
	var events []routeEvent
	sa, sb := startPair(t,
		SpeakerConfig{AS: 65001, RouterID: 1, NextHop: packet.IPv4Addr{10, 0, 0, 1}},
		SpeakerConfig{AS: 65002, RouterID: 2, OnRoute: func(p Prefix, a PathAttrs, w bool) {
			mu.Lock()
			events = append(events, routeEvent{p, w})
			mu.Unlock()
		}},
	)
	vip := pfx(203, 0, 113, 0, 24)
	if err := sa.Announce([]Prefix{vip}, nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "route learned", func() bool { return sb.AdjIn().Len() == 1 })

	rt, ok := sb.AdjIn().Best(vip)
	if !ok {
		t.Fatal("route missing from adj-rib-in")
	}
	// eBGP: AS prepended, next-hop-self.
	if len(rt.Attrs.ASPath) != 1 || rt.Attrs.ASPath[0] != 65001 {
		t.Fatalf("as path = %v", rt.Attrs.ASPath)
	}
	if rt.Attrs.NextHop != (packet.IPv4Addr{10, 0, 0, 1}) {
		t.Fatalf("next hop = %v", rt.Attrs.NextHop)
	}
	if rt.PeerID != 1 {
		t.Fatalf("peer ID = %d", rt.PeerID)
	}

	// Withdraw.
	if err := sa.Withdraw([]Prefix{vip}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "route withdrawn", func() bool { return sb.AdjIn().Len() == 0 })

	mu.Lock()
	defer mu.Unlock()
	if len(events) != 2 || events[0].withdrawn || !events[1].withdrawn {
		t.Fatalf("events = %+v", events)
	}
}

func TestIBGPAnnounceCarriesLocalPref(t *testing.T) {
	sa, sb := startPair(t,
		SpeakerConfig{AS: 65001, RouterID: 1},
		SpeakerConfig{AS: 65001, RouterID: 2},
	)
	vip := pfx(198, 51, 100, 0, 24)
	if err := sa.Announce([]Prefix{vip}, nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "ibgp route", func() bool { return sb.AdjIn().Len() == 1 })
	rt, _ := sb.AdjIn().Best(vip)
	if !rt.Attrs.HasLP || rt.Attrs.LocalPref != 100 {
		t.Fatalf("local pref = %+v", rt.Attrs)
	}
	// iBGP must not prepend own AS.
	if len(rt.Attrs.ASPath) != 0 {
		t.Fatalf("as path = %v", rt.Attrs.ASPath)
	}
}

func TestAnnounceViaPathPropagates(t *testing.T) {
	sa, sb := startPair(t,
		SpeakerConfig{AS: 65001, RouterID: 1},
		SpeakerConfig{AS: 65002, RouterID: 2},
	)
	vip := pfx(192, 0, 2, 0, 24)
	if err := sa.Announce([]Prefix{vip}, []uint16{65100, 65200}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "route", func() bool { return sb.AdjIn().Len() == 1 })
	rt, _ := sb.AdjIn().Best(vip)
	want := []uint16{65001, 65100, 65200}
	if len(rt.Attrs.ASPath) != 3 {
		t.Fatalf("as path = %v", rt.Attrs.ASPath)
	}
	for i, as := range want {
		if rt.Attrs.ASPath[i] != as {
			t.Fatalf("as path = %v, want %v", rt.Attrs.ASPath, want)
		}
	}
}

func TestAnnounceBeforeEstablishedFails(t *testing.T) {
	ca, _ := newBufConnPair()
	s := NewSpeaker(ca, SpeakerConfig{AS: 1, RouterID: 1})
	if err := s.Announce([]Prefix{pfx(10, 0, 0, 0, 8)}, nil); err == nil {
		t.Fatal("announce in idle state succeeded")
	}
	if err := s.Withdraw([]Prefix{pfx(10, 0, 0, 0, 8)}); err == nil {
		t.Fatal("withdraw in idle state succeeded")
	}
}

func TestGracefulCloseNotifiesPeer(t *testing.T) {
	downErr := make(chan error, 1)
	sa, sb := startPair(t,
		SpeakerConfig{AS: 65001, RouterID: 1},
		SpeakerConfig{AS: 65002, RouterID: 2, OnDown: func(err error) { downErr <- err }},
	)
	sa.Close()
	select {
	case err := <-downErr:
		if n, ok := err.(Notification); !ok || n.Code != NotifCease {
			t.Fatalf("peer down reason = %v, want CEASE notification", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("peer never saw the session go down")
	}
	waitFor(t, "peer closed", func() bool { return sb.State() == StateClosed })
}

func TestKeepalivesMaintainSession(t *testing.T) {
	// Very short hold time: the session must survive well beyond it thanks
	// to keepalives.
	sa, sb := startPair(t,
		SpeakerConfig{AS: 65001, RouterID: 1, HoldTime: 150 * time.Millisecond},
		SpeakerConfig{AS: 65002, RouterID: 2, HoldTime: 150 * time.Millisecond},
	)
	time.Sleep(500 * time.Millisecond)
	if sa.State() != StateEstablished || sb.State() != StateEstablished {
		t.Fatalf("session died despite keepalives: %v/%v err=%v/%v",
			sa.State(), sb.State(), sa.Err(), sb.Err())
	}
}

func TestStateStrings(t *testing.T) {
	for st, want := range map[State]string{
		StateIdle: "idle", StateOpenSent: "open-sent", StateOpenConfirm: "open-confirm",
		StateEstablished: "established", StateClosed: "closed", State(99): "invalid",
	} {
		if st.String() != want {
			t.Errorf("%d = %q", st, st.String())
		}
	}
}

func TestHoldTimeNegotiation(t *testing.T) {
	sa, sb := startPair(t,
		SpeakerConfig{AS: 65001, RouterID: 1, HoldTime: 90 * time.Second},
		SpeakerConfig{AS: 65002, RouterID: 2, HoldTime: 30 * time.Second},
	)
	// RFC 4271: both sides use min(ours, peer's).
	if sa.HoldTime() != 30*time.Second || sb.HoldTime() != 30*time.Second {
		t.Fatalf("negotiated hold = %v / %v, want 30s", sa.HoldTime(), sb.HoldTime())
	}
}

func TestServeOverTCP(t *testing.T) {
	// Full live stack over loopback TCP: switch.Serve + proxy.Serve.
	swLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skip("no loopback networking:", err)
	}
	defer swLn.Close()
	sw := NewSwitch(65000, 1)
	go sw.Serve(swLn)
	defer sw.Close()

	upConn, err := net.Dial("tcp", swLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := NewProxy(upConn, 64512, 65000, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	podLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer podLn.Close()
	go proxy.Serve(podLn)

	conn, err := net.Dial("tcp", podLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	podSp := NewSpeaker(conn, SpeakerConfig{AS: 64512, RouterID: 100, PeerAS: 64512})
	if err := podSp.Start(); err != nil {
		t.Fatal(err)
	}
	defer podSp.Close()

	vip := pfx(203, 0, 113, 0, 24)
	if err := podSp.Announce([]Prefix{vip}, nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "route at switch over TCP", func() bool { return sw.RIB().Len() == 1 })
	if sw.PeerCount() != 1 {
		t.Fatalf("switch peers = %d", sw.PeerCount())
	}
}

// TestPumpReadsPastItsReader: an in-memory speaker's reader is 512 bytes, but
// Pump still drains an UPDATE several times that long, and the small
// messages around it, without blocking, and stops when the transport and the
// reader are both empty.
func TestPumpReadsPastItsReader(t *testing.T) {
	ca, cb := NewMemPipe()
	sa := NewSpeaker(ca, SpeakerConfig{AS: 65001, RouterID: 1, Manual: true})
	sb := NewSpeaker(cb, SpeakerConfig{AS: 65002, RouterID: 2, Manual: true})
	errB := make(chan error, 1)
	go func() { errB <- sb.Start() }()
	if err := sa.Start(); err != nil {
		t.Fatal(err)
	}
	if err := <-errB; err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sa.Close(); sb.Close() })

	many := make([]Prefix, 600) // 600 /24s: a 2.4 KB UPDATE
	for i := range many {
		many[i] = pfx(10, byte(i>>8), byte(i), 0, 24)
	}
	small := pfx(203, 0, 113, 0, 24)
	for _, ps := range [][]Prefix{{small}, many, {small}} {
		if err := sa.Announce(ps, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := sb.Pump(); err != nil {
		t.Fatal(err)
	}
	if got := sb.AdjIn().Len(); got != len(many)+1 {
		t.Fatalf("adj-rib-in holds %d routes, want %d", got, len(many)+1)
	}
	if n := sb.br.Buffered(); n != 0 || cb.ReadAvailable() != 0 {
		t.Fatalf("Pump left %d bytes buffered and %d on the transport", n, cb.ReadAvailable())
	}
}
