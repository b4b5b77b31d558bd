package albatross

import (
	"net"
	"sync"
	"testing"
	"time"

	"albatross/internal/bgp"
	"albatross/internal/packet"
)

// TestFullSystem ties the two planes together the way a deployed Albatross
// server runs: the dataplane (virtual-time node with two GW pods) and the
// control plane (real BGP over loopback TCP: pods -> proxy -> switch).
// A pod failure must withdraw only its routes while the VIP stays
// reachable through the surviving pod, and the surviving pod must keep
// forwarding.
func TestFullSystem(t *testing.T) {
	// ---------- control plane: switch <- proxy <- pods ----------
	swLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skip("no loopback networking:", err)
	}
	defer swLn.Close()
	sw := bgp.NewSwitch(65000, 0xffff0001)
	go sw.Serve(swLn)
	defer sw.Close()

	upConn, err := net.Dial("tcp", swLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := NewProxy(upConn, 64512, 65000, 0xaa000001)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	podLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer podLn.Close()
	go proxy.Serve(podLn, nil)

	newPodSpeaker := func(id uint32) *BGPSpeaker {
		conn, err := net.Dial("tcp", podLn.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		sp := NewSpeaker(conn, BGPSpeakerConfig{AS: 64512, RouterID: id, PeerAS: 64512})
		if err := sp.Start(); err != nil {
			t.Fatal(err)
		}
		return sp
	}

	// ---------- dataplane: one node, two pods ----------
	node, err := NewNode(NodeConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	flows := GenerateFlows(5000, 200, 7)
	sf := ServiceFlows(flows, 0)
	var pods []*PodRuntime
	var speakers []*BGPSpeaker
	vip := BGPPrefix{Addr: packet.IPv4Addr{203, 0, 113, 0}, Len: 24}
	for i := 0; i < 2; i++ {
		pr, err := node.AddPod(PodConfig{
			Spec: PodSpec{Name: string(rune('a' + i)), Service: VPCVPC,
				DataCores: 2, CtrlCores: 1},
			Flows: sf,
		})
		if err != nil {
			t.Fatal(err)
		}
		pods = append(pods, pr)
		sp := newPodSpeaker(uint32(100 + i))
		if err := sp.Announce([]BGPPrefix{vip}, nil); err != nil {
			t.Fatal(err)
		}
		speakers = append(speakers, sp)
	}

	waitRIB := func(want int, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if sw.RIB().Len() == want {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("timeout waiting for %s (rib=%d want=%d)", what, sw.RIB().Len(), want)
	}
	waitRIB(1, "initial VIP advertisement")
	if sw.PeerCount() != 1 {
		t.Fatalf("switch peers = %d, want 1 (proxy aggregation)", sw.PeerCount())
	}

	// The switch ECMPs the VIP's traffic across advertising pods: model as
	// round-robin across pods whose speaker is established.
	var mu sync.Mutex
	alive := []int{0, 1}
	rr := 0
	sink := func(f Flow, bytes int) {
		mu.Lock()
		idx := alive[rr%len(alive)]
		rr++
		mu.Unlock()
		pods[idx].Inject(f, bytes)
	}
	src := &Source{Flows: flows, Rate: ConstantRate(1e6), Seed: 8, Sink: sink}
	if err := src.Start(node.Engine); err != nil {
		t.Fatal(err)
	}
	node.RunFor(20 * Millisecond)
	if pods[0].Tx == 0 || pods[1].Tx == 0 {
		t.Fatalf("both pods should forward: %d / %d", pods[0].Tx, pods[1].Tx)
	}

	// ---------- pod 0 fails ----------
	speakers[0].Close() // session death, no graceful withdraw
	mu.Lock()
	alive = []int{1}
	mu.Unlock()

	// The VIP must survive via pod 1 (refcounted at the proxy).
	time.Sleep(100 * time.Millisecond)
	if sw.RIB().Len() != 1 {
		t.Fatalf("VIP lost after single-pod failure (rib=%d)", sw.RIB().Len())
	}

	before := pods[1].Tx
	node.RunFor(20 * Millisecond)
	if pods[1].Tx <= before {
		t.Fatal("surviving pod stopped forwarding")
	}
	if drops := pods[1].QueueDrops + pods[1].PLBDrops; drops != 0 {
		t.Fatalf("failover overloaded the surviving pod: %d drops", drops)
	}

	// ---------- last pod withdraws: VIP disappears ----------
	if err := speakers[1].Withdraw([]BGPPrefix{vip}); err != nil {
		t.Fatal(err)
	}
	waitRIB(0, "final withdraw")
	speakers[1].Close()
}
