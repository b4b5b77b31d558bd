// BGP proxy demo over real TCP on loopback (the paper's Fig. 7): a mock
// uplink switch, the BGP proxy pod, and three gateway pods. The pods speak
// iBGP to the proxy; the switch maintains ONE eBGP peer instead of three.
// A pod failover (BGP-graceful gateway migration, paper §7) is shown at
// the end: a replacement pod advertises the VIP before the old pod
// withdraws, so the switch always has a route.
package main

import (
	"fmt"
	"log"
	"net"
	"time"

	"albatross"
	"albatross/internal/bgp"
	"albatross/internal/packet"
)

func main() {
	// ---- Uplink switch (AS 65000) -----------------------------------
	swLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer swLn.Close()
	sw := bgp.NewSwitch(65000, 0xffff0001)
	go sw.Serve(swLn)

	// ---- BGP proxy pod (AS 64512) ------------------------------------
	upConn, err := net.Dial("tcp", swLn.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	proxy, err := albatross.NewProxy(upConn, 64512, 65000, 0xaa000001)
	if err != nil {
		log.Fatal(err)
	}
	podLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer podLn.Close()
	go proxy.Serve(podLn, nil)
	fmt.Printf("switch at %v, proxy upstream established\n", swLn.Addr())

	// ---- Three GW pods advertise one VIP -----------------------------
	vip := albatross.BGPPrefix{Addr: packet.IPv4Addr{203, 0, 113, 0}, Len: 24}
	newPod := func(id uint32) *albatross.BGPSpeaker {
		conn, err := net.Dial("tcp", podLn.Addr().String())
		if err != nil {
			log.Fatal(err)
		}
		sp := albatross.NewSpeaker(conn, albatross.BGPSpeakerConfig{
			AS: 64512, RouterID: id, PeerAS: 64512,
		})
		if err := sp.Start(); err != nil {
			log.Fatal(err)
		}
		return sp
	}
	pods := []*albatross.BGPSpeaker{newPod(101), newPod(102), newPod(103)}
	for i, p := range pods {
		if err := p.Announce([]albatross.BGPPrefix{vip}, nil); err != nil {
			log.Fatal(err)
		}
		_ = i
	}
	waitFor(func() bool { return sw.RIB().Len() == 1 })
	best, _ := sw.RIB().Best(vip)
	fmt.Printf("3 pods advertise %v -> switch sees %d peer and %d route, AS path %v\n",
		vip, sw.PeerCount(), sw.RIB().Len(), best.Attrs.ASPath)

	// ---- Graceful gateway migration (paper §7) ------------------------
	// The replacement pod advertises FIRST, then the old pods withdraw:
	// the VIP never disappears from the switch.
	fmt.Println("migrating: new pod advertises before old pods withdraw ...")
	replacement := newPod(200)
	if err := replacement.Announce([]albatross.BGPPrefix{vip}, nil); err != nil {
		log.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	for _, p := range pods {
		p.Withdraw([]albatross.BGPPrefix{vip})
	}
	deadline := time.Now().Add(2 * time.Second)
	lost := false
	for time.Now().Before(deadline) {
		if sw.RIB().Len() == 0 {
			lost = true
			break
		}
		if proxy.AdvertisedCount() == 1 && proxy.PodCount() == 4 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if lost {
		fmt.Println("ERROR: VIP disappeared during migration")
	} else {
		fmt.Println("VIP stayed reachable throughout the migration")
	}

	for _, p := range pods {
		p.Close()
	}
	replacement.Close()
	proxy.Close()
	sw.Close()
	fmt.Println("done")
}

func waitFor(cond func() bool) {
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) && !cond() {
		time.Sleep(5 * time.Millisecond)
	}
}
