// Command bgp-proxy runs Albatross's BGP proxy over real TCP sockets: GW
// pods connect to it with iBGP and it maintains a single eBGP session to
// the uplink switch (paper §5, Fig. 7), reference-counting VIP
// advertisements across pods.
//
// Modes:
//
//	bgp-proxy -upstream host:179 -listen :1790 -as 64512 -switch-as 65000
//	    Production shape: dial the switch, accept pod sessions.
//
//	bgp-proxy -demo
//	    Self-contained demo on loopback: starts a mock switch, the proxy,
//	    and four pods; each pod advertises a shared VIP plus its own
//	    prefix; one pod is killed to show the withdraw path.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"albatross/internal/bgp"
	"albatross/internal/packet"
)

func main() {
	var (
		demo     = flag.Bool("demo", false, "run the self-contained loopback demo")
		upstream = flag.String("upstream", "", "switch address to dial for the eBGP session")
		listen   = flag.String("listen", ":1790", "address to accept pod iBGP sessions on")
		localAS  = flag.Uint("as", 64512, "proxy (and pod) AS number")
		switchAS = flag.Uint("switch-as", 65000, "uplink switch AS number")
		routerID = flag.Uint("router-id", 0xaa000001, "proxy BGP router ID")
	)
	flag.Parse()

	if *demo {
		if err := runDemo(); err != nil {
			fmt.Fprintln(os.Stderr, "demo:", err)
			os.Exit(1)
		}
		return
	}

	if *upstream == "" {
		fmt.Fprintln(os.Stderr, "need -upstream (or -demo)")
		os.Exit(2)
	}
	upConn, err := net.Dial("tcp", *upstream)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dial switch:", err)
		os.Exit(1)
	}
	proxy, err := bgp.NewProxy(upConn, uint16(*localAS), uint16(*switchAS), uint32(*routerID))
	if err != nil {
		fmt.Fprintln(os.Stderr, "upstream session:", err)
		os.Exit(1)
	}
	fmt.Printf("eBGP session established to %s (AS %d)\n", *upstream, *switchAS)

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "listen:", err)
		os.Exit(1)
	}
	fmt.Printf("accepting pod iBGP sessions on %s (AS %d)\n", *listen, *localAS)
	for {
		conn, err := ln.Accept()
		if err != nil {
			fmt.Fprintln(os.Stderr, "accept:", err)
			os.Exit(1)
		}
		go func(c net.Conn) {
			if _, err := proxy.ServePod(c); err != nil {
				fmt.Fprintf(os.Stderr, "pod %v: %v\n", c.RemoteAddr(), err)
				return
			}
			fmt.Printf("pod session established from %v (pods=%d)\n",
				c.RemoteAddr(), proxy.PodCount())
		}(conn)
	}
}

func runDemo() error {
	// Mock uplink switch on loopback.
	swLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer swLn.Close()
	sw := bgp.NewSwitch(65000, 0xffff0001)
	go sw.Serve(swLn)

	// Proxy dials the switch.
	upConn, err := net.Dial("tcp", swLn.Addr().String())
	if err != nil {
		return err
	}
	proxy, err := bgp.NewProxy(upConn, 64512, 65000, 0xaa000001)
	if err != nil {
		return err
	}
	fmt.Printf("proxy: eBGP up to switch at %v\n", swLn.Addr())

	// Proxy's pod listener.
	podLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer podLn.Close()
	go proxy.Serve(podLn)

	// Four GW pods dial the proxy over iBGP and advertise routes.
	vip := bgp.Prefix{Addr: packet.IPv4Addr{203, 0, 113, 0}, Len: 24}
	var pods []*bgp.Speaker
	for i := 0; i < 4; i++ {
		conn, err := net.Dial("tcp", podLn.Addr().String())
		if err != nil {
			return err
		}
		sp := bgp.NewSpeaker(conn, bgp.SpeakerConfig{
			AS: 64512, RouterID: uint32(100 + i), PeerAS: 64512,
		})
		if err := sp.Start(); err != nil {
			return fmt.Errorf("pod %d: %w", i, err)
		}
		own := bgp.Prefix{Addr: packet.IPv4Addr{198, 51, 100, byte(i * 16)}, Len: 28}
		if err := sp.Announce([]bgp.Prefix{vip, own}, nil); err != nil {
			return err
		}
		pods = append(pods, sp)
		fmt.Printf("pod %d: iBGP up, advertised %v and %v\n", i, vip, own)
	}

	waitRoutes := func(want int, what string) {
		for i := 0; i < 500; i++ {
			if sw.RIB().Len() == want {
				fmt.Printf("switch RIB: %d prefixes after %s (peers=%d)\n",
					sw.RIB().Len(), what, sw.PeerCount())
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		fmt.Printf("switch RIB: %d prefixes (expected %d) after %s\n",
			sw.RIB().Len(), want, what)
	}
	// 1 shared VIP + 4 per-pod prefixes, but only ONE switch peer.
	waitRoutes(5, "initial advertisement")
	fmt.Printf("Fig.7 effect: 4 pods, switch sees %d BGP peer(s)\n", sw.PeerCount())

	// Kill pod 3: its own prefix is withdrawn; the shared VIP survives.
	fmt.Println("killing pod 3 ...")
	pods[3].Close()
	waitRoutes(4, "pod 3 death")

	for _, p := range sw.RIB().Prefixes() {
		rt, _ := sw.RIB().Best(p)
		fmt.Printf("  route %v via AS path %v\n", p, rt.Attrs.ASPath)
	}

	for _, sp := range pods[:3] {
		sp.Close()
	}
	proxy.Close()
	sw.Close()
	fmt.Println("demo complete")
	return nil
}
