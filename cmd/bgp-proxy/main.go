// Command bgp-proxy runs Albatross's BGP proxy over real TCP sockets: GW
// pods connect to it with iBGP and it maintains a single eBGP session to
// the uplink switch (paper §5, Fig. 7), reference-counting VIP
// advertisements across pods.
//
// It dials the switch, then accepts pod sessions:
//
//	bgp-proxy -upstream host:179 -listen :1790 -as 64512 -switch-as 65000
//
// examples/bgpproxy runs the same stack on loopback, with a mock switch and
// pods, and shows a make-before-break migration.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"

	"albatross/internal/bgp"
)

func main() {
	var (
		upstream = flag.String("upstream", "", "switch address to dial for the eBGP session")
		listen   = flag.String("listen", ":1790", "address to accept pod iBGP sessions on")
		localAS  = flag.Uint("as", 64512, "proxy (and pod) AS number")
		switchAS = flag.Uint("switch-as", 65000, "uplink switch AS number")
		routerID = flag.Uint("router-id", 0xaa000001, "proxy BGP router ID")
	)
	flag.Parse()

	if *upstream == "" {
		fmt.Fprintln(os.Stderr, "need -upstream")
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
	err = proxy.Serve(ln, func(c net.Conn, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "pod %v: %v\n", c.RemoteAddr(), err)
			return
		}
		fmt.Printf("pod session established from %v (pods=%d)\n",
			c.RemoteAddr(), proxy.PodCount())
	})
	fmt.Fprintln(os.Stderr, "accept:", err)
	os.Exit(1)
}
