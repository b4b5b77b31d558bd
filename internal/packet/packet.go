// Package packet holds the flow identity every simulated packet carries — a
// five-tuple of IPv4 addresses, protocol and ports — and the PLB meta
// trailer the FPGA NIC pipeline appends to every packet it sprays to the
// CPU. The simulator moves flows, not frames, so there is no wire codec.
package packet

import (
	"encoding/binary"
	"fmt"
)

// IPProtocol identifies the payload protocol of an IPv4 packet.
type IPProtocol uint8

// Supported IP protocol numbers.
const (
	IPProtocolICMP IPProtocol = 1
	IPProtocolTCP  IPProtocol = 6
	IPProtocolUDP  IPProtocol = 17
)

// IPv4Addr is an IPv4 address in host-independent 4-byte form.
type IPv4Addr [4]byte

func (a IPv4Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3])
}

// Uint32 returns the address as a big-endian uint32 (for LPM keys).
func (a IPv4Addr) Uint32() uint32 { return binary.BigEndian.Uint32(a[:]) }

// IPv4FromUint32 converts a big-endian uint32 to an address.
func IPv4FromUint32(v uint32) IPv4Addr {
	var a IPv4Addr
	binary.BigEndian.PutUint32(a[:], v)
	return a
}

// FiveTuple identifies a flow by (src, dst, proto, sport, dport). For
// non-TCP/UDP protocols the ports are zero.
type FiveTuple struct {
	Src, Dst     IPv4Addr
	Proto        IPProtocol
	SPort, DPort uint16
}

func (f FiveTuple) String() string {
	return fmt.Sprintf("%v:%d->%v:%d/%d", f.Src, f.SPort, f.Dst, f.DPort, f.Proto)
}

// Hash returns a 32-bit hash of the tuple (FNV-1a over the canonical
// 13-byte encoding). Both PLB order-queue selection and RSS indirection use
// this when Toeplitz hashing is not configured.
func (f FiveTuple) Hash() uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	mix := func(b byte) {
		h ^= uint32(b)
		h *= prime32
	}
	for _, b := range f.Src {
		mix(b)
	}
	for _, b := range f.Dst {
		mix(b)
	}
	mix(byte(f.Proto))
	mix(byte(f.SPort >> 8))
	mix(byte(f.SPort))
	mix(byte(f.DPort >> 8))
	mix(byte(f.DPort))
	// Murmur3-style finalizer: FNV-1a alone avalanches poorly in the low
	// bits for correlated inputs (sequential tenant addresses), which would
	// skew queue/bucket selection.
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	h *= 0xc2b2ae35
	h ^= h >> 16
	return h
}
