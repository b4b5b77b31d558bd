package packet

import (
	"encoding/binary"
	"errors"
)

// Meta is the PLB meta header the FPGA NIC pipeline attaches to every data
// packet before DMA-ing it to a CPU core, and which the GW pod returns with
// the packet so plb_reorder can restore order and release resources.
//
// Per §7 of the paper ("Performance optimization with PLB meta header"),
// the meta rides at the *packet tail*: gateway code never touches packet
// tails, so tail placement avoids both the encap/decap headroom conflicts
// and the 33.6% copy overhead of stashing the meta in driver private space.
//
// Wire layout (16 bytes, big-endian):
//
//	0:2   magic 0xA1BA ("ALBAtross")
//	2:4   PSN (16-bit packet sequence number; legal check uses low 12 bits)
//	4:5   order-preserving queue index
//	5:6   flags (drop, header-only, priority)
//	6:8   pod ID
//	8:16  ingress timestamp (virtual ns) for timeout determination
type Meta struct {
	PSN       uint16
	OrdQ      uint8
	Flags     MetaFlags
	PodID     uint16
	IngressNS int64
}

// MetaFlags is the PLB meta flag byte.
type MetaFlags uint8

// Meta flags.
const (
	// MetaFlagDrop is set by the GW pod when rate limiting or ACL rules
	// dropped the packet: plb_reorder must release the FIFO/BUF/BITMAP
	// resources instead of waiting for the 100 µs timeout (HOL avoidance).
	MetaFlagDrop MetaFlags = 1 << iota
	// MetaFlagHeaderOnly marks header-payload-split delivery: only the
	// header crossed PCIe; the payload is parked in the NIC payload buffer.
	MetaFlagHeaderOnly
	// MetaFlagPriority marks protocol packets (BGP/BFD) that ride the
	// dedicated priority queues.
	MetaFlagPriority
)

// MetaLen is the encoded size of the meta trailer.
const MetaLen = 16

// metaMagic guards against stripping a trailer from a packet that has none.
const metaMagic = 0xA1BA

// ErrNoMeta reports that a packet does not end in a valid meta trailer.
var ErrNoMeta = errors.New("packet: no PLB meta trailer")

// AppendMeta appends the encoded meta trailer to pkt and returns the
// extended slice (may reallocate, like append).
func AppendMeta(pkt []byte, m *Meta) []byte {
	var b [MetaLen]byte
	binary.BigEndian.PutUint16(b[0:2], metaMagic)
	binary.BigEndian.PutUint16(b[2:4], m.PSN)
	b[4] = m.OrdQ
	b[5] = uint8(m.Flags)
	binary.BigEndian.PutUint16(b[6:8], m.PodID)
	binary.BigEndian.PutUint64(b[8:16], uint64(m.IngressNS))
	return append(pkt, b[:]...)
}

// StripMeta decodes and removes the meta trailer from pkt, returning the
// packet body. It fails if the trailer is missing or corrupt.
func StripMeta(pkt []byte, m *Meta) ([]byte, error) {
	if len(pkt) < MetaLen {
		return nil, ErrNoMeta
	}
	tail := pkt[len(pkt)-MetaLen:]
	if binary.BigEndian.Uint16(tail[0:2]) != metaMagic {
		return nil, ErrNoMeta
	}
	m.PSN = binary.BigEndian.Uint16(tail[2:4])
	m.OrdQ = tail[4]
	m.Flags = MetaFlags(tail[5])
	m.PodID = binary.BigEndian.Uint16(tail[6:8])
	m.IngressNS = int64(binary.BigEndian.Uint64(tail[8:16]))
	return pkt[:len(pkt)-MetaLen], nil
}
