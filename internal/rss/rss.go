// Package rss implements Receive Side Scaling: the flow-level load
// balancing baseline that Albatross's packet-level load balancing (PLB) is
// evaluated against.
//
// RSS hashes the five-tuple with the Microsoft Toeplitz hash and maps the
// result through an indirection table to a queue/core. All packets of a
// flow land on one core — which preserves order for free but lets a single
// heavy-hitter flow overload one core (the paper's Fig. 8 failure mode).
package rss

import (
	"albatross/internal/errs"
	"fmt"

	"albatross/internal/packet"
)

// DefaultKey is the canonical 40-byte Microsoft RSS key used across driver
// ecosystems (and in the Microsoft RSS verification suite).
var DefaultKey = [40]byte{
	0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2,
	0x41, 0x67, 0x25, 0x3d, 0x43, 0xa3, 0x8f, 0xb0,
	0xd0, 0xca, 0x2b, 0xcb, 0xae, 0x7b, 0x30, 0xb4,
	0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30, 0xf2, 0x0c,
	0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa,
}

// Toeplitz computes the Toeplitz hash of input under key. The hash of the
// i-th input bit, when set, XORs in the 32-bit window of the key starting
// at bit i.
func Toeplitz(key []byte, input []byte) uint32 {
	var result uint32
	// window holds the next 32 key bits aligned at the current input bit.
	if len(key) < 4 {
		return 0
	}
	window := uint32(key[0])<<24 | uint32(key[1])<<16 | uint32(key[2])<<8 | uint32(key[3])
	keyBit := 32 // index of the next key bit to shift in
	for _, b := range input {
		for bit := 7; bit >= 0; bit-- {
			if b&(1<<uint(bit)) != 0 {
				result ^= window
			}
			// Slide the window one bit.
			window <<= 1
			if keyBit < len(key)*8 {
				if key[keyBit/8]&(1<<uint(7-keyBit%8)) != 0 {
					window |= 1
				}
			}
			keyBit++
		}
	}
	return result
}

// HashTCPv4 computes the RSS hash for an IPv4/TCP (or UDP) flow:
// concat(srcIP, dstIP, srcPort, dstPort) per the Microsoft RSS spec.
func HashTCPv4(key []byte, f packet.FiveTuple) uint32 {
	var input [12]byte
	copy(input[0:4], f.Src[:])
	copy(input[4:8], f.Dst[:])
	input[8] = byte(f.SPort >> 8)
	input[9] = byte(f.SPort)
	input[10] = byte(f.DPort >> 8)
	input[11] = byte(f.DPort)
	return Toeplitz(key, input[:])
}

// HashIPv4 computes the 2-tuple RSS hash (srcIP, dstIP) used for non-TCP/UDP
// traffic.
func HashIPv4(key []byte, src, dst packet.IPv4Addr) uint32 {
	var input [8]byte
	copy(input[0:4], src[:])
	copy(input[4:8], dst[:])
	return Toeplitz(key, input[:])
}

// Engine is a configured RSS unit: key + indirection table.
type Engine struct {
	key   [40]byte
	table []int // indirection table: hash LSBs -> queue index
}

// NewEngine creates an RSS engine spreading across nQueues with an
// indirection table of tableSize entries (power of two; 128 is the common
// hardware default).
func NewEngine(nQueues, tableSize int) (*Engine, error) {
	if nQueues <= 0 {
		return nil, fmt.Errorf("rss: nQueues %d must be positive: %w", nQueues, errs.BadConfig)
	}
	if tableSize <= 0 {
		tableSize = 128
	}
	if tableSize&(tableSize-1) != 0 {
		return nil, fmt.Errorf("rss: table size %d must be a power of two: %w", tableSize, errs.BadConfig)
	}
	e := &Engine{key: DefaultKey, table: make([]int, tableSize)}
	for i := range e.table {
		e.table[i] = i % nQueues
	}
	return e, nil
}

// Queue returns the RX queue for a flow.
func (e *Engine) Queue(f packet.FiveTuple) int {
	var h uint32
	if f.Proto == packet.IPProtocolTCP || f.Proto == packet.IPProtocolUDP {
		h = HashTCPv4(e.key[:], f)
	} else {
		h = HashIPv4(e.key[:], f.Src, f.Dst)
	}
	return e.table[h&uint32(len(e.table)-1)]
}
