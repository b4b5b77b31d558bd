package packet

import "encoding/binary"

// This file implements Geneve (RFC 8926), one of the encapsulations §2.1 of
// the paper calls out as *impossible to add* on the Tofino-based Sailfish
// gateway (97% PHV utilization). On Albatross the parser runs in software,
// so adding it is a code change — which is precisely the platform's
// extensibility argument.

// GenevePort is the IANA-assigned UDP destination port for Geneve.
const GenevePort = 6081

// Geneve is a Geneve header (RFC 8926).
type Geneve struct {
	Version  uint8 // 2 bits
	OAM      bool  // O: control packet
	Critical bool  // C: critical options present
	Protocol EtherType
	VNI      uint32 // 24 bits
	// Options holds the raw variable-length options (multiple of 4 bytes).
	Options []byte
}

// GeneveMinLen is the encoded size of an option-less Geneve header.
const GeneveMinLen = 8

// DecodeFromBytes parses a Geneve header from data.
func (g *Geneve) DecodeFromBytes(data []byte) (int, error) {
	if len(data) < GeneveMinLen {
		return 0, ErrTooShort
	}
	g.Version = data[0] >> 6
	if g.Version != 0 {
		return 0, ErrBadVersion
	}
	optLen := int(data[0]&0x3f) * 4
	g.OAM = data[1]&0x80 != 0
	g.Critical = data[1]&0x40 != 0
	g.Protocol = EtherType(binary.BigEndian.Uint16(data[2:4]))
	g.VNI = uint32(data[4])<<16 | uint32(data[5])<<8 | uint32(data[6])
	total := GeneveMinLen + optLen
	if len(data) < total {
		return 0, ErrTooShort
	}
	if optLen > 0 {
		g.Options = data[GeneveMinLen:total]
	} else {
		g.Options = nil
	}
	return total, nil
}

// SerializeTo writes the header into b.
func (g *Geneve) SerializeTo(b []byte) (int, error) {
	if len(g.Options)%4 != 0 {
		return 0, ErrBadLength
	}
	total := GeneveMinLen + len(g.Options)
	if len(b) < total {
		return 0, ErrTooShort
	}
	b[0] = byte(len(g.Options) / 4) // version 0
	b[1] = 0
	if g.OAM {
		b[1] |= 0x80
	}
	if g.Critical {
		b[1] |= 0x40
	}
	binary.BigEndian.PutUint16(b[2:4], uint16(g.Protocol))
	b[4] = byte(g.VNI >> 16)
	b[5] = byte(g.VNI >> 8)
	b[6] = byte(g.VNI)
	b[7] = 0
	copy(b[GeneveMinLen:], g.Options)
	return total, nil
}

// GeneveOption is one TLV option.
type GeneveOption struct {
	Class uint16
	Type  uint8
	Data  []byte // length must be a multiple of 4
}

// AppendGeneveOption encodes an option TLV onto opts.
func AppendGeneveOption(opts []byte, o GeneveOption) ([]byte, error) {
	if len(o.Data)%4 != 0 || len(o.Data) > 124 {
		return nil, ErrBadLength
	}
	var hdr [4]byte
	binary.BigEndian.PutUint16(hdr[0:2], o.Class)
	hdr[2] = o.Type
	hdr[3] = byte(len(o.Data) / 4)
	opts = append(opts, hdr[:]...)
	return append(opts, o.Data...), nil
}

// ParseGeneveOptions decodes all TLVs from an options region.
func ParseGeneveOptions(opts []byte) ([]GeneveOption, error) {
	var out []GeneveOption
	for len(opts) > 0 {
		if len(opts) < 4 {
			return nil, ErrTooShort
		}
		length := int(opts[3]&0x1f) * 4
		if len(opts) < 4+length {
			return nil, ErrTooShort
		}
		out = append(out, GeneveOption{
			Class: binary.BigEndian.Uint16(opts[0:2]),
			Type:  opts[2],
			Data:  opts[4 : 4+length],
		})
		opts = opts[4+length:]
	}
	return out, nil
}
