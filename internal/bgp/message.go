// Package bgp implements the BGP-4 subset Albatross's containerized
// gateways use to advertise VIP routes to uplink switches, plus the BGP
// proxy (paper §5, Fig. 7) that collapses the m eBGP sessions of m GW pods
// into a single eBGP session per server, and a minimal BFD (RFC 5880)
// async-mode failure detector.
//
// The wire format follows RFC 4271: 19-byte header (16-byte all-ones
// marker, length, type) and OPEN / UPDATE / KEEPALIVE / NOTIFICATION
// messages with the ORIGIN, AS_PATH, NEXT_HOP and LOCAL_PREF path
// attributes. Sessions run over any net.Conn — net.Pipe in tests,
// localhost TCP in the bgp-proxy demo binary.
package bgp

import (
	"encoding/binary"
	"errors"
	"fmt"

	"albatross/internal/packet"
)

// Message types (RFC 4271 §4.1).
const (
	MsgOpen         = 1
	MsgUpdate       = 2
	MsgNotification = 3
	MsgKeepalive    = 4
)

// Protocol constants.
const (
	headerLen  = 19
	maxMsgLen  = 4096
	bgpVersion = 4
)

// Errors.
var (
	ErrBadMarker = errors.New("bgp: header marker not all-ones")
	ErrBadLength = errors.New("bgp: message length out of range")
	ErrTruncated = errors.New("bgp: truncated message")
	ErrBadType   = errors.New("bgp: unknown message type")
)

// Prefix is an IPv4 NLRI prefix.
type Prefix struct {
	Addr packet.IPv4Addr
	Len  uint8
}

func (p Prefix) String() string { return fmt.Sprintf("%v/%d", p.Addr, p.Len) }

// Canonical zeroes host bits beyond Len.
func (p Prefix) Canonical() Prefix {
	if p.Len >= 32 {
		p.Len = 32
		return p
	}
	mask := ^uint32(0) << (32 - p.Len)
	if p.Len == 0 {
		mask = 0
	}
	return Prefix{Addr: packet.IPv4FromUint32(p.Addr.Uint32() & mask), Len: p.Len}
}

// Open is a BGP OPEN message.
type Open struct {
	Version  uint8
	AS       uint16
	HoldTime uint16
	RouterID uint32
}

// Update is a BGP UPDATE message.
type Update struct {
	Withdrawn []Prefix
	Attrs     PathAttrs
	NLRI      []Prefix
}

// PathAttrs carries the path attributes this implementation understands.
type PathAttrs struct {
	Origin    uint8 // 0=IGP, 1=EGP, 2=INCOMPLETE
	ASPath    []uint16
	NextHop   packet.IPv4Addr
	LocalPref uint32 // 0 = unset
	HasLP     bool
}

// Notification is a BGP NOTIFICATION message.
type Notification struct {
	Code    uint8
	Subcode uint8
	Data    []byte
}

func (n Notification) Error() string {
	return fmt.Sprintf("bgp: notification code=%d subcode=%d", n.Code, n.Subcode)
}

// Notification error codes (RFC 4271 §4.5).
const (
	NotifMsgHeaderError   = 1
	NotifOpenError        = 2
	NotifUpdateError      = 3
	NotifHoldTimerExpired = 4
	NotifFSMError         = 5
	NotifCease            = 6
)

// Path attribute type codes.
const (
	attrOrigin    = 1
	attrASPath    = 2
	attrNextHop   = 3
	attrLocalPref = 5
)

// Path attribute flags.
const (
	flagTransitive = 0x40
	flagOptional   = 0x80
	flagExtLength  = 0x10 // a two-byte value length follows the type code
)

// appendHeader writes the 19-byte header for a body of length bodyLen.
func appendHeader(buf []byte, msgType uint8, bodyLen int) []byte {
	for i := 0; i < 16; i++ {
		buf = append(buf, 0xff)
	}
	total := headerLen + bodyLen
	buf = append(buf, byte(total>>8), byte(total), msgType)
	return buf
}

// EncodeOpen serializes an OPEN message.
func EncodeOpen(o Open) []byte {
	body := make([]byte, 10)
	body[0] = bgpVersion
	binary.BigEndian.PutUint16(body[1:3], o.AS)
	binary.BigEndian.PutUint16(body[3:5], o.HoldTime)
	binary.BigEndian.PutUint32(body[5:9], o.RouterID)
	body[9] = 0 // no optional parameters
	out := appendHeader(nil, MsgOpen, len(body))
	return append(out, body...)
}

// EncodeKeepalive serializes a KEEPALIVE message.
func EncodeKeepalive() []byte {
	return appendHeader(nil, MsgKeepalive, 0)
}

// EncodeNotification serializes a NOTIFICATION message.
func EncodeNotification(n Notification) []byte {
	out := appendHeader(nil, MsgNotification, 2+len(n.Data))
	out = append(out, n.Code, n.Subcode)
	return append(out, n.Data...)
}

// encodePrefixes writes NLRI-style (len, truncated addr) prefix encodings.
func encodePrefixes(buf []byte, prefixes []Prefix) []byte {
	for _, p := range prefixes {
		p = p.Canonical()
		buf = append(buf, p.Len)
		nbytes := int(p.Len+7) / 8
		buf = append(buf, p.Addr[:nbytes]...)
	}
	return buf
}

func decodePrefixes(data []byte) ([]Prefix, error) {
	var out []Prefix
	for len(data) > 0 {
		plen := data[0]
		if plen > 32 {
			return nil, fmt.Errorf("bgp: prefix length %d", plen)
		}
		nbytes := int(plen+7) / 8
		if len(data) < 1+nbytes {
			return nil, ErrTruncated
		}
		var addr packet.IPv4Addr
		copy(addr[:], data[1:1+nbytes])
		out = append(out, Prefix{Addr: addr, Len: plen})
		data = data[1+nbytes:]
	}
	return out, nil
}

// appendAttr writes one well-known transitive path attribute, with the
// extended (two-byte) length when its value passes 255 bytes.
func appendAttr(buf []byte, code uint8, val []byte) []byte {
	if len(val) > 255 {
		buf = append(buf, flagTransitive|flagExtLength, code, byte(len(val)>>8), byte(len(val)))
	} else {
		buf = append(buf, flagTransitive, code, byte(len(val)))
	}
	return append(buf, val...)
}

// EncodeUpdate serializes an UPDATE message.
func EncodeUpdate(u Update) []byte {
	withdrawn := encodePrefixes(nil, u.Withdrawn)

	var attrs []byte
	if len(u.NLRI) > 0 {
		attrs = appendAttr(attrs, attrOrigin, []byte{u.Attrs.Origin})
		// AS_PATH: AS_SEQUENCE segments of at most 255 ASes each; an empty
		// path is a zero-length value.
		var seg []byte
		for path := u.Attrs.ASPath; len(path) > 0; {
			n := min(len(path), 255)
			seg = append(seg, 2, byte(n))
			for _, as := range path[:n] {
				seg = append(seg, byte(as>>8), byte(as))
			}
			path = path[n:]
		}
		attrs = appendAttr(attrs, attrASPath, seg)
		attrs = appendAttr(attrs, attrNextHop, u.Attrs.NextHop[:])
		// LOCAL_PREF (iBGP)
		if u.Attrs.HasLP {
			attrs = appendAttr(attrs, attrLocalPref, binary.BigEndian.AppendUint32(nil, u.Attrs.LocalPref))
		}
	}

	nlri := encodePrefixes(nil, u.NLRI)

	bodyLen := 2 + len(withdrawn) + 2 + len(attrs) + len(nlri)
	out := appendHeader(nil, MsgUpdate, bodyLen)
	out = append(out, byte(len(withdrawn)>>8), byte(len(withdrawn)))
	out = append(out, withdrawn...)
	out = append(out, byte(len(attrs)>>8), byte(len(attrs)))
	out = append(out, attrs...)
	out = append(out, nlri...)
	return out
}

// DecodeHeader parses and validates a message header, returning the total
// message length and type.
func DecodeHeader(hdr []byte) (length int, msgType uint8, err error) {
	if len(hdr) < headerLen {
		return 0, 0, ErrTruncated
	}
	for i := 0; i < 16; i++ {
		if hdr[i] != 0xff {
			return 0, 0, ErrBadMarker
		}
	}
	length = int(binary.BigEndian.Uint16(hdr[16:18]))
	msgType = hdr[18]
	if length < headerLen || length > maxMsgLen {
		return 0, 0, ErrBadLength
	}
	if msgType < MsgOpen || msgType > MsgKeepalive {
		return 0, 0, ErrBadType
	}
	return length, msgType, nil
}

// DecodeOpen parses an OPEN body (after the header).
func DecodeOpen(body []byte) (Open, error) {
	if len(body) < 10 {
		return Open{}, ErrTruncated
	}
	o := Open{
		Version:  body[0],
		AS:       binary.BigEndian.Uint16(body[1:3]),
		HoldTime: binary.BigEndian.Uint16(body[3:5]),
		RouterID: binary.BigEndian.Uint32(body[5:9]),
	}
	if o.Version != bgpVersion {
		return o, fmt.Errorf("bgp: unsupported version %d", o.Version)
	}
	return o, nil
}

// DecodeUpdate parses an UPDATE body (after the header).
func DecodeUpdate(body []byte) (Update, error) {
	var u Update
	if len(body) < 2 {
		return u, ErrTruncated
	}
	wlen := int(binary.BigEndian.Uint16(body[0:2]))
	body = body[2:]
	if len(body) < wlen {
		return u, ErrTruncated
	}
	var err error
	u.Withdrawn, err = decodePrefixes(body[:wlen])
	if err != nil {
		return u, err
	}
	body = body[wlen:]

	if len(body) < 2 {
		return u, ErrTruncated
	}
	alen := int(binary.BigEndian.Uint16(body[0:2]))
	body = body[2:]
	if len(body) < alen {
		return u, ErrTruncated
	}
	attrs := body[:alen]
	body = body[alen:]

	for len(attrs) > 0 {
		if len(attrs) < 3 {
			return u, ErrTruncated
		}
		flags := attrs[0]
		code := attrs[1]
		var vlen int
		var voff int
		if flags&flagExtLength != 0 {
			if len(attrs) < 4 {
				return u, ErrTruncated
			}
			vlen = int(binary.BigEndian.Uint16(attrs[2:4]))
			voff = 4
		} else {
			vlen = int(attrs[2])
			voff = 3
		}
		if len(attrs) < voff+vlen {
			return u, ErrTruncated
		}
		val := attrs[voff : voff+vlen]
		switch code {
		case attrOrigin:
			if vlen >= 1 {
				u.Attrs.Origin = val[0]
			}
		case attrASPath:
			// One or more segments; we flatten AS_SEQUENCEs.
			for len(val) >= 2 {
				segLen := int(val[1])
				if len(val) < 2+2*segLen {
					return u, ErrTruncated
				}
				for i := 0; i < segLen; i++ {
					u.Attrs.ASPath = append(u.Attrs.ASPath,
						binary.BigEndian.Uint16(val[2+2*i:4+2*i]))
				}
				val = val[2+2*segLen:]
			}
		case attrNextHop:
			if vlen == 4 {
				copy(u.Attrs.NextHop[:], val)
			}
		case attrLocalPref:
			if vlen == 4 {
				u.Attrs.LocalPref = binary.BigEndian.Uint32(val)
				u.Attrs.HasLP = true
			}
		}
		attrs = attrs[voff+vlen:]
	}

	u.NLRI, err = decodePrefixes(body)
	return u, err
}

// DecodeNotification parses a NOTIFICATION body.
func DecodeNotification(body []byte) (Notification, error) {
	if len(body) < 2 {
		return Notification{}, ErrTruncated
	}
	return Notification{Code: body[0], Subcode: body[1], Data: append([]byte(nil), body[2:]...)}, nil
}
