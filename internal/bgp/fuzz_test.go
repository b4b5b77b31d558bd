package bgp

import (
	"bytes"
	"reflect"
	"testing"

	"albatross/internal/packet"
)

// reencode decodes msg as the speaker reads one off the wire — DecodeHeader,
// then the decoder of the type it names on the body it delimits — and
// encodes what was decoded. Bytes past the header's length are left unread.
func reencode(msg []byte) ([]byte, bool) {
	length, msgType, err := DecodeHeader(msg)
	if err != nil || length > len(msg) {
		return nil, false
	}
	body := msg[headerLen:length]
	switch msgType {
	case MsgOpen:
		o, err := DecodeOpen(body)
		return EncodeOpen(o), err == nil
	case MsgUpdate:
		u, err := DecodeUpdate(body)
		return EncodeUpdate(u), err == nil
	case MsgNotification:
		n, err := DecodeNotification(body)
		return EncodeNotification(n), err == nil
	default:
		return EncodeKeepalive(), true
	}
}

// updateFrom builds an UPDATE from data, so the encoder's inputs are fuzzed
// too: counts, origin and LOCAL_PREF from the first bytes, then prefixes
// (length, address) and AS numbers; bytes past the end read as 0.
func updateFrom(data []byte) Update {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	prefixes := func(n byte) []Prefix {
		var out []Prefix
		for i := byte(0); i < n; i++ {
			out = append(out, Prefix{Len: next() % 33, Addr: packet.IPv4Addr{next(), next(), next(), next()}})
		}
		return out
	}
	var u Update
	nw, nn, origin, lp := next()%8, next()%8, next()%3, next()
	u.Attrs = PathAttrs{Origin: origin, NextHop: packet.IPv4Addr{next(), next(), next(), next()}}
	if lp&1 != 0 {
		u.Attrs.LocalPref, u.Attrs.HasLP = uint32(lp)<<8|uint32(next()), true
	}
	u.Withdrawn, u.NLRI = prefixes(nw), prefixes(nn)
	for n := int(next())<<1 | int(next()&1); n > 0; n-- {
		u.Attrs.ASPath = append(u.Attrs.ASPath, uint16(next())<<8|uint16(next()))
	}
	return u
}

// onWire is what an UPDATE reads as after encoding: prefixes canonical, and
// no path attributes unless it announces something.
func onWire(u Update) Update {
	canon := func(ps []Prefix) []Prefix {
		var out []Prefix
		for _, p := range ps {
			out = append(out, p.Canonical())
		}
		return out
	}
	u.Withdrawn, u.NLRI = canon(u.Withdrawn), canon(u.NLRI)
	if len(u.NLRI) == 0 {
		u.Attrs = PathAttrs{}
	}
	if len(u.Attrs.ASPath) == 0 {
		u.Attrs.ASPath = nil
	}
	return u
}

// FuzzDecodeMessages feeds arbitrary bytes to the decoders the bgp-proxy
// runs on TCP input. No input may panic, whole or as a bare body. Two
// round trips must hold for every message the encoders produce within RFC
// 4271's 4096-byte limit: an UPDATE built from the input decodes to what was
// encoded, and whatever the input decodes to, encoded again, decodes and
// encodes back to the same bytes.
func FuzzDecodeMessages(f *testing.F) {
	attrs := PathAttrs{Origin: 2, ASPath: []uint16{65001, 65002}, NextHop: packet.IPv4Addr{10, 0, 0, 1}}
	long := make([]uint16, 300)
	for i := range long {
		long[i] = uint16(64512 + i)
	}
	for _, seed := range [][]byte{
		EncodeOpen(Open{Version: bgpVersion, AS: 65001, HoldTime: 90, RouterID: 0x0a000001}),
		EncodeKeepalive(),
		EncodeNotification(Notification{Code: NotifCease, Subcode: 2, Data: []byte{1, 2, 3}}),
		EncodeUpdate(Update{Attrs: attrs, NLRI: []Prefix{pfx(10, 1, 0, 0, 16), pfx(192, 0, 2, 7, 32), pfx(0, 0, 0, 0, 0)}}),
		EncodeUpdate(Update{Withdrawn: []Prefix{pfx(10, 1, 2, 0, 24)}}),
		EncodeUpdate(Update{Attrs: PathAttrs{NextHop: packet.IPv4Addr{1, 2, 3, 4}, LocalPref: 200, HasLP: true},
			NLRI: []Prefix{pfx(172, 16, 0, 0, 12)}}),
		EncodeUpdate(Update{Attrs: PathAttrs{ASPath: long}, NLRI: []Prefix{pfx(10, 0, 0, 0, 8)}}),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = DecodeOpen(data)
		_, _ = DecodeUpdate(data)
		_, _ = DecodeNotification(data)

		u := updateFrom(data)
		if enc := EncodeUpdate(u); len(enc) <= maxMsgLen {
			got, err := DecodeUpdate(enc[headerLen:])
			if want := onWire(u); err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("UPDATE round trip:\n  sent    %+v\n  decoded %+v (%v)", want, got, err)
			}
		}

		enc, ok := reencode(data)
		if !ok || len(enc) > maxMsgLen {
			return
		}
		again, ok := reencode(enc)
		if !ok || !bytes.Equal(again, enc) {
			t.Fatalf("encoder output does not survive decode and encode:\n  %x\n  %x (decoded: %v)", enc, again, ok)
		}
	})
}
