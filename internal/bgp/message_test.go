package bgp

import (
	"bytes"
	"testing"
	"testing/quick"

	"albatross/internal/packet"
)

func TestOpenRoundTrip(t *testing.T) {
	o := Open{Version: 4, AS: 65001, HoldTime: 90, RouterID: 0x0a000001}
	enc := EncodeOpen(o)
	length, msgType, err := DecodeHeader(enc)
	if err != nil {
		t.Fatal(err)
	}
	if msgType != MsgOpen || length != len(enc) {
		t.Fatalf("header: type=%d len=%d", msgType, length)
	}
	got, err := DecodeOpen(enc[headerLen:])
	if err != nil {
		t.Fatal(err)
	}
	got.Version = 4 // DecodeOpen validates version; field set from wire
	if got.AS != 65001 || got.HoldTime != 90 || got.RouterID != 0x0a000001 {
		t.Fatalf("open = %+v", got)
	}
}

func TestOpenBadVersion(t *testing.T) {
	enc := EncodeOpen(Open{AS: 1, HoldTime: 3, RouterID: 1})
	enc[headerLen] = 3 // version 3
	if _, err := DecodeOpen(enc[headerLen:]); err == nil {
		t.Fatal("version 3 accepted")
	}
}

func TestKeepaliveRoundTrip(t *testing.T) {
	enc := EncodeKeepalive()
	length, msgType, err := DecodeHeader(enc)
	if err != nil || msgType != MsgKeepalive || length != headerLen {
		t.Fatalf("keepalive: len=%d type=%d err=%v", length, msgType, err)
	}
}

func TestNotificationRoundTrip(t *testing.T) {
	n := Notification{Code: NotifCease, Subcode: 2, Data: []byte{1, 2, 3}}
	enc := EncodeNotification(n)
	_, msgType, err := DecodeHeader(enc)
	if err != nil || msgType != MsgNotification {
		t.Fatal("header")
	}
	got, err := DecodeNotification(enc[headerLen:])
	if err != nil {
		t.Fatal(err)
	}
	if got.Code != NotifCease || got.Subcode != 2 || !bytes.Equal(got.Data, []byte{1, 2, 3}) {
		t.Fatalf("notification = %+v", got)
	}
	if got.Error() == "" {
		t.Fatal("empty error string")
	}
}

func TestHeaderValidation(t *testing.T) {
	enc := EncodeKeepalive()

	short := enc[:10]
	if _, _, err := DecodeHeader(short); err != ErrTruncated {
		t.Fatalf("short: %v", err)
	}

	badMarker := append([]byte(nil), enc...)
	badMarker[3] = 0
	if _, _, err := DecodeHeader(badMarker); err != ErrBadMarker {
		t.Fatalf("marker: %v", err)
	}

	badLen := append([]byte(nil), enc...)
	badLen[16], badLen[17] = 0xff, 0xff
	if _, _, err := DecodeHeader(badLen); err != ErrBadLength {
		t.Fatalf("length: %v", err)
	}

	badType := append([]byte(nil), enc...)
	badType[18] = 9
	if _, _, err := DecodeHeader(badType); err != ErrBadType {
		t.Fatalf("type: %v", err)
	}
}

func pfx(a, b, c, d byte, l uint8) Prefix {
	return Prefix{Addr: packet.IPv4Addr{a, b, c, d}, Len: l}
}

func TestUpdateRoundTrip(t *testing.T) {
	u := Update{
		Withdrawn: []Prefix{pfx(10, 1, 0, 0, 16)},
		Attrs: PathAttrs{
			Origin:    0,
			ASPath:    []uint16{65001, 65002},
			NextHop:   packet.IPv4Addr{192, 0, 2, 1},
			LocalPref: 200,
			HasLP:     true,
		},
		NLRI: []Prefix{pfx(203, 0, 113, 0, 24), pfx(198, 51, 100, 64, 26)},
	}
	enc := EncodeUpdate(u)
	length, msgType, err := DecodeHeader(enc)
	if err != nil || msgType != MsgUpdate || length != len(enc) {
		t.Fatalf("header: %v %d %d/%d", err, msgType, length, len(enc))
	}
	got, err := DecodeUpdate(enc[headerLen:])
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Withdrawn) != 1 || got.Withdrawn[0] != pfx(10, 1, 0, 0, 16) {
		t.Fatalf("withdrawn = %v", got.Withdrawn)
	}
	if len(got.NLRI) != 2 || got.NLRI[0] != pfx(203, 0, 113, 0, 24) || got.NLRI[1] != pfx(198, 51, 100, 64, 26) {
		t.Fatalf("nlri = %v", got.NLRI)
	}
	if len(got.Attrs.ASPath) != 2 || got.Attrs.ASPath[0] != 65001 || got.Attrs.ASPath[1] != 65002 {
		t.Fatalf("as path = %v", got.Attrs.ASPath)
	}
	if got.Attrs.NextHop != u.Attrs.NextHop {
		t.Fatalf("next hop = %v", got.Attrs.NextHop)
	}
	if !got.Attrs.HasLP || got.Attrs.LocalPref != 200 {
		t.Fatalf("local pref = %v %v", got.Attrs.HasLP, got.Attrs.LocalPref)
	}
}

func TestUpdateWithdrawOnly(t *testing.T) {
	u := Update{Withdrawn: []Prefix{pfx(10, 0, 0, 0, 8)}}
	got, err := DecodeUpdate(EncodeUpdate(u)[headerLen:])
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Withdrawn) != 1 || len(got.NLRI) != 0 {
		t.Fatalf("got = %+v", got)
	}
}

func TestUpdateEmptyASPath(t *testing.T) {
	u := Update{
		Attrs: PathAttrs{NextHop: packet.IPv4Addr{1, 1, 1, 1}},
		NLRI:  []Prefix{pfx(10, 0, 0, 0, 8)},
	}
	got, err := DecodeUpdate(EncodeUpdate(u)[headerLen:])
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Attrs.ASPath) != 0 {
		t.Fatalf("as path = %v", got.Attrs.ASPath)
	}
}

func TestPrefixEncodingLengths(t *testing.T) {
	// Prefix encoding truncates to ceil(len/8) bytes: exercise every
	// byte-boundary class.
	cases := []Prefix{
		pfx(0, 0, 0, 0, 0),
		pfx(128, 0, 0, 0, 1),
		pfx(10, 0, 0, 0, 8),
		pfx(10, 128, 0, 0, 9),
		pfx(10, 1, 0, 0, 16),
		pfx(10, 1, 128, 0, 17),
		pfx(10, 1, 2, 0, 24),
		pfx(10, 1, 2, 3, 32),
	}
	enc := encodePrefixes(nil, cases)
	got, err := decodePrefixes(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(cases) {
		t.Fatalf("decoded %d prefixes", len(got))
	}
	for i := range cases {
		if got[i] != cases[i].Canonical() {
			t.Fatalf("prefix %d: %v != %v", i, got[i], cases[i])
		}
	}
}

func TestPrefixCanonical(t *testing.T) {
	p := Prefix{Addr: packet.IPv4Addr{10, 1, 2, 3}, Len: 16}
	if c := p.Canonical(); c.Addr != (packet.IPv4Addr{10, 1, 0, 0}) {
		t.Fatalf("canonical = %v", c)
	}
	over := Prefix{Addr: packet.IPv4Addr{1, 2, 3, 4}, Len: 40}
	if c := over.Canonical(); c.Len != 32 {
		t.Fatalf("over-length = %+v", c)
	}
	zero := Prefix{Addr: packet.IPv4Addr{9, 9, 9, 9}, Len: 0}
	if c := zero.Canonical(); c.Addr != (packet.IPv4Addr{}) {
		t.Fatalf("default = %v", c)
	}
	if p.String() != "10.1.2.3/16" {
		t.Fatalf("string = %q", p.String())
	}
}

func TestDecodeBadPrefixes(t *testing.T) {
	if _, err := decodePrefixes([]byte{33, 1, 2, 3, 4, 5}); err == nil {
		t.Fatal("prefix length 33 accepted")
	}
	if _, err := decodePrefixes([]byte{24, 1}); err != ErrTruncated {
		t.Fatal("truncated prefix accepted")
	}
}

func TestDecodeUpdateTruncations(t *testing.T) {
	u := Update{
		Attrs: PathAttrs{ASPath: []uint16{1}, NextHop: packet.IPv4Addr{1, 1, 1, 1}},
		NLRI:  []Prefix{pfx(10, 0, 0, 0, 8)},
	}
	enc := EncodeUpdate(u)
	body := enc[headerLen:]
	for cut := 0; cut < len(body); cut++ {
		// Must never panic; errors allowed.
		_, _ = DecodeUpdate(body[:cut])
	}
}

func TestUpdateRoundTripProperty(t *testing.T) {
	f := func(addrs [][4]byte, lens []uint8, asPath []uint16) bool {
		var nlri []Prefix
		for i, a := range addrs {
			if i >= 20 {
				break
			}
			l := uint8(24)
			if i < len(lens) {
				l = lens[i] % 33
			}
			nlri = append(nlri, Prefix{Addr: packet.IPv4Addr(a), Len: l}.Canonical())
		}
		if len(asPath) > 100 {
			asPath = asPath[:100]
		}
		u := Update{
			Attrs: PathAttrs{ASPath: asPath, NextHop: packet.IPv4Addr{9, 9, 9, 9}},
			NLRI:  nlri,
		}
		got, err := DecodeUpdate(EncodeUpdate(u)[headerLen:])
		if err != nil {
			return false
		}
		if len(got.NLRI) != len(nlri) {
			return false
		}
		for i := range nlri {
			if got.NLRI[i] != nlri[i] {
				return false
			}
		}
		if len(nlri) > 0 {
			if len(got.Attrs.ASPath) != len(asPath) {
				return false
			}
			for i := range asPath {
				if got.Attrs.ASPath[i] != asPath[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncodeUpdate(b *testing.B) {
	u := Update{
		Attrs: PathAttrs{ASPath: []uint16{65001}, NextHop: packet.IPv4Addr{1, 2, 3, 4}},
		NLRI:  []Prefix{pfx(10, 0, 0, 0, 24), pfx(10, 0, 1, 0, 24)},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = EncodeUpdate(u)
	}
}

func BenchmarkDecodeUpdate(b *testing.B) {
	enc := EncodeUpdate(Update{
		Attrs: PathAttrs{ASPath: []uint16{65001}, NextHop: packet.IPv4Addr{1, 2, 3, 4}},
		NLRI:  []Prefix{pfx(10, 0, 0, 0, 24), pfx(10, 0, 1, 0, 24)},
	})
	body := enc[headerLen:]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeUpdate(body); err != nil {
			b.Fatal(err)
		}
	}
}

// Decoders must never panic on arbitrary bytes (they face the network).
func TestDecodersRobustOnRandomBytes(t *testing.T) {
	r := newRand(99)
	for i := 0; i < 20000; i++ {
		n := int(r.Uint32() % 64)
		buf := make([]byte, n)
		for j := range buf {
			buf[j] = byte(r.Uint32())
		}
		_, _, _ = DecodeHeader(buf)
		_, _ = DecodeOpen(buf)
		_, _ = DecodeUpdate(buf)
		_, _ = DecodeNotification(buf)
		_, _ = decodePrefixes(buf)
	}
}

// newRand is a tiny local generator to avoid importing internal/sim here.
type xorshift struct{ s uint64 }

func newRand(seed uint64) *xorshift { return &xorshift{s: seed*2685821657736338717 + 1} }
func (x *xorshift) Uint32() uint32 {
	x.s ^= x.s << 13
	x.s ^= x.s >> 7
	x.s ^= x.s << 17
	return uint32(x.s)
}
