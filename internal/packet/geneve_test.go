package packet

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestGeneveRoundTrip(t *testing.T) {
	g := Geneve{OAM: true, Critical: true, Protocol: EtherTypeIPv4, VNI: 0xABCDE}
	buf := make([]byte, GeneveMinLen)
	n, err := g.SerializeTo(buf)
	if err != nil || n != GeneveMinLen {
		t.Fatalf("serialize: n=%d err=%v", n, err)
	}
	var d Geneve
	n, err = d.DecodeFromBytes(buf)
	if err != nil || n != GeneveMinLen {
		t.Fatalf("decode: n=%d err=%v", n, err)
	}
	if d.VNI != 0xABCDE || !d.OAM || !d.Critical || d.Protocol != EtherTypeIPv4 {
		t.Fatalf("mismatch: %+v", d)
	}
}

func TestGeneveWithOptions(t *testing.T) {
	opts, err := AppendGeneveOption(nil, GeneveOption{Class: 0x0102, Type: 3, Data: []byte{1, 2, 3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	opts, err = AppendGeneveOption(opts, GeneveOption{Class: 0x0AAA, Type: 9, Data: nil})
	if err != nil {
		t.Fatal(err)
	}
	g := Geneve{Protocol: EtherTypeIPv4, VNI: 7, Options: opts}
	buf := make([]byte, GeneveMinLen+len(opts))
	if _, err := g.SerializeTo(buf); err != nil {
		t.Fatal(err)
	}
	var d Geneve
	n, err := d.DecodeFromBytes(buf)
	if err != nil || n != len(buf) {
		t.Fatalf("decode: n=%d err=%v", n, err)
	}
	parsed, err := ParseGeneveOptions(d.Options)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != 2 {
		t.Fatalf("options = %d", len(parsed))
	}
	if parsed[0].Class != 0x0102 || parsed[0].Type != 3 || !bytes.Equal(parsed[0].Data, []byte{1, 2, 3, 4}) {
		t.Fatalf("option 0 = %+v", parsed[0])
	}
	if parsed[1].Class != 0x0AAA || len(parsed[1].Data) != 0 {
		t.Fatalf("option 1 = %+v", parsed[1])
	}
}

func TestGeneveBadInputs(t *testing.T) {
	var d Geneve
	if _, err := d.DecodeFromBytes(make([]byte, 7)); err != ErrTooShort {
		t.Fatalf("short: %v", err)
	}
	bad := make([]byte, 8)
	bad[0] = 0x40 // version 1
	if _, err := d.DecodeFromBytes(bad); err != ErrBadVersion {
		t.Fatalf("version: %v", err)
	}
	// Declared options longer than the buffer.
	bad2 := make([]byte, 8)
	bad2[0] = 2 // 8 bytes of options, absent
	if _, err := d.DecodeFromBytes(bad2); err != ErrTooShort {
		t.Fatalf("truncated options: %v", err)
	}
	// Serialize with unaligned options.
	g := Geneve{Options: []byte{1, 2, 3}}
	if _, err := g.SerializeTo(make([]byte, 64)); err != ErrBadLength {
		t.Fatalf("odd options: %v", err)
	}
	// Option data too long / unaligned.
	if _, err := AppendGeneveOption(nil, GeneveOption{Data: make([]byte, 3)}); err != ErrBadLength {
		t.Fatal("unaligned option accepted")
	}
	if _, err := AppendGeneveOption(nil, GeneveOption{Data: make([]byte, 128)}); err != ErrBadLength {
		t.Fatal("oversized option accepted")
	}
	if _, err := ParseGeneveOptions([]byte{1, 2}); err != ErrTooShort {
		t.Fatal("short TLV accepted")
	}
	if _, err := ParseGeneveOptions([]byte{0, 1, 2, 1}); err != ErrTooShort {
		t.Fatal("truncated TLV body accepted")
	}
}

func TestGeneveVNI24Bit(t *testing.T) {
	g := Geneve{VNI: 0x1FFFFFF}
	buf := make([]byte, GeneveMinLen)
	g.SerializeTo(buf)
	var d Geneve
	d.DecodeFromBytes(buf)
	if d.VNI != 0xFFFFFF {
		t.Fatalf("VNI = %#x", d.VNI)
	}
}

func TestGeneveRoundTripProperty(t *testing.T) {
	f := func(vni uint32, oam, crit bool, nOpts uint8) bool {
		var opts []byte
		for i := 0; i < int(nOpts%4); i++ {
			var err error
			opts, err = AppendGeneveOption(opts, GeneveOption{
				Class: uint16(i), Type: uint8(i), Data: make([]byte, (i%3)*4),
			})
			if err != nil {
				return false
			}
		}
		g := Geneve{OAM: oam, Critical: crit, Protocol: EtherTypeIPv4, VNI: vni & 0xffffff, Options: opts}
		buf := make([]byte, GeneveMinLen+len(opts))
		if _, err := g.SerializeTo(buf); err != nil {
			return false
		}
		var d Geneve
		if _, err := d.DecodeFromBytes(buf); err != nil {
			return false
		}
		return d.VNI == vni&0xffffff && d.OAM == oam && d.Critical == crit &&
			bytes.Equal(d.Options, opts)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGeneveDecode(b *testing.B) {
	g := Geneve{Protocol: EtherTypeIPv4, VNI: 1234}
	buf := make([]byte, GeneveMinLen)
	g.SerializeTo(buf)
	var d Geneve
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.DecodeFromBytes(buf)
	}
}

func TestParseGeneveStack(t *testing.T) {
	// Ethernet/IPv4/UDP(6081)/Geneve(IPv4)/innerIPv4/innerTCP.
	b := NewBuilder(512)
	b.AddEthernet(&Ethernet{EtherType: EtherTypeIPv4})
	innerPayload := []byte("geneve-data")
	innerLen := IPv4MinLen + TCPMinLen + len(innerPayload)
	outerIP := IPv4{TTL: 64, Protocol: IPProtocolUDP,
		Src: IPv4Addr{100, 64, 1, 1}, Dst: IPv4Addr{100, 64, 1, 2}}
	b.AddIPv4(&outerIP, UDPLen+GeneveMinLen+innerLen)
	b.AddUDPHeader(&UDP{SrcPort: 55555, DstPort: GenevePort}, GeneveMinLen+innerLen)
	gnv := Geneve{Protocol: EtherTypeIPv4, VNI: 0x7777}
	gbuf := make([]byte, GeneveMinLen)
	gnv.SerializeTo(gbuf)
	b.AddBytes(gbuf)
	innerIP := IPv4{TTL: 64, Protocol: IPProtocolTCP,
		Src: IPv4Addr{192, 168, 9, 1}, Dst: IPv4Addr{10, 9, 9, 9}}
	b.AddIPv4(&innerIP, TCPMinLen+len(innerPayload))
	b.AddTCP(&TCP{SrcPort: 1234, DstPort: 80, Flags: TCPAck}, innerIP.Src, innerIP.Dst, innerPayload)

	var p Parsed
	if err := Parse(b.Bytes(), &p); err != nil {
		t.Fatal(err)
	}
	want := LayerEthernet | LayerIPv4 | LayerUDP | LayerGeneve | LayerInnerIPv4 | LayerInnerTCP
	if p.Decoded != want {
		t.Fatalf("decoded = %b, want %b", p.Decoded, want)
	}
	if p.VNI() != 0x7777 {
		t.Fatalf("VNI = %#x", p.VNI())
	}
	f := p.InnerFlow()
	if f.SPort != 1234 || f.DPort != 80 || f.Src != innerIP.Src {
		t.Fatalf("inner flow = %v", f)
	}
	if string(p.Payload) != "geneve-data" {
		t.Fatalf("payload = %q", p.Payload)
	}
}

func TestParseGeneveEthernetBridging(t *testing.T) {
	// Geneve with protocol 0x6558 carries a full inner Ethernet frame.
	b := NewBuilder(512)
	b.AddEthernet(&Ethernet{EtherType: EtherTypeIPv4})
	innerLen := EthernetLen + IPv4MinLen + UDPLen
	outerIP := IPv4{TTL: 64, Protocol: IPProtocolUDP,
		Src: IPv4Addr{1, 1, 1, 1}, Dst: IPv4Addr{2, 2, 2, 2}}
	b.AddIPv4(&outerIP, UDPLen+GeneveMinLen+innerLen)
	b.AddUDPHeader(&UDP{SrcPort: 1, DstPort: GenevePort}, GeneveMinLen+innerLen)
	gbuf := make([]byte, GeneveMinLen)
	(&Geneve{Protocol: 0x6558, VNI: 9}).SerializeTo(gbuf)
	b.AddBytes(gbuf)
	b.AddEthernet(&Ethernet{EtherType: EtherTypeIPv4})
	innerIP := IPv4{TTL: 9, Protocol: IPProtocolUDP, Src: IPv4Addr{3, 3, 3, 3}, Dst: IPv4Addr{4, 4, 4, 4}}
	b.AddIPv4(&innerIP, UDPLen)
	b.AddUDP(&UDP{SrcPort: 10, DstPort: 20}, innerIP.Src, innerIP.Dst, nil)

	var p Parsed
	if err := Parse(b.Bytes(), &p); err != nil {
		t.Fatal(err)
	}
	if p.Decoded&LayerInnerEthernet == 0 || p.Decoded&LayerInnerUDP == 0 {
		t.Fatalf("decoded = %b", p.Decoded)
	}
	if p.VNI() != 9 {
		t.Fatalf("VNI = %d", p.VNI())
	}
}
