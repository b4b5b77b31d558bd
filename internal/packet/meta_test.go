package packet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

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

func TestMetaRoundTrip(t *testing.T) {
	pkt := []byte{1, 2, 3, 4, 5}
	m := Meta{PSN: 0x8123, OrdQ: 3, Flags: MetaFlagDrop | MetaFlagHeaderOnly, PodID: 42, IngressNS: 123456789}
	tagged := AppendMeta(pkt, &m)
	if len(tagged) != len(pkt)+MetaLen {
		t.Fatalf("tagged len = %d", len(tagged))
	}
	var got Meta
	body, err := StripMeta(tagged, &got)
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Fatalf("meta mismatch: %+v != %+v", got, m)
	}
	if len(body) != 5 || body[0] != 1 {
		t.Fatalf("body = %v", body)
	}
}

func TestMetaMissing(t *testing.T) {
	var m Meta
	if _, err := StripMeta([]byte{1, 2, 3}, &m); err != ErrNoMeta {
		t.Fatalf("short err = %v", err)
	}
	junk := make([]byte, 32)
	if _, err := StripMeta(junk, &m); err != ErrNoMeta {
		t.Fatalf("bad magic err = %v", err)
	}
}

func TestAppendMetaDoesNotAlias(t *testing.T) {
	// Append must behave like append: capacity-limited base slice stays
	// intact.
	base := make([]byte, 4, 4)
	tagged := AppendMeta(base, &Meta{PSN: 1})
	tagged[0] = 0xFF
	if base[0] == 0xFF {
		t.Skip("append reused capacity (allowed, mirrors stdlib append)")
	}
}

// metaPktLen is the packet size the placement comparison moves (§7's 256 B).
const metaPktLen = 256

// tailAppendStrip attaches and detaches the meta the way the model places
// it, at the packet tail: the body never moves.
func tailAppendStrip(pkt []byte, m, out *Meta) error {
	_, err := StripMeta(AppendMeta(pkt[:metaPktLen], m), out)
	return err
}

// headInsert attaches the meta at the packet head, the placement §7
// rejected: the body shifts back MetaLen bytes to open headroom.
func headInsert(buf []byte, m *Meta) {
	copy(buf[MetaLen:MetaLen+metaPktLen], buf[:metaPktLen])
	AppendMeta(buf[:0], m)
}

// headStrip reads a head meta and shifts the body forward again.
func headStrip(buf []byte, out *Meta) error {
	_, err := StripMeta(buf[:MetaLen], out)
	copy(buf[:metaPktLen], buf[MetaLen:MetaLen+metaPktLen])
	return err
}

// BenchmarkMetaPlacement times §7's two meta placements on a 256 B packet,
// attach then detach: at the tail (the model's) the body never moves; at
// the head it is copied twice per packet. Head insertion costs at least
// 1.2× the tail append per packet on the hosts measured (the paper measured
// a 33.6 % end-to-end forwarding hit).
func BenchmarkMetaPlacement(b *testing.B) {
	m := Meta{PSN: 100, OrdQ: 1, PodID: 2, IngressNS: 42}
	var out Meta
	b.Run("tail", func(b *testing.B) {
		pkt := make([]byte, metaPktLen, metaPktLen+MetaLen)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := tailAppendStrip(pkt, &m, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("head", func(b *testing.B) {
		buf := make([]byte, metaPktLen+MetaLen)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			headInsert(buf, &m)
			if err := headStrip(buf, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestMetaTailBeatsHeadInsert is §7's placement lesson in the part that
// holds on any host: both placements carry every Meta field through, the
// tail append leaves the body where it is, and head insertion moves the
// whole body MetaLen bytes back, then forward again on strip — the two body
// copies per packet that make it slower. How much slower is host time:
// BenchmarkMetaPlacement/{tail,head}.
func TestMetaTailBeatsHeadInsert(t *testing.T) {
	body := make([]byte, metaPktLen)
	for i := range body {
		body[i] = byte(i*7 + 3)
	}
	m := Meta{PSN: 0x8123, OrdQ: 3, Flags: MetaFlagDrop | MetaFlagHeaderOnly, PodID: 42, IngressNS: 123456789}

	pkt := make([]byte, metaPktLen, metaPktLen+MetaLen)
	copy(pkt, body)
	tagged := AppendMeta(pkt, &m)
	if &tagged[0] != &pkt[0] || !bytes.Equal(tagged[:metaPktLen], body) {
		t.Fatal("tail append moved or changed the body")
	}
	var out Meta
	got, err := StripMeta(tagged, &out)
	if err != nil || out != m || !bytes.Equal(got, body) {
		t.Fatalf("tail placement: meta %+v body intact %v err %v, want %+v", out, bytes.Equal(got, body), err, m)
	}

	buf := make([]byte, metaPktLen+MetaLen)
	copy(buf, body)
	headInsert(buf, &m)
	if !bytes.Equal(buf[MetaLen:], body) {
		t.Fatalf("after head insertion the body does not sit %d bytes later", MetaLen)
	}
	out = Meta{}
	if err := headStrip(buf, &out); err != nil || out != m || !bytes.Equal(buf[:metaPktLen], body) {
		t.Fatalf("head placement: meta %+v body restored %v err %v, want %+v", out, bytes.Equal(buf[:metaPktLen], body), err, m)
	}
}
