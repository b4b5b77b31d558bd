package packet

import (
	"encoding/binary"
	"errors"
	"testing"
	"time"
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

// headInsertStrip attaches and detaches the meta at the packet head, the
// placement §7 rejected: the body shifts back MetaLen bytes to open
// headroom, and forward again once the meta is read.
func headInsertStrip(buf []byte, m, out *Meta) error {
	copy(buf[MetaLen:MetaLen+metaPktLen], buf[:metaPktLen])
	AppendMeta(buf[:0], m)
	_, err := StripMeta(buf[:MetaLen], out)
	copy(buf[:metaPktLen], buf[MetaLen:MetaLen+metaPktLen])
	return err
}

func BenchmarkMetaAppendStrip(b *testing.B) {
	pkt := make([]byte, metaPktLen, metaPktLen+MetaLen)
	m := Meta{PSN: 100, OrdQ: 1, PodID: 2, IngressNS: 42}
	var out Meta
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := tailAppendStrip(pkt, &m, &out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMetaHeadInsert(b *testing.B) {
	buf := make([]byte, metaPktLen+MetaLen)
	m := Meta{PSN: 100, OrdQ: 1, PodID: 2, IngressNS: 42}
	var out Meta
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := headInsertStrip(buf, &m, &out); err != nil {
			b.Fatal(err)
		}
	}
}

// TestMetaTailBeatsHeadInsert is §7's placement lesson on the host: head
// insertion pays two body copies per packet and must cost at least 1.2× the
// tail append (the paper measured a 33.6 % end-to-end forwarding hit). Each
// placement runs in five interleaved trials and keeps its fastest, so
// scheduler noise on a shared host cannot invert the comparison.
func TestMetaTailBeatsHeadInsert(t *testing.T) {
	const iters = 30000
	pkt := make([]byte, metaPktLen, metaPktLen+MetaLen)
	buf := make([]byte, metaPktLen+MetaLen)
	m := Meta{PSN: 77, OrdQ: 2, PodID: 3, IngressNS: 1234567}
	var out Meta
	nsPerOp := func(op func() error) float64 {
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := op(); err != nil {
				t.Fatal(err)
			}
		}
		return float64(time.Since(start).Nanoseconds()) / iters
	}
	tail, head := 1e18, 1e18
	for trial := 0; trial < 5; trial++ {
		tail = min(tail, nsPerOp(func() error { return tailAppendStrip(pkt, &m, &out) }))
		head = min(head, nsPerOp(func() error { return headInsertStrip(buf, &m, &out) }))
	}
	t.Logf("256 B packet: tail append %.1f ns, head insert %.1f ns (%.2fx)", tail, head, head/tail)
	if head <= tail*1.2 {
		t.Fatalf("head insert %.1f ns is not 1.2x the tail append's %.1f ns", head, tail)
	}
}
