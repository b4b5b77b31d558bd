// Package trace records, persists, replays, and diffs cluster workload
// schedules — the record → save → replay → diff loop behind gameday
// drills. A Recorder wraps any workload sink and captures the exact
// injection schedule (virtual timestamp, flow key, VNI, size, node/pod
// target); the Trace serializes to a compact versioned binary artifact
// with an embedded (and sidecar) JSON header; a Replayer drives any sink
// — typically a whole cluster ingress — from the saved schedule with the
// same one-ahead event insertion discipline a live Source uses; Diff
// compares the keyed outcome reports of two replays line by line.
//
// File layout (little-endian):
//
//	[0:4)   magic "ALBT"
//	[4:6)   format version (currently 1)
//	[6:8)   reserved, zero
//	[8:12)  JSON header length H
//	[12:12+H) JSON header (the same document the .json sidecar holds)
//	[..+8)  record count N
//	[..+8)  FNV-1a 64 checksum of the N*32 record bytes
//	[..N*32) fixed 32-byte records
//
// Record layout: ts-offset ns u64 | src u32 | dst u32 | vni u32 |
// bytes u32 | sport u16 | dport u16 | proto u8 | node u8 | pod u8 | pad.
// Node and pod use 0xff for "unassigned" (recorded off-cluster).
package trace

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"

	"albatross/internal/errs"
	"albatross/internal/packet"
	"albatross/internal/sim"
	"albatross/internal/workload"
)

// Version is the current trace format version.
const Version = 1

var magic = [4]byte{'A', 'L', 'B', 'T'}

const (
	recordBytes = 32
	// maxHeaderBytes bounds the embedded JSON header so a corrupt length
	// field cannot drive a huge allocation.
	maxHeaderBytes = 1 << 20
	// noTarget marks an event recorded without a node/pod assignment.
	noTarget = 0xff
)

// ErrBadTrace reports a malformed, truncated, or version-incompatible
// trace artifact. It wraps errs.BadConfig so the facade sentinel contract
// (errors.Is(err, albatross.ErrBadConfig)) holds for trace input too.
var ErrBadTrace = fmt.Errorf("trace: malformed trace: %w", errs.BadConfig)

// Header is the human-readable trace metadata. It is embedded in the
// binary artifact and duplicated into a ".json" sidecar by WriteFile.
type Header struct {
	// Version mirrors the binary format version.
	Version int `json:"version"`
	// Note is free-form operator context ("prod incident 2024-11-02").
	Note string `json:"note,omitempty"`
	// Seed is the RNG seed of the recorded run, if any.
	Seed uint64 `json:"seed,omitempty"`
	// Nodes is the cluster width the schedule was recorded against
	// (0 = single node or unknown).
	Nodes int `json:"nodes,omitempty"`
	// Flows counts the distinct flows appearing in the schedule.
	Flows int `json:"flows,omitempty"`
	// Events counts schedule records (mirrors the binary count).
	Events int `json:"events"`
	// DurationNS is the offset of the last event from the first.
	DurationNS int64 `json:"duration_ns"`
}

// Event is one recorded injection.
type Event struct {
	// At is the virtual-time offset from the start of the recording.
	At sim.Duration
	// Flow is the injected tenant flow.
	Flow workload.Flow
	// Bytes is the injected wire size.
	Bytes int
	// Node is the ECMP owner observed at record time, -1 if unassigned.
	Node int
	// Pod is the target pod slot, -1 if unassigned.
	Pod int
}

// Trace is an in-memory schedule: a header plus its ordered events.
type Trace struct {
	Header Header
	Events []Event
}

// Validate checks the semantic invariants replay depends on: events in
// non-decreasing time order, non-negative offsets, positive sizes. All
// violations wrap ErrBadTrace.
func (t *Trace) Validate() error {
	var prev sim.Duration
	for i := range t.Events {
		ev := &t.Events[i]
		if ev.At < 0 {
			return fmt.Errorf("event %d at negative offset %d: %w", i, ev.At, ErrBadTrace)
		}
		if ev.At < prev {
			return fmt.Errorf("event %d at %d before predecessor %d: %w", i, ev.At, prev, ErrBadTrace)
		}
		prev = ev.At
		if ev.Bytes <= 0 {
			return fmt.Errorf("event %d has non-positive size %d: %w", i, ev.Bytes, ErrBadTrace)
		}
	}
	return nil
}

// Span returns the offset of the last event (the schedule length).
func (t *Trace) Span() sim.Duration {
	if len(t.Events) == 0 {
		return 0
	}
	return t.Events[len(t.Events)-1].At
}

// Flows returns the distinct flows of the schedule in first-appearance
// order — the set a replay target needs installed in its service tables
// when the original deployment config is not available.
func (t *Trace) Flows() []workload.Flow {
	seen := make(map[uint64]struct{}, len(t.Events))
	var flows []workload.Flow
	for i := range t.Events {
		f := t.Events[i].Flow
		key := uint64(f.VNI)<<32 ^ uint64(f.Tuple.Hash())
		if _, ok := seen[key]; ok {
			continue
		}
		seen[key] = struct{}{}
		flows = append(flows, f)
	}
	return flows
}

// finalizeHeader stamps the derived header fields before serialization.
func (t *Trace) finalizeHeader() {
	t.Header.Version = Version
	t.Header.Events = len(t.Events)
	t.Header.DurationNS = int64(t.Span())
	if t.Header.Flows == 0 {
		t.Header.Flows = len(t.Flows())
	}
}

func encodeTarget(v int) byte {
	if v < 0 || v >= noTarget {
		return noTarget
	}
	return byte(v)
}

func decodeTarget(b byte) int {
	if b == noTarget {
		return -1
	}
	return int(b)
}

// Write serializes the trace. The header's derived fields (Version,
// Events, DurationNS, Flows) are stamped first, so the artifact is always
// self-consistent.
func (t *Trace) Write(w io.Writer) error {
	if err := t.Validate(); err != nil {
		return err
	}
	t.finalizeHeader()
	hdr, err := json.Marshal(&t.Header)
	if err != nil {
		return fmt.Errorf("trace: encoding header: %w", err)
	}
	if len(hdr) > maxHeaderBytes {
		return fmt.Errorf("trace: header %dB exceeds %dB cap: %w", len(hdr), maxHeaderBytes, ErrBadTrace)
	}

	records := make([]byte, len(t.Events)*recordBytes)
	for i := range t.Events {
		ev := &t.Events[i]
		r := records[i*recordBytes:]
		binary.LittleEndian.PutUint64(r[0:], uint64(ev.At))
		binary.LittleEndian.PutUint32(r[8:], ev.Flow.Tuple.Src.Uint32())
		binary.LittleEndian.PutUint32(r[12:], ev.Flow.Tuple.Dst.Uint32())
		binary.LittleEndian.PutUint32(r[16:], ev.Flow.VNI)
		binary.LittleEndian.PutUint32(r[20:], uint32(ev.Bytes))
		binary.LittleEndian.PutUint16(r[24:], ev.Flow.Tuple.SPort)
		binary.LittleEndian.PutUint16(r[26:], ev.Flow.Tuple.DPort)
		r[28] = byte(ev.Flow.Tuple.Proto)
		r[29] = encodeTarget(ev.Node)
		r[30] = encodeTarget(ev.Pod)
		r[31] = 0
	}
	sum := fnv.New64a()
	sum.Write(records)

	fixed := make([]byte, 12)
	copy(fixed, magic[:])
	binary.LittleEndian.PutUint16(fixed[4:], Version)
	binary.LittleEndian.PutUint32(fixed[8:], uint32(len(hdr)))
	tail := make([]byte, 16)
	binary.LittleEndian.PutUint64(tail[0:], uint64(len(t.Events)))
	binary.LittleEndian.PutUint64(tail[8:], sum.Sum64())

	for _, chunk := range [][]byte{fixed, hdr, tail, records} {
		if _, err := w.Write(chunk); err != nil {
			return fmt.Errorf("trace: writing: %w", err)
		}
	}
	return nil
}

// Read deserializes a trace, verifying magic, version, structure, and the
// record checksum. Every malformation — including truncation — is
// reported as an error wrapping ErrBadTrace (and therefore errs.BadConfig).
func Read(r io.Reader) (*Trace, error) {
	fixed := make([]byte, 12)
	if _, err := io.ReadFull(r, fixed); err != nil {
		return nil, fmt.Errorf("trace: short preamble: %w", ErrBadTrace)
	}
	if [4]byte(fixed[:4]) != magic {
		return nil, fmt.Errorf("trace: bad magic %q: %w", fixed[:4], ErrBadTrace)
	}
	if v := binary.LittleEndian.Uint16(fixed[4:]); v != Version {
		return nil, fmt.Errorf("trace: unsupported format version %d (want %d): %w", v, Version, ErrBadTrace)
	}
	if binary.LittleEndian.Uint16(fixed[6:]) != 0 {
		return nil, fmt.Errorf("trace: nonzero reserved field: %w", ErrBadTrace)
	}
	hlen := binary.LittleEndian.Uint32(fixed[8:])
	if hlen > maxHeaderBytes {
		return nil, fmt.Errorf("trace: header length %d exceeds %d cap: %w", hlen, maxHeaderBytes, ErrBadTrace)
	}
	hdr := make([]byte, hlen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("trace: truncated header: %w", ErrBadTrace)
	}
	t := &Trace{}
	if err := json.Unmarshal(hdr, &t.Header); err != nil {
		return nil, fmt.Errorf("trace: decoding header: %v: %w", err, ErrBadTrace)
	}
	if t.Header.Version != Version {
		return nil, fmt.Errorf("trace: header version %d disagrees with format version %d: %w",
			t.Header.Version, Version, ErrBadTrace)
	}

	tail := make([]byte, 16)
	if _, err := io.ReadFull(r, tail); err != nil {
		return nil, fmt.Errorf("trace: truncated count/checksum: %w", ErrBadTrace)
	}
	count := binary.LittleEndian.Uint64(tail[0:])
	want := binary.LittleEndian.Uint64(tail[8:])
	if count != uint64(t.Header.Events) {
		return nil, fmt.Errorf("trace: binary count %d disagrees with header events %d: %w",
			count, t.Header.Events, ErrBadTrace)
	}
	const maxRecords = 1 << 28 // 256M events ~ 8GB decoded; far past any real trace
	if count > maxRecords {
		return nil, fmt.Errorf("trace: record count %d exceeds %d cap: %w", count, uint64(maxRecords), ErrBadTrace)
	}

	records := make([]byte, int(count)*recordBytes)
	if _, err := io.ReadFull(r, records); err != nil {
		return nil, fmt.Errorf("trace: truncated records: %w", ErrBadTrace)
	}
	sum := fnv.New64a()
	sum.Write(records)
	if got := sum.Sum64(); got != want {
		return nil, fmt.Errorf("trace: record checksum %#x != stored %#x: %w", got, want, ErrBadTrace)
	}

	t.Events = make([]Event, count)
	for i := range t.Events {
		rec := records[i*recordBytes:]
		ev := &t.Events[i]
		ev.At = sim.Duration(binary.LittleEndian.Uint64(rec[0:]))
		ev.Flow.Tuple.Src = packet.IPv4FromUint32(binary.LittleEndian.Uint32(rec[8:]))
		ev.Flow.Tuple.Dst = packet.IPv4FromUint32(binary.LittleEndian.Uint32(rec[12:]))
		ev.Flow.VNI = binary.LittleEndian.Uint32(rec[16:])
		ev.Bytes = int(binary.LittleEndian.Uint32(rec[20:]))
		ev.Flow.Tuple.SPort = binary.LittleEndian.Uint16(rec[24:])
		ev.Flow.Tuple.DPort = binary.LittleEndian.Uint16(rec[26:])
		ev.Flow.Tuple.Proto = packet.IPProtocol(rec[28])
		ev.Node = decodeTarget(rec[29])
		ev.Pod = decodeTarget(rec[30])
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// WriteFile saves the binary artifact at path and its JSON header as a
// human-readable sidecar at path+".json".
func (t *Trace) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.Write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	sidecar, err := json.MarshalIndent(&t.Header, "", "  ")
	if err != nil {
		return fmt.Errorf("trace: encoding sidecar: %w", err)
	}
	return os.WriteFile(path+".json", append(sidecar, '\n'), 0o644)
}

// ReadFile loads a trace artifact saved by WriteFile.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
