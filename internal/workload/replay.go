package workload

import (
	"fmt"
	"io"

	"albatross/internal/packet"
	"albatross/internal/sim"
)

// ReplaySource replays a pcap capture into a sink at the recorded
// timestamps (virtual time), parsing each frame's tenant flow from its
// VXLAN/Geneve encapsulation. It turns real traces — or captures written
// with packet.PcapWriter — into simulation input.
type ReplaySource struct {
	// Sink receives each replayed packet. Required.
	Sink func(f Flow, bytes int)
	// Speedup divides inter-packet gaps (2.0 = replay twice as fast).
	// Default 1.0.
	Speedup float64
	// Loop repeats the capture this many times (default 1). Timestamps of
	// later loops continue from the previous loop's end.
	Loop int

	// Replayed counts packets delivered; Skipped counts frames that did
	// not parse to a flow.
	Replayed uint64
	Skipped  uint64
}

// Start reads the entire capture from r, schedules every packet on the
// engine, and returns. Parsing happens up front so malformed captures fail
// fast.
func (rs *ReplaySource) Start(engine *sim.Engine, r io.Reader) error {
	if rs.Sink == nil {
		return fmt.Errorf("workload: replay source has no sink")
	}
	if rs.Speedup <= 0 {
		rs.Speedup = 1
	}
	if rs.Loop <= 0 {
		rs.Loop = 1
	}
	pr, err := packet.NewPcapReader(r)
	if err != nil {
		return err
	}
	pkts, err := pr.ReadAll()
	if err != nil {
		return err
	}
	if len(pkts) == 0 {
		return fmt.Errorf("workload: empty capture")
	}

	type item struct {
		at    sim.Duration
		flow  Flow
		bytes int
		ok    bool
	}
	items := make([]item, 0, len(pkts))
	var parsed packet.Parsed
	base := pkts[0].TS
	var span sim.Duration
	for _, p := range pkts {
		it := item{
			at:    sim.Duration(float64(p.TS-base) / rs.Speedup),
			bytes: p.OrigLen,
		}
		if tuple, vni, ok := packet.ExtractFlow(p.Data, &parsed); ok {
			it.flow = Flow{Tuple: tuple, VNI: vni}
			it.ok = true
		}
		if it.at > span {
			span = it.at
		}
		items = append(items, it)
	}
	// A single-packet capture still needs a nonzero loop stride.
	if span == 0 {
		span = 1
	}

	now := engine.Now()
	for loop := 0; loop < rs.Loop; loop++ {
		offset := sim.Duration(loop) * (span + 1)
		for _, it := range items {
			if !it.ok {
				rs.Skipped++
				continue
			}
			it := it
			engine.At(now.Add(offset+it.at), func() {
				rs.Replayed++
				rs.Sink(it.flow, it.bytes)
			})
		}
	}
	return nil
}
