package trace

import (
	"albatross/internal/sim"
	"albatross/internal/workload"
)

// Recorder captures the exact injection schedule flowing through a
// workload sink: the sink calls Record for each arrival it forwards, so any
// workload.Source (or hand-driven injection loop) can be recorded without
// modification.
//
// Recording is allocation-free per packet apart from the amortized growth
// of the event slice — BenchmarkPacketPathRecorded pins the packet path at
// 0 allocs/op with a recorder attached.
type Recorder struct {
	engine *sim.Engine
	t0     sim.Time
	events []Event
	header Header
}

// NewRecorder starts a recording at the engine's current virtual time;
// all event offsets are relative to this instant.
func NewRecorder(engine *sim.Engine) *Recorder {
	return &Recorder{engine: engine, t0: engine.Now()}
}

// SetMeta fills the descriptive header fields (seed, cluster width, note)
// stored alongside the schedule.
func (r *Recorder) SetMeta(seed uint64, nodes int, note string) {
	r.header.Seed = seed
	r.header.Nodes = nodes
	r.header.Note = note
}

// Record appends one injection observed now, with an optional node/pod
// target (-1 for unassigned).
func (r *Recorder) Record(f workload.Flow, bytes, node, pod int) {
	r.events = append(r.events, Event{
		At:    r.engine.Now().Sub(r.t0),
		Flow:  f,
		Bytes: bytes,
		Node:  node,
		Pod:   pod,
	})
}

// Trace finalizes the recording into a serializable Trace. The recorder
// may keep recording; later Trace calls include the additional events.
func (r *Recorder) Trace() *Trace {
	t := &Trace{
		Header: r.header,
		Events: append([]Event(nil), r.events...),
	}
	t.finalizeHeader()
	return t
}
