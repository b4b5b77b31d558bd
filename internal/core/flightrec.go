package core

import (
	"fmt"
	"strings"

	"albatross/internal/sim"
	"albatross/internal/workload"
)

// The packet flight recorder: a bounded, pooled, sampled trace ring per
// pod. Every TraceSampleEvery-th injected data packet carries a Journey
// that the stages fill with its per-stage timeline (enter/leave
// virtual time, verdict, dispatch core, PLB PSN/order queue). When the
// packet ends, journeys of interest — drops anywhere on the path, and
// packets the reorder engine released out of order after a timeout — are
// committed into a fixed-size ring; the rest recycle silently. Sampling is
// counter-based (every Nth packet, never randomized), so a fixed seed
// replays the exact same journeys.
//
// The recorder is built for the hot path: live traces come from a free
// list, steps live in a fixed-size array (the path has 7 stages), and a
// commit is a single struct copy into the preallocated ring. Steady-state
// cost is one counter increment per packet plus a nil check per stage.

// StepVerdict is how a traced packet left a stage.
type StepVerdict uint8

// Step verdicts.
const (
	// StepNext: the stage passed the packet on (synchronously or after an
	// async hop).
	StepNext StepVerdict = iota
	// StepExit: the packet completed the pipeline at this stage (priority
	// shortcut or egress completion).
	StepExit
	// StepDrop: the packet died in this stage.
	StepDrop
	// StepOpen: the packet is still inside the stage (an in-flight trace).
	StepOpen
)

func (v StepVerdict) String() string {
	switch v {
	case StepNext:
		return "next"
	case StepExit:
		return "exit"
	case StepDrop:
		return "drop"
	case StepOpen:
		return "open"
	default:
		return fmt.Sprintf("verdict(%d)", int(v))
	}
}

// JourneyReason classifies why a journey was committed to the ring.
type JourneyReason uint8

// Journey reasons.
const (
	// JourneyDropped: the packet died before egress.
	JourneyDropped JourneyReason = iota
	// JourneyTimeoutRelease: the packet completed, but the reorder engine
	// emitted it best-effort (its order queue gave up waiting — a reorder
	// timeout or stale-PSN release).
	JourneyTimeoutRelease
	// JourneyLatencyTrigger: the packet completed normally but its
	// end-to-end latency exceeded the operator's TriggerLatencyOver bound.
	JourneyLatencyTrigger
	// JourneyFaultWindow: the packet completed normally but its flight
	// overlapped an armed fault window (TriggerFaultWindow).
	JourneyFaultWindow
	// JourneyVNIWatch: the packet completed normally and its tenant VNI is
	// on the TriggerVNI watch list.
	JourneyVNIWatch
)

func (r JourneyReason) String() string {
	switch r {
	case JourneyTimeoutRelease:
		return "timeout-release"
	case JourneyLatencyTrigger:
		return "latency-over"
	case JourneyFaultWindow:
		return "fault-window"
	case JourneyVNIWatch:
		return "vni-watch"
	default:
		return "dropped"
	}
}

// maxTraceSteps bounds a journey's timeline: one step per stage.
const maxTraceSteps = numStages + 1

// TraceStep is one stage visit of a traced packet.
type TraceStep struct {
	Stage   int8 // stage index (StageNames order)
	Verdict StepVerdict
	Enter   sim.Time
	Leave   sim.Time
}

// Journey is one sampled packet's recorded flight. While the packet is in
// flight it doubles as the mutable trace attached to its pktCtx; committed
// copies in the ring are immutable.
type Journey struct {
	Flow  workload.Flow
	Bytes int
	T0    sim.Time // injection time
	End   sim.Time // time the journey closed (drop or egress completion)

	Reason JourneyReason
	// Core is the CPU core the dispatch stage chose (-1 before dispatch).
	Core int32
	// PSN and OrdQ are the PLB meta trailer (PLB-dispatched packets only).
	PSN  uint16
	OrdQ uint8
	// ViaPLB reports whether the packet took the PLB spray path.
	ViaPLB bool

	Steps  [maxTraceSteps]TraceStep
	NSteps uint8

	// builder state (not meaningful in committed copies)
	completed bool // left through exit (priority or egress completion)
	timeout   bool // reorder engine emitted it best-effort
}

// enter opens a step for stage i at time now.
func (j *Journey) enter(stage int8, now sim.Time) {
	if int(j.NSteps) >= maxTraceSteps {
		return
	}
	j.Steps[j.NSteps] = TraceStep{Stage: stage, Verdict: StepOpen, Enter: now, Leave: now}
	j.NSteps++
}

// leave closes the most recent step.
func (j *Journey) leave(now sim.Time, v StepVerdict) {
	if j.NSteps == 0 {
		return
	}
	s := &j.Steps[j.NSteps-1]
	s.Leave = now
	s.Verdict = v
}

// String renders the journey as a readable timeline.
func (j *Journey) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pkt vni=%d %s %dB t0=%v %s", j.Flow.VNI, j.Flow.Tuple, j.Bytes, j.T0, j.Reason)
	if j.ViaPLB {
		fmt.Fprintf(&b, " (core=%d psn=%d ordq=%d)", j.Core, j.PSN, j.OrdQ)
	}
	for _, s := range j.Steps[:j.NSteps] {
		fmt.Fprintf(&b, "\n  %-11s +%-8v %v", stageNames[s.Stage], s.Enter.Sub(j.T0), s.Verdict)
		if d := s.Leave.Sub(s.Enter); d > 0 {
			fmt.Fprintf(&b, " after %v", d)
		}
	}
	return b.String()
}

// stageNames maps stage indices to the stable stage labels (dispatch keeps
// one name across PLB/RSS mode switches).
var stageNames = [numStages]string{
	"classify", "gop", "nic-ingress", "dispatch", "cpu", "reorder", "nic-egress",
}

// StageNames returns the pipeline's stage labels in path order.
func StageNames() []string { return stageNames[:] }

// FlightRecorder samples packet journeys for one pod.
type FlightRecorder struct {
	every uint64 // sample every Nth injected packet; 0 disables
	seen  uint64 // injected data packets observed

	pool []*Journey // free journeys for in-flight traces
	ring []Journey  // committed journeys, oldest overwritten first
	next int        // ring write cursor
	wrap bool       // ring has wrapped at least once

	// Operator-defined commit triggers. Zero values disable each trigger,
	// keeping the default finish path identical to the built-in
	// drop/timeout classification.
	latencyOver  sim.Duration  // commit completed journeys slower than this
	vniWatch     []uint32      // commit completed journeys of these tenants
	watchFaults  bool          // commit journeys overlapping a fault window
	faultWindows []faultWindow // active/past fault windows, time-ordered

	// Counters.
	Sampled   uint64 // journeys attached to packets
	Drops     uint64 // committed: packet died on the path
	Timeouts  uint64 // committed: reorder released it best-effort
	Triggered uint64 // committed: an operator trigger matched
	Discarded uint64 // sampled journeys that ended uneventfully
}

// faultWindow is one [From, To) interval during which a fault was active.
type faultWindow struct {
	From, To sim.Time
}

// newFlightRecorder builds a recorder sampling every `every` packets with a
// ring of `ringSize` committed journeys.
func newFlightRecorder(every int, ringSize int) *FlightRecorder {
	if ringSize <= 0 {
		ringSize = defaultTraceRing
	}
	f := &FlightRecorder{ring: make([]Journey, ringSize)}
	if every > 0 {
		f.every = uint64(every)
	}
	return f
}

// sample decides (deterministically) whether the next injected packet is
// traced, and if so returns its journey builder.
func (f *FlightRecorder) sample() *Journey {
	if f.every == 0 {
		return nil
	}
	f.seen++
	if f.seen%f.every != 0 {
		return nil
	}
	f.Sampled++
	var j *Journey
	if n := len(f.pool); n > 0 {
		j = f.pool[n-1]
		f.pool[n-1] = nil
		f.pool = f.pool[:n-1]
	} else {
		j = &Journey{}
	}
	return j
}

// TriggerLatencyOver arms a commit trigger: completed journeys whose
// end-to-end latency meets or exceeds d are committed (reason
// JourneyLatencyTrigger). d <= 0 disarms.
func (f *FlightRecorder) TriggerLatencyOver(d sim.Duration) { f.latencyOver = d }

// TriggerVNI adds tenant v to the watch list: completed journeys carrying
// its VNI are committed (reason JourneyVNIWatch).
func (f *FlightRecorder) TriggerVNI(v uint32) { f.vniWatch = append(f.vniWatch, v) }

// TriggerFaultWindow arms fault-window capture: completed journeys whose
// flight overlaps any fault activation window on this pod are committed
// (reason JourneyFaultWindow). The windows themselves are recorded by the
// fault-injection ops whether or not the trigger is armed.
func (f *FlightRecorder) TriggerFaultWindow() { f.watchFaults = true }

// noteFaultWindow records a fault activation interval [from, to). Abutting
// or overlapping windows merge so the list stays bounded by the number of
// disjoint fault episodes.
func (f *FlightRecorder) noteFaultWindow(from, to sim.Time) {
	if to < from {
		from, to = to, from
	}
	if n := len(f.faultWindows); n > 0 && from <= f.faultWindows[n-1].To {
		if to > f.faultWindows[n-1].To {
			f.faultWindows[n-1].To = to
		}
		return
	}
	f.faultWindows = append(f.faultWindows, faultWindow{From: from, To: to})
}

// triggered classifies a *completed, in-order* journey against the armed
// operator triggers. Precedence: latency, fault window, VNI watch.
func (f *FlightRecorder) triggered(j *Journey, now sim.Time) (JourneyReason, bool) {
	if f.latencyOver > 0 && now.Sub(j.T0) >= f.latencyOver {
		return JourneyLatencyTrigger, true
	}
	if f.watchFaults {
		for i := range f.faultWindows {
			w := &f.faultWindows[i]
			if j.T0 < w.To && now >= w.From {
				return JourneyFaultWindow, true
			}
		}
	}
	for _, v := range f.vniWatch {
		if j.Flow.VNI == v {
			return JourneyVNIWatch, true
		}
	}
	return 0, false
}

// finish closes a journey at the end of its packet's life: drops and
// timeout-released packets commit into the ring (built-in reasons take
// precedence), then the operator triggers get a look; everything else
// recycles silently.
func (f *FlightRecorder) finish(j *Journey, now sim.Time) {
	j.End = now
	switch {
	case !j.completed:
		j.Reason = JourneyDropped
		j.leave(now, StepDrop)
		f.Drops++
		f.commit(j)
	case j.timeout:
		j.Reason = JourneyTimeoutRelease
		f.Timeouts++
		f.commit(j)
	default:
		if reason, ok := f.triggered(j, now); ok {
			j.Reason = reason
			f.Triggered++
			f.commit(j)
		} else {
			f.Discarded++
		}
	}
	*j = Journey{}
	f.pool = append(f.pool, j)
}

// commit copies the journey into the ring (no allocation).
func (f *FlightRecorder) commit(j *Journey) {
	f.ring[f.next] = *j
	f.next++
	if f.next == len(f.ring) {
		f.next = 0
		f.wrap = true
	}
}

// Journeys returns the retained journeys, oldest first. The ring bounds
// retention to its size; Drops + Timeouts + Triggered counts everything
// ever recorded.
func (f *FlightRecorder) Journeys() []Journey {
	if !f.wrap {
		out := make([]Journey, f.next)
		copy(out, f.ring[:f.next])
		return out
	}
	out := make([]Journey, 0, len(f.ring))
	out = append(out, f.ring[f.next:]...)
	out = append(out, f.ring[:f.next]...)
	return out
}

// Flight returns the pod's packet flight recorder.
func (pr *PodRuntime) Flight() *FlightRecorder { return pr.flight }
