package albatross

import (
	"io"
	"net/http"

	"albatross/internal/metrics"
	"albatross/internal/workload"
	"albatross/internal/workload/trace"
)

// Traffic-source construction. NewSource replaces hand-filled Source
// literals with a validated functional-options constructor; every option
// error wraps ErrBadConfig.
type (
	// SourceOption configures a traffic source built with NewSource.
	SourceOption = workload.Option
)

// NewSource builds a validated Poisson traffic source. WithFlows, WithRate
// and WithSink are required.
func NewSource(opts ...SourceOption) (*Source, error) { return workload.New(opts...) }

// WithFlows sets the flow set the source draws arrivals from.
func WithFlows(flows []Flow) SourceOption { return workload.WithFlows(flows) }

// WithRate sets the offered-rate function (ConstantRate, StepRate, ...).
func WithRate(rate RateFn) SourceOption { return workload.WithRate(rate) }

// WithSourceSeed seeds the source's private RNG stream. (The deployment
// option WithSeed seeds the node; two sources on one engine should use
// distinct source seeds.)
func WithSourceSeed(seed uint64) SourceOption { return workload.WithSeed(seed) }

// WithSink sets the function each generated packet is delivered to
// (PodRuntime.Sink, Cluster.Sink, or a trace-recording wrapper).
func WithSink(sink func(Flow, int)) SourceOption { return workload.WithSink(sink) }

// WithPacketBytes sets the simulated packet size in bytes (default 256).
func WithPacketBytes(n int) SourceOption { return workload.WithPacketBytes(n) }

// WithZipf skews per-flow popularity with a Zipf distribution of the given
// exponent (0 = uniform).
func WithZipf(exponent float64) SourceOption { return workload.WithZipf(exponent) }

// Trace record/replay types (see DESIGN.md §10). A Trace captures the
// exact packet injection schedule of a run; replaying it against a fresh
// deployment reproduces the run byte-for-byte, and replaying it under a
// different fault plan turns the outcome diff into a gameday drill.
type (
	// Trace is a recorded injection schedule plus its header.
	Trace = trace.Trace
	// TraceEvent is one recorded packet injection.
	TraceEvent = trace.Event
	// TraceHeader is the trace's JSON metadata (also saved as a sidecar).
	TraceHeader = trace.Header
	// TraceRecorder captures a live run's schedule (Cluster.RecordingSink).
	TraceRecorder = trace.Recorder
	// TraceReplayer drives an engine from a trace (Cluster.ReplayTrace).
	TraceReplayer = trace.Replayer
	// ReplayDiff is a structural comparison of two outcome reports
	// (Cluster.Outcome) from replays of one trace.
	ReplayDiff = trace.DiffReport
	// ReplayDiffLine is one changed line of a ReplayDiff.
	ReplayDiffLine = trace.DiffLine
)

// ErrBadTrace reports a malformed trace artifact (wraps ErrBadConfig).
var ErrBadTrace = trace.ErrBadTrace

// NewTraceRecorder creates a recorder; virtual timestamps are relative to
// the engine's current time.
func NewTraceRecorder(engine *Engine) *TraceRecorder { return trace.NewRecorder(engine) }

// ReadTrace decodes a trace artifact from r.
func ReadTrace(r io.Reader) (*Trace, error) { return trace.Read(r) }

// ReadTraceFile loads a trace artifact saved by Trace.WriteFile.
func ReadTraceFile(path string) (*Trace, error) { return trace.ReadFile(path) }

// ReplayTraceInto replays t into an arbitrary sink on engine — the
// low-level form of Cluster.ReplayTrace for single-node runs
// (PodRuntime.Sink).
func ReplayTraceInto(engine *Engine, t *Trace, sink func(Flow, int)) (*TraceReplayer, error) {
	return trace.Replay(engine, t, sink)
}

// DiffOutcomes compares two outcome reports line by line.
func DiffOutcomes(labelA, reportA, labelB, reportB string) *ReplayDiff {
	return trace.Diff(labelA, reportA, labelB, reportB)
}

// MetricsHandler serves a metrics snapshot as Prometheus text exposition;
// snap is called per request, off the simulation's hot path.
func MetricsHandler(snap func() *MetricsSnapshot) http.Handler { return metrics.Handler(snap) }

// MetricsJSONHandler serves the same snapshot as MetricsHandler in JSON
// form (the /metrics.json endpoint).
func MetricsJSONHandler(snap func() *MetricsSnapshot) http.Handler { return metrics.JSONHandler(snap) }

// Timeline is the virtual-time telemetry sampler: per-tick metric series
// recorded every WithSnapshotEvery of virtual time (Cluster.Timeline),
// exported as CSV/JSON. Series are byte-identical at any shard count and
// burst size for a fixed seed.
type Timeline = metrics.Timeline

// SeriesHandler serves a timeline as CSV (the /series endpoint); tl is
// called per request and may return nil (404) while sampling is off.
func SeriesHandler(tl func() *Timeline) http.Handler { return metrics.SeriesHandler(tl) }

// SeriesJSONHandler serves a timeline as JSON (the /series.json endpoint),
// with the same nil-means-404 contract as SeriesHandler.
func SeriesJSONHandler(tl func() *Timeline) http.Handler { return metrics.SeriesJSONHandler(tl) }

// Content types served by the metrics/series HTTP handlers.
const (
	// MetricsContentType is the Prometheus text exposition content type
	// served by MetricsHandler.
	MetricsContentType = metrics.PrometheusContentType
	// MetricsJSONContentType is served by MetricsJSONHandler and
	// SeriesJSONHandler.
	MetricsJSONContentType = metrics.JSONContentType
	// SeriesContentType is the CSV content type served by SeriesHandler.
	SeriesContentType = metrics.CSVContentType
)
