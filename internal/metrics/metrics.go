// Package metrics is Albatross's metrics registry: named counters, gauges,
// and histograms registered per pod and rolled up across nodes and
// clusters, exported as Prometheus text exposition or JSON snapshots.
//
// The registry is closure-backed: a metric registration binds a name, help
// text, and label set to a read function over the simulator's own state
// (pod counters, stage histograms, PLB stats). Nothing is double-counted —
// the simulation's counters stay the single source of truth and the
// registry reads them at snapshot time.
//
// Determinism contract: Snapshot output is fully ordered — series sort by
// (name, label signature), labels render sorted by key — so two snapshots
// of identical simulator state serialize byte-identically, at any host
// parallelism. The cluster outcome report carries an FNV-64a of the export,
// so every scenario's byte_identity assertion enforces this.
package metrics

import (
	"fmt"
	"regexp"
	"sort"
	"strings"

	"albatross/internal/stats"
)

// Kind is a metric family's type.
type Kind uint8

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// promKind maps to the Prometheus TYPE line. Histograms export as
// summaries (precomputed quantiles), the natural fit for log-linear
// histograms read at snapshot time.
func (k Kind) promKind() string {
	if k == KindHistogram {
		return "summary"
	}
	return k.String()
}

// Label is one name=value pair attached to a series.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for building a label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

var nameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// series is one registered time series.
type series struct {
	labels []Label
	sig    string // canonical label signature, for ordering and dedup

	// Exactly one of these is set, per the family's kind.
	counter func() uint64
	gauge   func() float64
	hist    *stats.Histogram
}

// family groups series sharing a metric name.
type family struct {
	name   string
	help   string
	kind   Kind
	series []*series
	// sigs holds every registered label signature, so the duplicate check
	// stays O(1) per series in a family of thousands (one per fleet node).
	sigs map[string]struct{}
}

// Registry holds metric families. The zero value is not usable; call New.
// Registration panics on invalid names, kind/help conflicts, and duplicate
// label sets — these are programming errors, caught at wiring time.
type Registry struct {
	families map[string]*family
}

// New creates an empty registry.
func New() *Registry { return &Registry{families: make(map[string]*family)} }

// signature renders labels canonically (sorted by key) for ordering.
func signature(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	return b.String()
}

// sortLabels returns a sorted copy of the label set.
func sortLabels(labels []Label) []Label {
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

func (r *Registry) register(name, help string, kind Kind, s *series) {
	if !nameRe.MatchString(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	for _, l := range s.labels {
		if !nameRe.MatchString(l.Key) {
			panic(fmt.Sprintf("metrics: invalid label key %q on %q", l.Key, name))
		}
	}
	s.labels = sortLabels(s.labels)
	s.sig = signature(s.labels)
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, sigs: make(map[string]struct{})}
		r.families[name] = f
	} else {
		if f.kind != kind {
			panic(fmt.Sprintf("metrics: %q registered as both %v and %v", name, f.kind, kind))
		}
		if f.help != help {
			panic(fmt.Sprintf("metrics: %q registered with conflicting help", name))
		}
	}
	if _, dup := f.sigs[s.sig]; dup {
		panic(fmt.Sprintf("metrics: duplicate series %s{%s}", name, s.sig))
	}
	f.sigs[s.sig] = struct{}{}
	f.series = append(f.series, s)
}

// Counter registers a monotonically increasing series read from fn.
func (r *Registry) Counter(name, help string, fn func() uint64, labels ...Label) {
	if fn == nil {
		panic(fmt.Sprintf("metrics: nil read function for counter %q", name))
	}
	r.register(name, help, KindCounter, &series{labels: labels, counter: fn})
}

// Gauge registers a point-in-time series read from fn.
func (r *Registry) Gauge(name, help string, fn func() float64, labels ...Label) {
	if fn == nil {
		panic(fmt.Sprintf("metrics: nil read function for gauge %q", name))
	}
	r.register(name, help, KindGauge, &series{labels: labels, gauge: fn})
}

// Histogram registers a distribution series backed by a stats.Histogram.
// The histogram is read (not copied) at snapshot time.
func (r *Registry) Histogram(name, help string, h *stats.Histogram, labels ...Label) {
	if h == nil {
		panic(fmt.Sprintf("metrics: nil histogram for %q", name))
	}
	r.register(name, help, KindHistogram, &series{labels: labels, hist: h})
}
