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
	"slices"
	"strconv"
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

// validName reports whether s matches [a-zA-Z_:][a-zA-Z0-9_:]*, the
// exposition syntax of metric names and label keys.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		letter := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':'
		if !letter && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

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
	scratch  []byte // signature buffer, reused across registrations
}

// New creates an empty registry.
func New() *Registry { return &Registry{families: make(map[string]*family)} }

// signature renders sorted labels canonically, key="value" pairs joined by
// commas, for ordering and the duplicate check.
func (r *Registry) signature(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	b := r.scratch[:0]
	for i, l := range labels {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, l.Key...)
		b = append(b, '=')
		b = strconv.AppendQuote(b, l.Value)
	}
	r.scratch = b
	return string(b)
}

func (r *Registry) register(name, help string, kind Kind, s *series) {
	f := r.families[name]
	if f == nil {
		// A family's name is checked once, when its first series arrives.
		if !validName(name) {
			panic(fmt.Sprintf("metrics: invalid metric name %q", name))
		}
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
	for _, l := range s.labels {
		if !validName(l.Key) {
			panic(fmt.Sprintf("metrics: invalid label key %q on %q", l.Key, name))
		}
	}
	s.labels = append([]Label(nil), s.labels...)
	slices.SortStableFunc(s.labels, func(a, b Label) int { return strings.Compare(a.Key, b.Key) })
	s.sig = r.signature(s.labels)
	if _, dup := f.sigs[s.sig]; dup {
		panic(fmt.Sprintf("metrics: duplicate series %s{%s}", name, s.sig))
	}
	f.sigs[s.sig] = struct{}{}
	f.series = append(f.series, s)
}

// ordered returns the families sorted by name, each with its series sorted
// by label signature: the one export order of Snapshot, WritePrometheus and
// NewTimeline.
func (r *Registry) ordered() []*family {
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
		slices.SortFunc(f.series, func(a, b *series) int { return strings.Compare(a.sig, b.sig) })
	}
	slices.SortFunc(fams, func(a, b *family) int { return strings.Compare(a.name, b.name) })
	return fams
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
