package metrics

import (
	"hash"
	"hash/fnv"
	"io"
	"slices"
	"strconv"
	"strings"

	"albatross/internal/stats"
)

// HistValue is a histogram series' exported summary.
type HistValue struct {
	Count uint64
	Sum   int64
	Min   int64
	Max   int64
	P50   int64
	P90   int64
	P99   int64
	P999  int64
	Mean  float64
}

func histValue(h *stats.Histogram) HistValue {
	return HistValue{
		Count: h.Count(), Sum: h.Sum(), Min: h.Min(), Max: h.Max(),
		P50: h.Quantile(0.5), P90: h.Quantile(0.9),
		P99: h.Quantile(0.99), P999: h.Quantile(0.999),
		Mean: h.Mean(),
	}
}

// SeriesValue is one series' frozen state.
type SeriesValue struct {
	Labels []Label
	Value  float64
	Hist   *HistValue
}

// FamilyValue is one metric family's frozen state.
type FamilyValue struct {
	Name   string
	Help   string
	Kind   string
	Series []SeriesValue
}

// Snapshot is a registry frozen at one instant, fully ordered.
type Snapshot struct {
	Families []FamilyValue
}

// Snapshot reads every registered series and returns a frozen, ordered
// copy. Reading is cheap (counters and gauges are closure calls; histogram
// quantiles scan buckets) and never mutates simulator state.
func (r *Registry) Snapshot() *Snapshot {
	fams := r.ordered()
	snap := &Snapshot{Families: make([]FamilyValue, 0, len(fams))}
	for _, f := range fams {
		fv := FamilyValue{Name: f.name, Help: f.help, Kind: f.kind.String(),
			Series: make([]SeriesValue, 0, len(f.series))}
		for _, s := range f.series {
			sv := SeriesValue{Labels: s.labels}
			switch f.kind {
			case KindCounter:
				sv.Value = float64(s.counter())
			case KindGauge:
				sv.Value = s.gauge()
			case KindHistogram:
				h := histValue(s.hist)
				sv.Hist = &h
			}
			fv.Series = append(fv.Series, sv)
		}
		snap.Families = append(snap.Families, fv)
	}
	return snap
}

// appendFloat renders a float the same way on every platform.
func appendFloat(b []byte, v float64) []byte { return strconv.AppendFloat(b, v, 'g', -1, 64) }

// appendLabels renders a sorted label set (plus an optional extra pair) in
// exposition syntax: {a="x",b="y"}, or nothing.
func appendLabels(b []byte, labels []Label, extraKey, extraVal string) []byte {
	if len(labels) == 0 && extraKey == "" {
		return b
	}
	b = append(b, '{')
	for i, l := range labels {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, l.Key...)
		b = append(b, '=')
		b = strconv.AppendQuote(b, l.Value)
	}
	if extraKey != "" {
		if len(labels) > 0 {
			b = append(b, ',')
		}
		b = append(b, extraKey...)
		b = append(b, '=')
		b = strconv.AppendQuote(b, extraVal)
	}
	return append(b, '}')
}

// promWriter is the one Prometheus text renderer. It writes each line to w
// as soon as it is built, through one reused buffer, so an export costs
// its longest line, not the document. Histograms export as summaries:
// precomputed quantiles plus _sum/_count. The first write error sticks.
type promWriter struct {
	w   io.Writer
	buf []byte
	err error
}

func (p *promWriter) line() {
	p.buf = append(p.buf, '\n')
	if p.err == nil {
		_, p.err = p.w.Write(p.buf)
	}
	p.buf = p.buf[:0]
}

// family writes a family's HELP and TYPE lines; typ is the exposition
// type (a histogram's is summary).
func (p *promWriter) family(name, help, typ string) {
	p.buf = append(append(append(append(p.buf, "# HELP "...), name...), ' '), help...)
	p.line()
	p.buf = append(append(append(append(p.buf, "# TYPE "...), name...), ' '), typ...)
	p.line()
}

func (p *promWriter) value(name string, labels []Label, v float64) {
	p.buf = appendLabels(append(p.buf, name...), labels, "", "")
	p.buf = appendFloat(append(p.buf, ' '), v)
	p.line()
}

func (p *promWriter) hist(name string, labels []Label, h *HistValue) {
	for _, q := range [...]struct {
		label string
		v     int64
	}{{"0.5", h.P50}, {"0.9", h.P90}, {"0.99", h.P99}, {"0.999", h.P999}} {
		p.buf = appendLabels(append(p.buf, name...), labels, "quantile", q.label)
		p.buf = strconv.AppendInt(append(p.buf, ' '), q.v, 10)
		p.line()
	}
	p.buf = appendLabels(append(append(p.buf, name...), "_sum"...), labels, "", "")
	p.buf = strconv.AppendInt(append(p.buf, ' '), h.Sum, 10)
	p.line()
	p.buf = appendLabels(append(append(p.buf, name...), "_count"...), labels, "", "")
	p.buf = strconv.AppendUint(append(p.buf, ' '), h.Count, 10)
	p.line()
}

// WritePrometheus streams the registry's Prometheus text exposition to w,
// reading every series as it goes: no snapshot and no whole-document
// string are built. The bytes equal Snapshot().Prometheus().
func (r *Registry) WritePrometheus(w io.Writer) error {
	p := promWriter{w: w}
	for _, f := range r.ordered() {
		p.family(f.name, f.help, f.kind.promKind())
		for _, s := range f.series {
			switch f.kind {
			case KindCounter:
				p.value(f.name, s.labels, float64(s.counter()))
			case KindGauge:
				p.value(f.name, s.labels, s.gauge())
			case KindHistogram:
				h := histValue(s.hist)
				p.hist(f.name, s.labels, &h)
			}
		}
	}
	return p.err
}

// Checksum returns the FNV-64a hash and length of the Prometheus export,
// streamed: the metrics fingerprint embedded in Cluster.Outcome().
func (r *Registry) Checksum() (uint64, int) {
	d := digest{h: fnv.New64a()}
	r.WritePrometheus(&d)
	return d.h.Sum64(), d.n
}

// digest is an io.Writer that FNV-64a hashes and counts what it is given.
// Its Write never fails (a hash.Hash never returns an error), so the
// checksums ignore the writers' error results.
type digest struct {
	h hash.Hash64
	n int
}

func (d *digest) Write(b []byte) (int, error) {
	d.n += len(b)
	return d.h.Write(b)
}

// writePrometheus renders the frozen snapshot through the same renderer.
func (s *Snapshot) writePrometheus(w io.Writer) error {
	p := promWriter{w: w}
	for _, f := range s.Families {
		typ := f.Kind
		if typ == KindHistogram.String() {
			typ = KindHistogram.promKind()
		}
		p.family(f.Name, f.Help, typ)
		for _, sv := range f.Series {
			if sv.Hist == nil {
				p.value(f.Name, sv.Labels, sv.Value)
			} else {
				p.hist(f.Name, sv.Labels, sv.Hist)
			}
		}
	}
	return p.err
}

// Prometheus renders the snapshot in Prometheus text exposition format.
func (s *Snapshot) Prometheus() string {
	var b strings.Builder
	s.writePrometheus(&b)
	return b.String()
}

// Find returns the value of the single series of family name whose labels
// include every given pair, and whether exactly one matched — a test and
// report helper, not a query language.
func (s *Snapshot) Find(name string, labels ...Label) (SeriesValue, bool) {
	var hit SeriesValue
	found := 0
	for _, f := range s.Families {
		if f.Name != name {
			continue
		}
		for _, sv := range f.Series {
			// No wanted label is missing from the series.
			if !slices.ContainsFunc(labels, func(l Label) bool { return !slices.Contains(sv.Labels, l) }) {
				hit = sv
				found++
			}
		}
	}
	return hit, found == 1
}
