package metrics

import (
	"fmt"
	"hash/fnv"
	"io"
	"strings"

	"albatross/internal/sim"
)

// Timeline samples a Registry at a fixed virtual-time period into a
// columnar store: one row per tick, one column per registered counter or
// gauge (see NewTimeline). Counters record per-tick deltas — the rate
// shape — while gauges record points.
//
// Determinism contract: the caller must invoke Sample only when the
// simulation is quiescent at exactly the tick time (the cluster layer
// slices RunUntil at tick boundaries, which under ShardedEngine forces an
// epoch barrier at every tick). Under that discipline two runs of the same
// seed produce byte-identical CSV exports at any shard count and any
// dispatch burst size, which the series-* rows of `make check` enforce.
type Timeline struct {
	every    sim.Duration
	started  bool
	next     sim.Time
	ticks    []sim.Time
	cols     []*column
	byKey    map[string]*column
	samplers []sampler
	ratios   []ratioSampler
}

// column is one series' value per tick, columnar for cheap CSV export.
type column struct {
	key  string
	vals []float64
}

// sampler appends one tick's value(s) to its column(s). start() records
// the pre-run baseline so the first tick's deltas are correct.
type sampler interface {
	start()
	sample()
}

type counterSampler struct {
	col  *column
	read func() uint64
	prev uint64
}

func (s *counterSampler) start() { s.prev = s.read() }
func (s *counterSampler) sample() {
	cur := s.read()
	s.col.vals = append(s.col.vals, float64(cur-s.prev))
	s.prev = cur
}

type gaugeSampler struct {
	col  *column
	read func() float64
}

func (s *gaugeSampler) start() {}
func (s *gaugeSampler) sample() {
	s.col.vals = append(s.col.vals, s.read())
}

// ratioSampler derives num/den per tick after the base samplers run.
// A zero-denominator tick records fallback (e.g. availability 1 when no
// packets were sprayed: nothing offered, nothing lost).
type ratioSampler struct {
	col      *column
	num, den *column
	fallback float64
}

func (s *ratioSampler) sample() {
	i := len(s.col.vals)
	d := s.den.vals[i]
	if d == 0 {
		s.col.vals = append(s.col.vals, s.fallback)
		return
	}
	s.col.vals = append(s.col.vals, s.num.vals[i]/d)
}

// NewTimeline builds a timeline over every counter and gauge currently
// registered in reg; histograms are not sampled. Column keys are the metric
// name, suffixed with {label-signature} when the series has labels.
// Columns are ordered by (family name, label signature) — the Snapshot
// order — so exports are deterministic. every must be positive.
func NewTimeline(reg *Registry, every sim.Duration) *Timeline {
	if every <= 0 {
		panic(fmt.Sprintf("metrics: timeline period %d must be positive", every))
	}
	tl := &Timeline{every: every, byKey: make(map[string]*column)}
	for _, f := range reg.ordered() {
		for _, s := range f.series {
			key := f.name
			if s.sig != "" {
				key = f.name + "{" + s.sig + "}"
			}
			switch f.kind {
			case KindCounter:
				tl.samplers = append(tl.samplers,
					&counterSampler{col: tl.addColumn(key), read: s.counter})
			case KindGauge:
				tl.samplers = append(tl.samplers,
					&gaugeSampler{col: tl.addColumn(key), read: s.gauge})
			}
		}
	}
	return tl
}

func (tl *Timeline) addColumn(key string) *column {
	if tl.byKey[key] != nil {
		panic(fmt.Sprintf("metrics: duplicate timeline column %q", key))
	}
	c := &column{key: key}
	tl.cols = append(tl.cols, c)
	tl.byKey[key] = c
	return c
}

// AddRatio appends a derived column key = num/den computed per tick, with
// fallback recorded on zero-denominator ticks. Both operands must already
// be columns (derived columns may chain onto earlier derived columns).
// Must be called before Start.
func (tl *Timeline) AddRatio(key, numKey, denKey string, fallback float64) {
	if tl.started {
		panic("metrics: AddRatio after Start")
	}
	num, den := tl.byKey[numKey], tl.byKey[denKey]
	if num == nil || den == nil {
		panic(fmt.Sprintf("metrics: ratio %q references unknown column (%q/%q)", key, numKey, denKey))
	}
	tl.ratios = append(tl.ratios, ratioSampler{col: tl.addColumn(key), num: num, den: den, fallback: fallback})
}

// Start freezes the column set, records counter baselines at the
// current virtual time, and arms the first tick at now+every.
func (tl *Timeline) Start(now sim.Time) {
	if tl.started {
		panic("metrics: timeline started twice")
	}
	tl.started = true
	tl.next = now.Add(tl.every)
	for _, s := range tl.samplers {
		s.start()
	}
}

// Next returns the virtual time of the next pending tick. Only valid after
// Start.
func (tl *Timeline) Next() sim.Time {
	if !tl.started {
		panic("metrics: Next before Start")
	}
	return tl.next
}

// Sample records one tick. now must equal Next(): the cluster layer
// advances the engines to exactly the tick boundary before calling — any
// drift would silently skew every series, so it is a panic, not a skip.
func (tl *Timeline) Sample(now sim.Time) {
	if !tl.started {
		panic("metrics: Sample before Start")
	}
	if now != tl.next {
		panic(fmt.Sprintf("metrics: Sample at t=%d, expected tick t=%d", now, tl.next))
	}
	tl.ticks = append(tl.ticks, now)
	for _, s := range tl.samplers {
		s.sample()
	}
	for i := range tl.ratios {
		tl.ratios[i].sample()
	}
	tl.next = tl.next.Add(tl.every)
}

// Every returns the sampling period.
func (tl *Timeline) Every() sim.Duration { return tl.every }

// Len returns the number of recorded ticks.
func (tl *Timeline) Len() int { return len(tl.ticks) }

// Ticks returns the recorded tick times (shared slice; do not mutate).
func (tl *Timeline) Ticks() []sim.Time { return tl.ticks }

// Keys returns the column keys in export order.
func (tl *Timeline) Keys() []string {
	out := make([]string, len(tl.cols))
	for i, c := range tl.cols {
		out[i] = c.key
	}
	return out
}

// Values returns the per-tick values of one column and whether the key
// exists (shared slice; do not mutate).
func (tl *Timeline) Values(key string) ([]float64, bool) {
	c := tl.byKey[key]
	if c == nil {
		return nil, false
	}
	return c.vals, true
}

// csvQuote quotes a header cell per RFC 4180 when it contains a comma,
// quote, or newline — label signatures contain both commas and quotes.
func csvQuote(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// CSV renders the timeline as one header row (t_ms then column keys) and
// one row per tick. Times are virtual milliseconds; values render with the
// same platform-stable float formatting as the other exporters.
func (tl *Timeline) CSV() string {
	var b strings.Builder
	tl.writeCSV(&b)
	return b.String()
}

// writeCSV streams the CSV export to w one row at a time, through one
// reused buffer. The first write error sticks.
func (tl *Timeline) writeCSV(w io.Writer) error {
	var err error
	b := []byte("t_ms")
	row := func() {
		b = append(b, '\n')
		if err == nil {
			_, err = w.Write(b)
		}
		b = b[:0]
	}
	for _, c := range tl.cols {
		b = append(append(b, ','), csvQuote(c.key)...)
	}
	row()
	for i, t := range tl.ticks {
		b = appendFloat(b, float64(t)/1e6)
		for _, c := range tl.cols {
			b = appendFloat(append(b, ','), c.vals[i])
		}
		row()
	}
	return err
}

// Checksum returns the FNV-64a hash and length of the CSV export, streamed
// row by row into the hash — the series identity fingerprint embedded in
// Cluster.Outcome(), which the byte_identity and replay_identity
// assertions compare across runs.
func (tl *Timeline) Checksum() (uint64, int) {
	d := digest{h: fnv.New64a()}
	tl.writeCSV(&d)
	return d.h.Sum64(), d.n
}
