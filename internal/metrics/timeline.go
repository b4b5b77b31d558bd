package metrics

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"albatross/internal/sim"
)

// Timeline samples a Registry at a fixed virtual-time period into a
// columnar store: one row per tick, one column per registered series
// (histograms contribute count/p50/p99 columns; see NewTimeline). Counters
// record per-tick deltas — the rate shape — while gauges record points.
//
// Determinism contract: the caller must invoke Sample only when the
// simulation is quiescent at exactly the tick time (the cluster layer
// slices RunUntil at tick boundaries, which under ShardedEngine forces an
// epoch barrier at every tick). Under that discipline two runs of the same
// seed produce byte-identical CSV/JSON exports at any shard count and any
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

// histSampler tracks one histogram with a single prev-bucket buffer,
// emitting per-tick sample count and per-tick p50/p99 (quantiles over only
// the samples recorded during the tick, via the bucket-delta walk).
type histSampler struct {
	count, p50, p99 *column
	hist            histReader
	prev            []uint64
}

// histReader is the slice of stats.Histogram the sampler needs; an
// interface so tests can stub it.
type histReader interface {
	BucketSnapshot(dst []uint64) []uint64
	DeltaCount(prev []uint64) uint64
	DeltaQuantile(q float64, prev []uint64) int64
}

func (s *histSampler) start() { s.prev = s.hist.BucketSnapshot(s.prev) }
func (s *histSampler) sample() {
	s.count.vals = append(s.count.vals, float64(s.hist.DeltaCount(s.prev)))
	s.p50.vals = append(s.p50.vals, float64(s.hist.DeltaQuantile(0.5, s.prev)))
	s.p99.vals = append(s.p99.vals, float64(s.hist.DeltaQuantile(0.99, s.prev)))
	s.prev = s.hist.BucketSnapshot(s.prev)
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

// NewTimeline builds a timeline over every series currently registered in
// reg. Column keys are the metric name, suffixed with {label-signature}
// when the series has labels, and :count/:p50/:p99 for histogram columns.
// Columns are ordered by (family name, label signature) — the Snapshot
// order — so exports are deterministic. every must be positive.
func NewTimeline(reg *Registry, every sim.Duration) *Timeline {
	if every <= 0 {
		panic(fmt.Sprintf("metrics: timeline period %d must be positive", every))
	}
	tl := &Timeline{every: every, byKey: make(map[string]*column)}
	names := make([]string, 0, len(reg.families))
	for name := range reg.families {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := reg.families[name]
		ordered := append([]*series(nil), f.series...)
		sort.Slice(ordered, func(i, j int) bool { return ordered[i].sig < ordered[j].sig })
		for _, s := range ordered {
			key := name
			if s.sig != "" {
				key = name + "{" + s.sig + "}"
			}
			switch f.kind {
			case KindCounter:
				tl.samplers = append(tl.samplers,
					&counterSampler{col: tl.addColumn(key), read: s.counter})
			case KindGauge:
				tl.samplers = append(tl.samplers,
					&gaugeSampler{col: tl.addColumn(key), read: s.gauge})
			case KindHistogram:
				tl.samplers = append(tl.samplers, &histSampler{
					count: tl.addColumn(key + ":count"),
					p50:   tl.addColumn(key + ":p50"),
					p99:   tl.addColumn(key + ":p99"),
					hist:  s.hist,
				})
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

// Start freezes the column set, records counter/histogram baselines at the
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
	b.WriteString("t_ms")
	for _, c := range tl.cols {
		b.WriteByte(',')
		b.WriteString(csvQuote(c.key))
	}
	b.WriteByte('\n')
	for i, t := range tl.ticks {
		b.WriteString(formatFloat(float64(t) / 1e6))
		for _, c := range tl.cols {
			b.WriteByte(',')
			b.WriteString(formatFloat(c.vals[i]))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// timelineJSON is the JSON export shape.
type timelineJSON struct {
	EveryMS float64              `json:"every_ms"`
	TicksMS []float64            `json:"ticks_ms"`
	Series  []timelineSeriesJSON `json:"series"`
}

type timelineSeriesJSON struct {
	Key    string    `json:"key"`
	Values []float64 `json:"values"`
}

// JSON renders the timeline as indented JSON: the tick axis in virtual
// milliseconds plus every column in export order.
func (tl *Timeline) JSON() ([]byte, error) {
	out := timelineJSON{
		EveryMS: float64(tl.every) / 1e6,
		TicksMS: make([]float64, len(tl.ticks)),
		Series:  make([]timelineSeriesJSON, len(tl.cols)),
	}
	for i, t := range tl.ticks {
		out.TicksMS[i] = float64(t) / 1e6
	}
	for i, c := range tl.cols {
		vals := c.vals
		if vals == nil {
			vals = []float64{}
		}
		out.Series[i] = timelineSeriesJSON{Key: c.key, Values: vals}
	}
	return json.MarshalIndent(out, "", "  ")
}

// Checksum returns the FNV-1a hash and length of the CSV export — the
// series identity fingerprint embedded in Cluster.Outcome(), which the
// byte_identity and replay_identity assertions compare across runs.
func (tl *Timeline) Checksum() (uint64, int) {
	csv := tl.CSV()
	h := fnv.New64a()
	h.Write([]byte(csv))
	return h.Sum64(), len(csv)
}
