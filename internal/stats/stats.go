// Package stats provides the measurement primitives used by every
// Albatross experiment: log-linear latency histograms with percentile
// extraction, streaming mean/variance accumulators, counters, and fixed
// time-series buffers for utilization traces.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
)

// Histogram is a log-linear histogram in the style of HdrHistogram: values
// are bucketed by their magnitude (power-of-two exponent) and a fixed number
// of linear sub-buckets per magnitude. It records int64 values (nanoseconds
// in most Albatross experiments) with bounded relative error.
type Histogram struct {
	subBits uint // sub-buckets per magnitude = 1<<subBits
	buckets []uint64
	count   uint64
	sum     int64
	min     int64
	max     int64
}

// NewHistogram returns a histogram with 1<<subBits linear sub-buckets per
// power-of-two magnitude (relative error <= 1/2^subBits). subBits in [1, 12].
func NewHistogram(subBits uint) *Histogram {
	if subBits < 1 || subBits > 12 {
		panic(fmt.Sprintf("stats: subBits %d out of [1,12]", subBits))
	}
	// 64 magnitudes cover the full int64 range.
	return &Histogram{
		subBits: subBits,
		buckets: make([]uint64, 64<<subBits),
		min:     math.MaxInt64,
		max:     math.MinInt64,
	}
}

// NewLatencyHistogram returns the standard histogram used for latency
// measurements (256 sub-buckets, <0.4% relative error).
func NewLatencyHistogram() *Histogram { return NewHistogram(8) }

// index maps a non-negative value to its bucket index.
func (h *Histogram) index(v int64) int {
	if v < 0 {
		v = 0
	}
	sub := int64(1) << h.subBits
	if v < sub {
		return int(v)
	}
	// magnitude = position of the highest set bit above subBits.
	mag := 63 - bits.LeadingZeros64(uint64(v)) - int(h.subBits)
	subIdx := (v >> uint(mag)) & (sub - 1)
	return (mag+1)<<h.subBits + int(subIdx)
}

// lowerBound returns the smallest value that maps to bucket i.
func (h *Histogram) lowerBound(i int) int64 {
	sub := 1 << h.subBits
	if i < sub*2 {
		return int64(i)
	}
	mag := i>>h.subBits - 1
	subIdx := i & (sub - 1)
	return (int64(sub) + int64(subIdx)) << uint(mag)
}

// Record adds a value to the histogram. Negative values clamp to zero.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	i := h.index(v)
	if i >= len(h.buckets) {
		i = len(h.buckets) - 1
	}
	h.buckets[i]++
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// RecordZero adds a zero-valued sample. It is Record(0) minus the bucket
// index computation — the fast path for synchronous pipeline stages, whose
// residency is always zero virtual time.
func (h *Histogram) RecordZero() {
	h.buckets[0]++
	h.count++
	if h.min > 0 {
		h.min = 0
	}
	if h.max < 0 {
		h.max = 0
	}
}

// RecordN adds n samples of the same value — one bucket-index computation
// for the whole batch. A burst of packets entering a stage at one virtual
// time shares a single residency value, so the burst path records it once.
func (h *Histogram) RecordN(v int64, n uint64) {
	if n == 0 {
		return
	}
	if v < 0 {
		v = 0
	}
	i := h.index(v)
	if i >= len(h.buckets) {
		i = len(h.buckets) - 1
	}
	h.buckets[i] += n
	h.count += n
	h.sum += v * int64(n)
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// RelativeError returns the worst-case relative quantization error of a
// recorded value: 1/2^subBits.
func (h *Histogram) RelativeError() float64 { return 1 / float64(uint64(1)<<h.subBits) }

// Count returns the number of recorded values.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the sum of recorded values.
func (h *Histogram) Sum() int64 { return h.sum }

// Mean returns the arithmetic mean, or 0 when empty.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Min returns the smallest recorded value, or 0 when empty.
func (h *Histogram) Min() int64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded value, or 0 when empty.
func (h *Histogram) Max() int64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Quantile returns an estimate of the q-quantile (q in [0,1]). It returns 0
// when the histogram is empty.
func (h *Histogram) Quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(h.count)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.buckets {
		cum += c
		if cum >= target {
			lb := h.lowerBound(i)
			if lb < h.min {
				lb = h.min
			}
			if lb > h.max {
				lb = h.max
			}
			return lb
		}
	}
	return h.max
}

// FractionAbove returns the fraction of recorded values strictly greater
// than v (within bucket resolution).
func (h *Histogram) FractionAbove(v int64) float64 {
	if h.count == 0 {
		return 0
	}
	idx := h.index(v)
	var above uint64
	for i := idx + 1; i < len(h.buckets); i++ {
		above += h.buckets[i]
	}
	return float64(above) / float64(h.count)
}

// FractionBetween returns the fraction of values in (lo, hi].
func (h *Histogram) FractionBetween(lo, hi int64) float64 {
	return h.FractionAbove(lo) - h.FractionAbove(hi)
}

// BucketSnapshot copies the histogram's raw bucket counts into dst,
// growing it if needed, and returns the slice. A snapshot taken before a
// batch of Records and passed to DeltaCount/DeltaQuantile later yields
// statistics over exactly the samples recorded in between — the
// primitive behind per-tick timeline quantiles.
func (h *Histogram) BucketSnapshot(dst []uint64) []uint64 {
	if cap(dst) < len(h.buckets) {
		dst = make([]uint64, len(h.buckets))
	}
	dst = dst[:len(h.buckets)]
	copy(dst, h.buckets)
	return dst
}

// DeltaCount returns the number of samples recorded since prev, a bucket
// snapshot of this histogram taken earlier with BucketSnapshot.
func (h *Histogram) DeltaCount(prev []uint64) uint64 {
	if len(prev) != len(h.buckets) {
		panic(fmt.Sprintf("stats: bucket snapshot length %d != %d", len(prev), len(h.buckets)))
	}
	var total uint64
	for i, c := range h.buckets {
		total += c - prev[i]
	}
	return total
}

// DeltaQuantile estimates the q-quantile over the samples recorded since
// prev (an earlier BucketSnapshot of this histogram). It returns 0 when no
// samples were recorded in between. Values carry the histogram's bucket
// resolution; unlike Quantile there is no min/max clamp, because the delta
// window's extremes are not tracked.
func (h *Histogram) DeltaQuantile(q float64, prev []uint64) int64 {
	if len(prev) != len(h.buckets) {
		panic(fmt.Sprintf("stats: bucket snapshot length %d != %d", len(prev), len(h.buckets)))
	}
	var total uint64
	for i, c := range h.buckets {
		total += c - prev[i]
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(total)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.buckets {
		cum += c - prev[i]
		if cum >= target {
			return h.lowerBound(i)
		}
	}
	return h.lowerBound(len(h.buckets) - 1)
}

// Reset clears all recorded samples.
func (h *Histogram) Reset() {
	for i := range h.buckets {
		h.buckets[i] = 0
	}
	h.count = 0
	h.sum = 0
	h.min = math.MaxInt64
	h.max = math.MinInt64
}

// String summarizes the distribution.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%.1f p50=%d p99=%d p999=%d max=%d",
		h.count, h.Mean(), h.Quantile(0.50), h.Quantile(0.99), h.Quantile(0.999), h.Max())
}

// Welford is a streaming mean/variance accumulator (Welford's algorithm).
type Welford struct {
	n    uint64
	mean float64
	m2   float64
}

// Add records a sample.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// Variance returns the population variance.
func (w *Welford) Variance() float64 {
	if w.n == 0 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// Stddev returns the population standard deviation.
func (w *Welford) Stddev() float64 { return math.Sqrt(w.Variance()) }

// Series is an append-only time series of (t, v) points with summary
// helpers; used for utilization traces (Fig. 10) and rate plots (Fig. 13/14).
type Series struct {
	T []float64
	V []float64
}

// Append adds a point.
func (s *Series) Append(t, v float64) {
	s.T = append(s.T, t)
	s.V = append(s.V, v)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.V) }

// Mean returns the mean of the values, or 0 when empty.
func (s *Series) Mean() float64 {
	if len(s.V) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.V {
		sum += v
	}
	return sum / float64(len(s.V))
}

// Max returns the maximum value, or 0 when empty.
func (s *Series) Max() float64 {
	if len(s.V) == 0 {
		return 0
	}
	m := s.V[0]
	for _, v := range s.V[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// StddevAcross computes, pointwise, the standard deviation across several
// aligned series (e.g. per-core utilization) and returns it as a new series.
// All series must have the same length.
func StddevAcross(series []*Series) *Series {
	out := &Series{}
	if len(series) == 0 {
		return out
	}
	n := series[0].Len()
	for _, s := range series {
		if s.Len() != n {
			panic("stats: StddevAcross over misaligned series")
		}
	}
	for i := 0; i < n; i++ {
		var w Welford
		for _, s := range series {
			w.Add(s.V[i])
		}
		out.Append(series[0].T[i], w.Stddev())
	}
	return out
}

// Table renders aligned text tables for experiment reports.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	width := make([]int, len(t.header))
	for i, h := range t.header {
		width[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			for p := len(c); p < width[i]; p++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}
