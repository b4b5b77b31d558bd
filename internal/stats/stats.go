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
//
// The 64 magnitude rows of 1<<subBits counters each are allocated on first
// touch: a compact buckets slice holds only the rows some value has landed
// in, in the order they were first touched, with its capacity rounded up to
// a power of two of rows (addRow). A latency histogram therefore costs a
// few rows, not the 64 that cover all of int64.
type Histogram struct {
	// The fields Record writes come first; with the one-byte row table the
	// header is 128 bytes, two cache lines.
	buckets []uint64
	count   uint64
	sum     int64
	min     int64
	max     int64
	subBits uint // sub-buckets per magnitude = 1<<subBits
	// row[r] is 1 + the ordinal in buckets of magnitude row r (its counters
	// start at buckets[(row[r]-1)<<subBits]), or 0 while no value has
	// landed in that row. Row 0 (values below 1<<subBits) is allocated by
	// NewHistogram, so row[0] == 1 always.
	row [64]uint8
}

// NewHistogram returns a histogram with 1<<subBits linear sub-buckets per
// power-of-two magnitude (relative error <= 1/2^subBits). subBits in [1, 12].
func NewHistogram(subBits uint) *Histogram {
	if subBits < 1 || subBits > 12 {
		panic(fmt.Sprintf("stats: subBits %d out of [1,12]", subBits))
	}
	h := &Histogram{
		subBits: subBits,
		buckets: make([]uint64, 1<<subBits),
		min:     math.MaxInt64,
		max:     math.MinInt64,
	}
	h.row[0] = 1
	return h
}

// NewLatencyHistogram returns the standard histogram used for latency
// measurements (256 sub-buckets, <0.4% relative error).
func NewLatencyHistogram() *Histogram { return NewHistogram(8) }

// index maps a non-negative value to its bucket index in the dense layout
// of 64 rows: row index>>subBits, sub-bucket index&(1<<subBits-1).
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

// lowerBound returns the smallest value that maps to dense bucket i.
func (h *Histogram) lowerBound(i int) int64 {
	sub := 1 << h.subBits
	if i < sub*2 {
		return int64(i)
	}
	mag := i>>h.subBits - 1
	subIdx := i & (sub - 1)
	return (int64(sub) + int64(subIdx)) << uint(mag)
}

// addRow appends magnitude row r's counters to buckets and returns its
// row entry. Capacity doubles when the rows fill it, so cap(buckets) is
// the touched rows rounded up to a power of two, times the row width: a
// histogram holds at most twice the rows it touched, and the copies it
// left behind add up to less than it holds. It stays out of line so that
// Record's common path, a touched row, carries no growth code.
//
//go:noinline
func (h *Histogram) addRow(r int) uint8 {
	n := len(h.buckets)
	if n == cap(h.buckets) {
		grown := make([]uint64, n, 2*n)
		copy(grown, h.buckets)
		h.buckets = grown
	}
	// Capacity past len has never been written: rows are never removed.
	h.buckets = h.buckets[:n+1<<h.subBits]
	h.row[r] = uint8(n>>h.subBits + 1)
	return h.row[r]
}

// rowCounts returns magnitude row r's counters, or nil while it is
// untouched.
func (h *Histogram) rowCounts(r int) []uint64 {
	p := int(h.row[r])
	if p == 0 {
		return nil
	}
	return h.buckets[(p-1)<<h.subBits : p<<h.subBits]
}

// Record adds a value to the histogram. Negative values clamp to zero.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	// The &63 masks are no-ops (subBits <= 12, mag <= 62) that let the
	// compiler drop its shift-overflow and bounds fixups.
	sb := h.subBits & 63
	r, s := 0, v
	if v >= 1<<sb {
		mag := uint(63-bits.LeadingZeros64(uint64(v))) - sb
		r, s = int(mag&63)+1, (v>>(mag&63))&(1<<sb-1)
	}
	p := h.row[r&63]
	if p == 0 {
		p = h.addRow(r)
	}
	h.buckets[(int(p)-1)<<sb+int(s)]++
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
// residency is always zero virtual time. Row 0 is always allocated and
// always first, so zero's bucket is buckets[0].
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
	// Bucket lookup as in Record.
	sb := h.subBits & 63
	r, s := 0, v
	if v >= 1<<sb {
		mag := uint(63-bits.LeadingZeros64(uint64(v))) - sb
		r, s = int(mag&63)+1, (v>>(mag&63))&(1<<sb-1)
	}
	p := h.row[r&63]
	if p == 0 {
		p = h.addRow(r)
	}
	h.buckets[(int(p)-1)<<sb+int(s)] += n
	h.count += n
	h.sum += v * int64(n)
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

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
	for r := range h.row {
		for s, c := range h.rowCounts(r) {
			cum += c
			if cum >= target {
				lb := h.lowerBound(r<<h.subBits + s)
				if lb < h.min {
					lb = h.min
				}
				if lb > h.max {
					lb = h.max
				}
				return lb
			}
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
	for r := idx >> h.subBits; r < len(h.row); r++ {
		for s, c := range h.rowCounts(r) {
			if r<<h.subBits+s > idx {
				above += c
			}
		}
	}
	return float64(above) / float64(h.count)
}

// FractionBetween returns the fraction of values in (lo, hi].
func (h *Histogram) FractionBetween(lo, hi int64) float64 {
	return h.FractionAbove(lo) - h.FractionAbove(hi)
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
