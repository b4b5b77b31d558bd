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
// touch: row indexes a compact buckets slice that holds only the rows some
// value has landed in, in the order they were first touched. A latency
// histogram therefore costs a few rows, not the 64 that cover all of int64.
// Rows are only ever appended, so an earlier BucketSnapshot is a prefix of
// the current layout.
type Histogram struct {
	subBits uint // sub-buckets per magnitude = 1<<subBits
	// row[r] is 1 + the index in buckets of magnitude row r's first
	// counter, or 0 while no value has landed in that row. Row 0 (values
	// below 1<<subBits) is allocated by NewHistogram, so row[0] == 1
	// always. An index rather than a row position keeps a shift off the
	// recording path.
	row     [64]int32
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

// reservedRows is the room addRow makes when buckets first outgrows row
// 0. A latency distribution spans a handful of magnitudes (at most 7 rows
// in any of a pod's histograms under load), so the rows it touches after
// its first do not allocate on the packet path.
const reservedRows = 8

// addRow appends magnitude row r's counters to buckets and returns its
// row entry. It stays out of line so that Record's common path, a touched
// row, carries no growth code.
//
//go:noinline
func (h *Histogram) addRow(r int) int32 {
	start := len(h.buckets)
	n := start + 1<<h.subBits
	if n > cap(h.buckets) {
		grown := make([]uint64, start, max(2*start, reservedRows<<h.subBits))
		copy(grown, h.buckets)
		h.buckets = grown
	}
	// Capacity past len has never been written: rows are never removed.
	h.buckets = h.buckets[:n]
	h.row[r] = int32(start + 1)
	return h.row[r]
}

// rowCounts returns magnitude row r's counters, or nil while it is
// untouched.
func (h *Histogram) rowCounts(r int) []uint64 {
	p := int(h.row[r])
	if p == 0 {
		return nil
	}
	return h.buckets[p-1 : p-1+1<<h.subBits]
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
	h.buckets[int(p)-1+int(s)]++
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
	h.buckets[int(p)-1+int(s)] += n
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

// BucketSnapshot copies the histogram's raw bucket counts into dst,
// growing it if needed, and returns the slice. A snapshot taken before a
// batch of Records and passed to DeltaCount/DeltaQuantile later yields
// statistics over exactly the samples recorded in between — the
// primitive behind per-tick timeline quantiles. The copy holds only the
// touched rows; rows touched later are appended after it, so the snapshot
// stays a prefix of the histogram's layout.
func (h *Histogram) BucketSnapshot(dst []uint64) []uint64 {
	if cap(dst) < len(h.buckets) {
		dst = make([]uint64, len(h.buckets))
	}
	dst = dst[:len(h.buckets)]
	copy(dst, h.buckets)
	return dst
}

// delta returns bucket i's count since prev, a prefix snapshot: a bucket
// past the end of prev was untouched when it was taken.
func (h *Histogram) delta(i int, prev []uint64) uint64 {
	if i < len(prev) {
		return h.buckets[i] - prev[i]
	}
	return h.buckets[i]
}

func (h *Histogram) checkSnapshot(prev []uint64) {
	if len(prev) > len(h.buckets) {
		panic(fmt.Sprintf("stats: bucket snapshot length %d > %d", len(prev), len(h.buckets)))
	}
}

// DeltaCount returns the number of samples recorded since prev, a bucket
// snapshot of this histogram taken earlier with BucketSnapshot.
func (h *Histogram) DeltaCount(prev []uint64) uint64 {
	h.checkSnapshot(prev)
	var total uint64
	for i := range h.buckets {
		total += h.delta(i, prev)
	}
	return total
}

// DeltaQuantile estimates the q-quantile over the samples recorded since
// prev (an earlier BucketSnapshot of this histogram). It returns 0 when no
// samples were recorded in between. Values carry the histogram's bucket
// resolution; unlike Quantile there is no min/max clamp, because the delta
// window's extremes are not tracked.
func (h *Histogram) DeltaQuantile(q float64, prev []uint64) int64 {
	total := h.DeltaCount(prev)
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
	for r, p := range h.row {
		if p == 0 {
			continue
		}
		base := int(p - 1)
		for s := 0; s < 1<<h.subBits; s++ {
			cum += h.delta(base+s, prev)
			if cum >= target {
				return h.lowerBound(r<<h.subBits + s)
			}
		}
	}
	return h.lowerBound(len(h.row)<<h.subBits - 1)
}

// Reset clears all recorded samples. The touched rows stay allocated, so
// a snapshot taken before Reset is still a prefix of the layout.
func (h *Histogram) Reset() {
	clear(h.buckets)
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
