package stats

import (
	"math"
	"testing"
)

// The metrics export path quantiles histograms from arbitrary sources;
// these tests pin the edge behavior it leans on.

func TestHistogramEmptyQuantile(t *testing.T) {
	h := NewHistogram(4)
	for _, q := range []float64{-1, 0, 0.5, 0.999, 1, 2} {
		if v := h.Quantile(q); v != 0 {
			t.Fatalf("empty histogram Quantile(%v) = %d, want 0", q, v)
		}
	}
	if h.subBits != 4 {
		t.Fatalf("SubBits = %d, want 4", h.subBits)
	}
}

func TestHistogramTopBucketSaturates(t *testing.T) {
	h := NewHistogram(1)
	h.Record(math.MaxInt64) // must land in the last bucket, not index out of range
	h.Record(math.MaxInt64 - 1)
	if h.Count() != 2 || h.Max() != math.MaxInt64 {
		t.Fatalf("count=%d max=%d", h.Count(), h.Max())
	}
	// Both samples share the saturated bucket; the quantile reports the
	// bucket's lower bound clamped into [min, max] — never out of range.
	if q := h.Quantile(1); q < h.Min() || q > h.Max() {
		t.Fatalf("p100 = %d outside [min, max] = [%d, %d]", q, h.Min(), h.Max())
	}
}

func TestHistogramRecordZeroMatchesRecord(t *testing.T) {
	a, b := NewHistogram(8), NewHistogram(8)
	a.Record(0)
	a.Record(0)
	a.Record(77)
	b.RecordZero()
	b.RecordZero()
	b.Record(77)
	if a.Count() != b.Count() || a.Sum() != b.Sum() || a.Min() != b.Min() || a.Max() != b.Max() {
		t.Fatalf("RecordZero diverges from Record(0): %v vs %v", a, b)
	}
	for q := 0.0; q <= 1.0; q += 0.25 {
		if a.Quantile(q) != b.Quantile(q) {
			t.Fatalf("Quantile(%v): %d vs %d", q, a.Quantile(q), b.Quantile(q))
		}
	}
}
