package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	h := NewLatencyHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	for i := int64(1); i <= 100; i++ {
		h.Record(i)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Min() != 1 || h.Max() != 100 {
		t.Fatalf("min/max = %d/%d", h.Min(), h.Max())
	}
	if h.Mean() != 50.5 {
		t.Fatalf("mean = %v", h.Mean())
	}
}

func TestHistogramQuantileExactSmallValues(t *testing.T) {
	// Values below 2^subBits are stored exactly.
	h := NewHistogram(8)
	for i := int64(0); i < 200; i++ {
		h.Record(i)
	}
	if q := h.Quantile(0.5); q < 98 || q > 101 {
		t.Fatalf("p50 = %d, want ~99", q)
	}
	if q := h.Quantile(0.99); q < 196 || q > 199 {
		t.Fatalf("p99 = %d, want ~198", q)
	}
	if q := h.Quantile(1.0); q != 199 {
		t.Fatalf("p100 = %d, want 199", q)
	}
	if q := h.Quantile(0.0); q != 0 {
		t.Fatalf("p0 = %d, want 0", q)
	}
}

func TestHistogramRelativeError(t *testing.T) {
	h := NewHistogram(8)
	vals := []int64{3, 300, 30_000, 3_000_000, 300_000_000, 30_000_000_000}
	for _, v := range vals {
		h := NewHistogram(8)
		h.Record(v)
		got := h.Quantile(0.5)
		relerr := math.Abs(float64(got-v)) / float64(v)
		if relerr > 1.0/256 {
			t.Fatalf("value %d quantized to %d (relerr %v)", v, got, relerr)
		}
		_ = h
	}
	_ = h
}

func TestHistogramNegativeClamps(t *testing.T) {
	h := NewLatencyHistogram()
	h.Record(-5)
	if h.Min() != 0 || h.Count() != 1 {
		t.Fatalf("negative record: min=%d count=%d", h.Min(), h.Count())
	}
}

func TestHistogramFractionAbove(t *testing.T) {
	h := NewHistogram(8)
	for i := 0; i < 90; i++ {
		h.Record(10)
	}
	for i := 0; i < 10; i++ {
		h.Record(200)
	}
	if f := h.FractionAbove(100); math.Abs(f-0.10) > 1e-9 {
		t.Fatalf("FractionAbove(100) = %v, want 0.10", f)
	}
	if f := h.FractionAbove(300); f != 0 {
		t.Fatalf("FractionAbove(300) = %v, want 0", f)
	}
	if f := h.FractionBetween(100, 250); math.Abs(f-0.10) > 1e-9 {
		t.Fatalf("FractionBetween = %v, want 0.10", f)
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram(8)
	for i := int64(0); i < 50; i++ {
		h.Record(1000 + i)
	}
	h.Reset()
	if h.Count() != 0 || h.Quantile(0.9) != 0 {
		t.Fatal("reset did not clear histogram")
	}
}

func TestHistogramQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		h := NewHistogram(8)
		for _, v := range raw {
			h.Record(int64(v))
		}
		qs := []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1}
		prev := int64(-1)
		for _, q := range qs {
			v := h.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramQuantileVsExactProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHistogram(8)
		vals := make([]int64, len(raw))
		for i, v := range raw {
			vals[i] = int64(v)
			h.Record(int64(v))
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		for _, q := range []float64{0.5, 0.9, 0.99} {
			idx := int(math.Ceil(q*float64(len(vals)))) - 1
			if idx < 0 {
				idx = 0
			}
			exact := vals[idx]
			got := h.Quantile(q)
			// Allow one sub-bucket of relative error plus slack for ties.
			tol := float64(exact)/128 + 2
			if math.Abs(float64(got-exact)) > tol {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramSubBitsBounds(t *testing.T) {
	for _, bad := range []uint{0, 13} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("subBits=%d did not panic", bad)
				}
			}()
			NewHistogram(bad)
		}()
	}
}

func TestWelford(t *testing.T) {
	var w Welford
	if w.Variance() != 0 || w.Stddev() != 0 {
		t.Fatal("empty Welford should be zero")
	}
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(v)
	}
	if w.n != 8 {
		t.Fatalf("n = %d", w.n)
	}
	if math.Abs(w.mean-5) > 1e-12 {
		t.Fatalf("mean = %v", w.mean)
	}
	if math.Abs(w.Stddev()-2) > 1e-12 {
		t.Fatalf("stddev = %v", w.Stddev())
	}
}

func TestWelfordMatchesNaiveProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		var w Welford
		var sum float64
		for _, v := range raw {
			w.Add(float64(v))
			sum += float64(v)
		}
		mean := sum / float64(len(raw))
		var m2 float64
		for _, v := range raw {
			d := float64(v) - mean
			m2 += d * d
		}
		naive := m2 / float64(len(raw))
		return math.Abs(w.Variance()-naive) <= 1e-6*(1+naive)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSeries(t *testing.T) {
	var s Series
	if s.Mean() != 0 || s.Max() != 0 {
		t.Fatal("empty series should be zero")
	}
	for i := 0; i < 5; i++ {
		s.Append(float64(i), float64(i*2))
	}
	if s.Len() != 5 {
		t.Fatalf("len = %d", s.Len())
	}
	if s.Mean() != 4 {
		t.Fatalf("mean = %v", s.Mean())
	}
	if s.Max() != 8 {
		t.Fatalf("max = %v", s.Max())
	}
}

func TestStddevAcross(t *testing.T) {
	a := &Series{T: []float64{0, 1}, V: []float64{1, 10}}
	b := &Series{T: []float64{0, 1}, V: []float64{1, 20}}
	c := &Series{T: []float64{0, 1}, V: []float64{1, 30}}
	out := StddevAcross([]*Series{a, b, c})
	if out.Len() != 2 {
		t.Fatalf("len = %d", out.Len())
	}
	if out.V[0] != 0 {
		t.Fatalf("stddev at t0 = %v, want 0", out.V[0])
	}
	want := math.Sqrt(200.0 / 3.0)
	if math.Abs(out.V[1]-want) > 1e-9 {
		t.Fatalf("stddev at t1 = %v, want %v", out.V[1], want)
	}
}

func TestStddevAcrossEmpty(t *testing.T) {
	if StddevAcross(nil).Len() != 0 {
		t.Fatal("empty input should give empty output")
	}
}

func TestStddevAcrossMisalignedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("misaligned series did not panic")
		}
	}()
	StddevAcross([]*Series{
		{T: []float64{0}, V: []float64{1}},
		{T: []float64{0, 1}, V: []float64{1, 2}},
	})
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Service", "Mpps")
	tb.AddRow("VPC-VPC", 128.8)
	tb.AddRow("VPC-Internet", 81.6)
	out := tb.String()
	if !strings.Contains(out, "VPC-Internet") || !strings.Contains(out, "81.60") {
		t.Fatalf("table output missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4:\n%s", len(lines), out)
	}
	// Columns align: all rows equal width prefix before second column.
	if !strings.HasPrefix(lines[2], "VPC-VPC     ") {
		t.Fatalf("misaligned row: %q", lines[2])
	}
}

func TestHistogramString(t *testing.T) {
	h := NewLatencyHistogram()
	h.Record(100)
	if s := h.String(); !strings.Contains(s, "n=1") {
		t.Fatalf("String() = %q", s)
	}
}

// BenchmarkHistogramRecord measures the pipeline's per-stage recording
// cost on the packet path's patterns: zero is the synchronous stages'
// RecordZero, one-row the latencies of a steady load (one magnitude),
// spread-64 values over all 64 magnitudes, every row already touched.
// TestHistogramRecordAllocs pins that none of them allocates.
func BenchmarkHistogramRecord(b *testing.B) {
	b.Run("zero", func(b *testing.B) {
		h := NewLatencyHistogram()
		for i := 0; i < b.N; i++ {
			h.RecordZero()
		}
	})
	b.Run("one-row", func(b *testing.B) {
		h := NewLatencyHistogram()
		for i := 0; i < b.N; i++ {
			h.Record(4096 + int64(i&4095))
		}
	})
	b.Run("spread-64", func(b *testing.B) {
		h := NewLatencyHistogram()
		vals := make([]int64, 1024)
		for i := range vals {
			vals[i] = int64(uint64(0x9e3779b97f4a7c15)*uint64(i+1)>>1) >> (i % 64)
			h.Record(vals[i])
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Record(vals[i&1023])
		}
	})
}

func BenchmarkHistogramQuantile(b *testing.B) {
	h := NewLatencyHistogram()
	for i := int64(0); i < 1_000_000; i++ {
		h.Record(i % 65536)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.Quantile(0.99)
	}
}

func TestHistogramBucketSnapshotDeltas(t *testing.T) {
	h := NewHistogram(5)
	for i := int64(1); i <= 100; i++ {
		h.Record(i * 1000)
	}
	prev := h.BucketSnapshot(nil)
	if len(prev) != len(h.buckets) {
		t.Fatalf("snapshot len %d != NumBuckets %d", len(prev), len(h.buckets))
	}
	if got := h.DeltaCount(prev); got != 0 {
		t.Fatalf("delta count right after snapshot = %d, want 0", got)
	}
	if got := h.DeltaQuantile(0.99, prev); got != 0 {
		t.Fatalf("delta quantile over empty window = %d, want 0", got)
	}
	// Record a new batch whose values are far from the first batch: the
	// delta quantile must reflect only the new batch.
	for i := 0; i < 50; i++ {
		h.Record(1_000_000)
	}
	if got := h.DeltaCount(prev); got != 50 {
		t.Fatalf("delta count = %d, want 50", got)
	}
	q := h.DeltaQuantile(0.5, prev)
	if q < 900_000 || q > 1_100_000 {
		t.Fatalf("delta p50 = %d, want ~1e6 (old samples must not leak in)", q)
	}
	// The full-histogram quantile still sees both batches.
	if full := h.Quantile(0.5); full >= 900_000 {
		t.Fatalf("full p50 = %d, want < 900000 (dominated by first batch)", full)
	}
	// The batch touched a new row, so prev is a strict prefix of the layout
	// now; re-snapshotting into it grows it to the current layout.
	prev2 := h.BucketSnapshot(prev)
	if len(prev2) != len(h.buckets) || len(prev) >= len(prev2) {
		t.Fatalf("re-snapshot len %d after %d, want the layout's %d", len(prev2), len(prev), len(h.buckets))
	}
	if got := h.DeltaCount(prev2); got != 0 {
		t.Fatalf("delta count after re-snapshot = %d, want 0", got)
	}
	// Reusing a destination that covers the layout must not allocate a
	// fresh one.
	h.Record(1_000_001)
	prev3 := h.BucketSnapshot(prev2)
	if &prev3[0] != &prev2[0] {
		t.Fatal("BucketSnapshot did not reuse the destination slice")
	}
	if got := h.DeltaCount(prev3); got != 0 {
		t.Fatalf("delta count after re-snapshot = %d, want 0", got)
	}
}

func TestHistogramDeltaLengthMismatchPanics(t *testing.T) {
	h := NewHistogram(5)
	h.Record(1)
	// A snapshot is a prefix of the layout, so only a longer one is
	// foreign to this histogram.
	bad := make([]uint64, len(h.buckets)+1)
	for name, f := range map[string]func(){
		"DeltaCount":    func() { h.DeltaCount(bad) },
		"DeltaQuantile": func() { h.DeltaQuantile(0.5, bad) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s with mismatched snapshot did not panic", name)
				}
			}()
			f()
		}()
	}
}
