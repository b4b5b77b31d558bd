package stats

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// refHistogram is the dense Histogram that rows allocated on first touch
// replaced: all 64 magnitude rows of 1<<subBits counters, allocated up
// front, with snapshots the full dense array. It is the oracle the compact
// layout must agree with on every query.
type refHistogram struct {
	subBits uint
	buckets []uint64
	count   uint64
	sum     int64
	min     int64
	max     int64
}

func newRefHistogram(subBits uint) *refHistogram {
	return &refHistogram{
		subBits: subBits,
		buckets: make([]uint64, 64<<subBits),
		min:     math.MaxInt64,
		max:     math.MinInt64,
	}
}

func (h *refHistogram) index(v int64) int {
	if v < 0 {
		v = 0
	}
	sub := int64(1) << h.subBits
	if v < sub {
		return int(v)
	}
	mag := 63 - bits.LeadingZeros64(uint64(v)) - int(h.subBits)
	subIdx := (v >> uint(mag)) & (sub - 1)
	return (mag+1)<<h.subBits + int(subIdx)
}

func (h *refHistogram) lowerBound(i int) int64 {
	sub := 1 << h.subBits
	if i < sub*2 {
		return int64(i)
	}
	mag := i>>h.subBits - 1
	subIdx := i & (sub - 1)
	return (int64(sub) + int64(subIdx)) << uint(mag)
}

func (h *refHistogram) RecordN(v int64, n uint64) {
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

func (h *refHistogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

func (h *refHistogram) Min() int64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

func (h *refHistogram) Max() int64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

func (h *refHistogram) Quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	q = math.Max(0, math.Min(1, q))
	target := uint64(math.Ceil(q * float64(h.count)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.buckets {
		cum += c
		if cum >= target {
			return min(max(h.lowerBound(i), h.min), h.max)
		}
	}
	return h.max
}

func (h *refHistogram) FractionAbove(v int64) float64 {
	if h.count == 0 {
		return 0
	}
	var above uint64
	for i := h.index(v) + 1; i < len(h.buckets); i++ {
		above += h.buckets[i]
	}
	return float64(above) / float64(h.count)
}

func (h *refHistogram) DeltaCount(prev []uint64) uint64 {
	var total uint64
	for i, c := range h.buckets {
		total += c - prev[i]
	}
	return total
}

func (h *refHistogram) DeltaQuantile(q float64, prev []uint64) int64 {
	total := h.DeltaCount(prev)
	if total == 0 {
		return 0
	}
	q = math.Max(0, math.Min(1, q))
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

func (h *refHistogram) Reset() {
	clear(h.buckets)
	h.count, h.sum = 0, 0
	h.min, h.max = math.MaxInt64, math.MinInt64
}

func (h *refHistogram) String() string {
	return fmt.Sprintf("n=%d mean=%.1f p50=%d p99=%d p999=%d max=%d",
		h.count, h.Mean(), h.Quantile(0.50), h.Quantile(0.99), h.Quantile(0.999), h.Max())
}

// snapPair is one BucketSnapshot of the histogram under test and the dense
// snapshot of its oracle taken at the same point.
type snapPair struct {
	got  []uint64
	want []uint64
}

// denseDiff drives a Histogram and a refHistogram through the same
// operations and fails on the first query they answer differently.
type denseDiff struct {
	t     *testing.T
	h     *Histogram
	ref   *refHistogram
	snaps []snapPair
	// probes are the FractionAbove arguments: edge values plus every value
	// recorded so far, capped.
	probes []int64
}

func newDenseDiff(t *testing.T, subBits uint) *denseDiff {
	sub := int64(1) << subBits
	return &denseDiff{t: t, h: NewHistogram(subBits), ref: newRefHistogram(subBits),
		probes: []int64{math.MinInt64, -1, 0, 1, sub - 1, sub, sub + 1, 2 * sub, math.MaxInt64}}
}

// record records n copies of v: through Record when n is 1, else RecordN.
func (d *denseDiff) record(v int64, n uint64) {
	if n == 1 {
		d.h.Record(v)
	} else {
		d.h.RecordN(v, n)
	}
	d.ref.RecordN(v, n)
	if len(d.probes) < 48 {
		d.probes = append(d.probes, v)
	}
}

func (d *denseDiff) recordZero() {
	d.h.RecordZero()
	d.ref.RecordN(0, 1)
}

func (d *denseDiff) snapshot() {
	d.snaps = append(d.snaps, snapPair{got: d.h.BucketSnapshot(nil),
		want: append([]uint64(nil), d.ref.buckets...)})
	if len(d.snaps) > 6 {
		d.snaps = d.snaps[1:]
	}
}

func (d *denseDiff) reset() {
	d.h.Reset()
	d.ref.Reset()
}

// touched reports whether v's magnitude row is already allocated.
func (d *denseDiff) touched(v int64) bool {
	return d.h.row[d.h.index(v)>>d.h.subBits] != 0
}

// check compares every query; where names the step for failures.
func (d *denseDiff) check(where string) {
	t, h, ref := d.t, d.h, d.ref
	t.Helper()
	if h.Count() != ref.count || h.Sum() != ref.sum || h.Min() != ref.Min() || h.Max() != ref.Max() ||
		math.Float64bits(h.Mean()) != math.Float64bits(ref.Mean()) {
		t.Fatalf("%s: count/sum/min/max/mean = %d/%d/%d/%d/%v, dense %d/%d/%d/%d/%v", where,
			h.Count(), h.Sum(), h.Min(), h.Max(), h.Mean(), ref.count, ref.sum, ref.Min(), ref.Max(), ref.Mean())
	}
	for i := -1; i <= 101; i++ {
		q := float64(i) / 100
		if got, want := h.Quantile(q), ref.Quantile(q); got != want {
			t.Fatalf("%s: Quantile(%v) = %d, dense %d", where, q, got, want)
		}
	}
	for i, lo := range d.probes {
		hi := d.probes[(i+1)%len(d.probes)]
		if got, want := h.FractionAbove(lo), ref.FractionAbove(lo); got != want {
			t.Fatalf("%s: FractionAbove(%d) = %v, dense %v", where, lo, got, want)
		}
		got, want := h.FractionBetween(lo, hi), ref.FractionAbove(lo)-ref.FractionAbove(hi)
		if got != want {
			t.Fatalf("%s: FractionBetween(%d, %d) = %v, dense %v", where, lo, hi, got, want)
		}
	}
	if got, want := h.String(), ref.String(); got != want {
		t.Fatalf("%s: String() = %q, dense %q", where, got, want)
	}
	for si, s := range d.snaps {
		if got, want := h.DeltaCount(s.got), ref.DeltaCount(s.want); got != want {
			t.Fatalf("%s: DeltaCount(snapshot %d) = %d, dense %d", where, si, got, want)
		}
		for _, q := range []float64{-1, 0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1, 2} {
			if got, want := h.DeltaQuantile(q, s.got), ref.DeltaQuantile(q, s.want); got != want {
				t.Fatalf("%s: DeltaQuantile(%v, snapshot %d) = %d, dense %d", where, q, si, got, want)
			}
		}
	}
}

// edgeValues are the values at and around every row boundary.
func edgeValues(subBits uint) []int64 {
	sub := int64(1) << subBits
	vs := []int64{0, -1, -sub, math.MinInt64, sub - 1, sub, math.MaxInt64, math.MaxInt64 - 1}
	for k := uint(0); k < 63; k++ {
		vs = append(vs, int64(1)<<k-1, int64(1)<<k, int64(1)<<k+1)
	}
	return vs
}

// spread returns a value whose magnitude is uniform over the int64 range.
func spread(r *rand.Rand) int64 {
	return int64(r.Uint64()>>1) >> r.Intn(64)
}

func TestHistogramMatchesDense(t *testing.T) {
	for _, subBits := range []uint{1, 6, 8, 12} {
		t.Run(fmt.Sprintf("subBits=%d", subBits), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(subBits)))
			d := newDenseDiff(t, subBits)
			d.check("empty")
			vals := edgeValues(subBits)
			for i := 0; i < 200; i++ {
				vals = append(vals, spread(r))
			}
			r.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
			for i, v := range vals {
				if !d.touched(v) || r.Intn(16) == 0 {
					// Just before a row's first touch, and at random points.
					d.snapshot()
				}
				switch i % 5 {
				case 0:
					d.record(v, uint64(1+r.Intn(3)))
				case 1:
					d.recordZero()
				default:
					d.record(v, 1)
				}
				if i%32 == 31 {
					d.check(fmt.Sprintf("after %d values", i+1))
				}
				if i == len(vals)/2 {
					// Around Reset: snapshots on both sides of it.
					d.check("before reset")
					d.snapshot()
					d.reset()
					d.check("after reset")
					d.snapshot()
				}
			}
			d.check("end")
		})
	}
}

// FuzzHistogramMatchesDense interprets ops as a program of records,
// snapshots and resets, in 4-byte instructions [op, shift, value, count],
// and checks the compact histogram against the dense one after each
// snapshot and at the end.
func FuzzHistogramMatchesDense(f *testing.F) {
	f.Add(uint8(0), []byte("\x00\x00\xff\x01\x03\x00\x00\x00\x00\x3f\x80\x01"))
	f.Add(uint8(5), []byte("\x03\x00\x00\x00\x00\x30\x10\x01\x03\x00\x00\x00\x00\x08\x80\x02\x04\x00\x00\x00\x00\x30\x10\x01"))
	f.Add(uint8(7), []byte("\x02\x00\x00\x00\x03\x00\x00\x00\x00\x00\x80\x00\x00\x3f\x01\x07"))
	f.Fuzz(func(t *testing.T, subBits uint8, ops []byte) {
		d := newDenseDiff(t, 1+uint(subBits)%12)
		checks := 0
		for ; len(ops) >= 4; ops = ops[4:] {
			// The value byte is the top byte, so values >= 0x80 are
			// negative; the shift byte picks the magnitude.
			v := int64(uint64(ops[2])<<56|0x00fedcba98765432) >> (ops[1] % 64)
			switch ops[0] % 5 {
			case 0:
				d.record(v, 1)
			case 1:
				d.record(v, uint64(ops[3]%4))
			case 2:
				d.recordZero()
			case 3:
				d.snapshot()
				if checks < 8 {
					checks++
					d.check("snapshot")
				}
			case 4:
				d.reset()
			}
		}
		d.check("end")
	})
}

// TestHistogramFootprint pins the first-touch layout: a new histogram
// holds row 0 only, and values in k magnitudes above it add exactly k rows,
// however often they repeat and across Reset.
func TestHistogramFootprint(t *testing.T) {
	rows := func(h *Histogram) int { return len(h.buckets) >> h.subBits }
	for _, subBits := range []uint{1, 6, 8, 12} {
		h := NewHistogram(subBits)
		if got := rows(h); got != 1 {
			t.Fatalf("subBits %d: new histogram holds %d rows, want 1", subBits, got)
		}
		h.Record(0)
		h.RecordZero()
		h.Record(1<<subBits - 1)
		if got := rows(h); got != 1 {
			t.Fatalf("subBits %d: values below 1<<subBits grew the histogram to %d rows", subBits, got)
		}
		for k := 1; k <= 7; k++ {
			v := int64(1) << (int(subBits) + 3*k)
			for i := 0; i < 3; i++ {
				h.Record(v + int64(i))
				h.RecordN(v, 2)
			}
			if got := rows(h); got != 1+k {
				t.Fatalf("subBits %d: values in %d magnitudes hold %d rows, want %d", subBits, k, got, 1+k)
			}
		}
		h.Reset()
		h.Record(int64(1) << (int(subBits) + 3))
		if got := rows(h); got != 8 {
			t.Fatalf("subBits %d: Reset then a touched row: %d rows, want 8", subBits, got)
		}
	}
}

// TestHistogramRecordAllocs pins the packet path's recording cost: once a
// row is touched, Record, RecordN and RecordZero never allocate.
func TestHistogramRecordAllocs(t *testing.T) {
	h := NewLatencyHistogram()
	h.Record(123456)
	for name, f := range map[string]func(){
		"Record":     func() { h.Record(123456) },
		"RecordN":    func() { h.RecordN(123457, 4) },
		"RecordZero": h.RecordZero,
	} {
		if n := testing.AllocsPerRun(1000, f); n != 0 {
			t.Errorf("%s on a touched row: %v allocs, want 0", name, n)
		}
	}
}
