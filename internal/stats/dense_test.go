package stats

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// refHistogram is the dense Histogram that rows allocated on first touch
// replaced: all 64 magnitude rows of 1<<subBits counters, allocated up
// front. It is the oracle the compact layout must agree with on every
// query.
//
// It also lists the buckets that are nonzero (nz, unordered; a bucket joins
// when it leaves zero), so its queries read running sums over the nonzero
// buckets alone: a check costs what the program recorded, not 64<<subBits
// buckets per query. Running sums are built once after each change (cum,
// valid while cumOK). The walk* methods are the per-query walks over every
// bucket that they replaced, kept to pin them (TestRefHistogramMatchesWalk).
type refHistogram struct {
	subBits uint
	buckets []uint64
	nz      []int
	count   uint64
	sum     int64
	min     int64
	max     int64
	cum     runningSums
	cumOK   bool
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
	if h.buckets[i] == 0 {
		h.nz = append(h.nz, i)
	}
	h.buckets[i] += n
	h.cumOK = false
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

// runningSums are the running sums of a histogram's buckets at the buckets
// in idx (ascending): every bucket missing from idx adds zero. n is the
// bucket count.
type runningSums struct {
	idx []int
	cum []uint64
	n   int
}

// prefix returns the running sums of the nonzero buckets, rebuilt only
// after a change.
func (h *refHistogram) prefix() *runningSums {
	if h.cumOK {
		return &h.cum
	}
	slices.Sort(h.nz)
	rs := &h.cum
	rs.idx, rs.cum, rs.n = rs.idx[:0], rs.cum[:0], len(h.buckets)
	var cum uint64
	for _, i := range h.nz {
		cum += h.buckets[i]
		rs.idx = append(rs.idx, i)
		rs.cum = append(rs.cum, cum)
	}
	h.cumOK = true
	return rs
}

// total is the last running sum: the count.
func (rs *runningSums) total() uint64 { return rs.at(rs.n - 1) }

// at returns the running sum through bucket i.
func (rs *runningSums) at(i int) uint64 {
	k := sort.SearchInts(rs.idx, i+1)
	if k == 0 {
		return 0
	}
	return rs.cum[k-1]
}

// reach returns the first bucket whose running sum reaches q of the total:
// the bucket count if none does. A running sum changes only at a bucket of
// idx, so that is where it first reaches any target.
func (rs *runningSums) reach(q float64) int {
	q = math.Max(0, math.Min(1, q))
	target := uint64(math.Ceil(q * float64(rs.total())))
	if target == 0 {
		target = 1
	}
	k := sort.Search(len(rs.cum), func(k int) bool { return rs.cum[k] >= target })
	if k == len(rs.cum) {
		return rs.n
	}
	return rs.idx[k]
}

func (h *refHistogram) Quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	if i := h.prefix().reach(q); i < len(h.buckets) {
		return min(max(h.lowerBound(i), h.min), h.max)
	}
	return h.max
}

func (h *refHistogram) FractionAbove(v int64) float64 {
	if h.count == 0 {
		return 0
	}
	cum := h.prefix()
	above := cum.total() - cum.at(min(h.index(v), len(h.buckets)-1))
	return float64(above) / float64(h.count)
}

func (h *refHistogram) walkQuantile(q float64) int64 {
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

func (h *refHistogram) walkFractionAbove(v int64) float64 {
	if h.count == 0 {
		return 0
	}
	var above uint64
	for i := h.index(v) + 1; i < len(h.buckets); i++ {
		above += h.buckets[i]
	}
	return float64(above) / float64(h.count)
}

func (h *refHistogram) String() string {
	return fmt.Sprintf("n=%d mean=%.1f p50=%d p99=%d p999=%d max=%d",
		h.count, h.Mean(), h.Quantile(0.50), h.Quantile(0.99), h.Quantile(0.999), h.Max())
}

// denseDiff drives a Histogram and a refHistogram through the same
// operations and fails on the first query they answer differently.
type denseDiff struct {
	t   *testing.T
	h   *Histogram
	ref *refHistogram
	// probes are the FractionAbove arguments: edge values plus every value
	// recorded so far, capped.
	probes []int64
	// walk has every check also hold the oracle's answers to its per-query
	// bucket walks.
	walk bool
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
	if d.walk {
		d.checkWalk(where)
	}
}

// checkWalk fails unless the oracle's running-sum answers to every query of
// check equal its per-query bucket walks.
func (d *denseDiff) checkWalk(where string) {
	t, ref := d.t, d.ref
	t.Helper()
	for i := -1; i <= 101; i++ {
		q := float64(i) / 100
		if got, want := ref.Quantile(q), ref.walkQuantile(q); got != want {
			t.Fatalf("%s: dense Quantile(%v) = %d, walk %d", where, q, got, want)
		}
	}
	for _, v := range d.probes {
		if got, want := ref.FractionAbove(v), ref.walkFractionAbove(v); got != want {
			t.Fatalf("%s: dense FractionAbove(%d) = %v, walk %v", where, v, got, want)
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
			}
			d.check("end")
		})
	}
}

// histSeeds are FuzzHistogramMatchesDense's seeds besides the committed
// files under testdata/fuzz.
var histSeeds = []struct {
	subBits uint8
	ops     []byte
}{
	{0, []byte("\x00\x00\xff\x01\x03\x00\x00\x00\x00\x3f\x80\x01")},
	{5, []byte("\x03\x00\x00\x00\x00\x30\x10\x01\x03\x00\x00\x00\x00\x08\x80\x02\x04\x00\x00\x00\x00\x30\x10\x01")},
	{7, []byte("\x02\x00\x00\x00\x03\x00\x00\x00\x00\x00\x80\x00\x00\x3f\x01\x07")},
}

// runHistProgram interprets ops as a program of records and checkpoints, in
// 4-byte instructions [op, shift, value, count], and checks the compact
// histogram against the dense one at each of the first 8 checkpoints and
// at the end; walk also pins the dense one to its walks. Op 3 was a bucket
// snapshot and is now a checkpoint alone; op 4 was a reset and is now a
// no-op, so committed programs still decode.
func runHistProgram(t *testing.T, subBits uint8, ops []byte, walk bool) {
	d := newDenseDiff(t, 1+uint(subBits)%12)
	d.walk = walk
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
			if checks < 8 {
				checks++
				d.check("checkpoint")
			}
		}
	}
	d.check("end")
}

// FuzzHistogramMatchesDense runs fuzzed programs through runHistProgram.
func FuzzHistogramMatchesDense(f *testing.F) {
	for _, s := range histSeeds {
		f.Add(s.subBits, s.ops)
	}
	f.Fuzz(func(t *testing.T, subBits uint8, ops []byte) { runHistProgram(t, subBits, ops, false) })
}

// TestRefHistogramMatchesWalk pins the dense oracle's running-sum queries to
// the per-query bucket walks they replaced, on every seed of
// FuzzHistogramMatchesDense, the committed files included.
func TestRefHistogramMatchesWalk(t *testing.T) {
	seeds := histSeeds
	files, err := filepath.Glob("testdata/fuzz/FuzzHistogramMatchesDense/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed seeds (%v)", err)
	}
	for _, name := range files {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		// "go test fuzz v1", then uint8(N), then []byte("...").
		lines := strings.Split(strings.TrimSpace(string(b)), "\n")
		if len(lines) != 3 {
			t.Fatalf("%s: %d lines, want 3", name, len(lines))
		}
		n, err1 := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(lines[1], "uint8("), ")"), 0, 8)
		ops, err2 := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[2], "[]byte("), ")"))
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: %v %v", name, err1, err2)
		}
		seeds = append(seeds, struct {
			subBits uint8
			ops     []byte
		}{uint8(n), []byte(ops)})
	}
	for i, s := range seeds {
		t.Run(fmt.Sprint(i), func(t *testing.T) { runHistProgram(t, s.subBits, s.ops, true) })
	}
}

// TestHistogramFootprint pins the first-touch layout: a new histogram
// holds row 0 only, and values in k magnitudes above it add exactly k rows,
// however often they repeat.
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
