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
// when it leaves zero, and Reset clears only these), so a snapshot is the
// nonzero buckets alone and its queries read running sums over the buckets
// nonzero now or then: a check costs what the program recorded, not
// 64<<subBits buckets per snapshot. Running sums are built once after each
// change (cum, valid while cumOK). The walk* methods are the per-query walks
// over every bucket that they replaced, kept to pin them
// (TestRefHistogramMatchesWalk).
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

// refSnapshot is a snapshot of a refHistogram: its nonzero buckets, by
// ascending index.
type refSnapshot struct {
	idx []int
	val []uint64
}

// snapshot returns the nonzero buckets.
func (h *refHistogram) snapshot() refSnapshot {
	slices.Sort(h.nz)
	s := refSnapshot{idx: slices.Clone(h.nz), val: make([]uint64, len(h.nz))}
	for k, i := range s.idx {
		s.val[k] = h.buckets[i]
	}
	return s
}

// dense returns the snapshot as n buckets.
func (s refSnapshot) dense(n int) []uint64 {
	b := make([]uint64, n)
	for k, i := range s.idx {
		b[i] = s.val[k]
	}
	return b
}

// runningSums are the running sums of a histogram's buckets, or of their
// differences from a snapshot, at the buckets in idx (ascending): every
// bucket missing from idx adds zero. n is the bucket count. rising is false
// when some bucket is below its snapshot (a Reset came between): the uint64
// differences wrap, the sums are not sorted and must be scanned.
type runningSums struct {
	idx    []int
	cum    []uint64
	n      int
	rising bool
}

// cumulate writes the running sums of buckets minus prev (of buckets alone
// when prev is nil) into dst, reusing its storage. The buckets summed are
// those nonzero now or in prev.
func (h *refHistogram) cumulate(dst *runningSums, prev *refSnapshot) {
	slices.Sort(h.nz)
	dst.idx, dst.cum, dst.n, dst.rising = dst.idx[:0], dst.cum[:0], len(h.buckets), true
	var was refSnapshot
	if prev != nil {
		was = *prev
	}
	var cum uint64
	for a, b := 0, 0; a < len(h.nz) || b < len(was.idx); {
		var i int
		var c, p uint64
		switch {
		case b == len(was.idx) || a < len(h.nz) && h.nz[a] < was.idx[b]:
			i, c = h.nz[a], h.buckets[h.nz[a]]
			a++
		case a == len(h.nz) || was.idx[b] < h.nz[a]:
			i, p = was.idx[b], was.val[b]
			b++
		default:
			i, c, p = h.nz[a], h.buckets[h.nz[a]], was.val[b]
			a, b = a+1, b+1
		}
		dst.rising = dst.rising && c >= p
		cum += c - p
		dst.idx = append(dst.idx, i)
		dst.cum = append(dst.cum, cum)
	}
}

// prefix returns the running sums of the buckets, rebuilt only after a
// change.
func (h *refHistogram) prefix() *runningSums {
	if !h.cumOK {
		h.cumulate(&h.cum, nil)
		h.cumOK = true
	}
	return &h.cum
}

// total is the last running sum: the count, or the count since the
// snapshot.
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
	k := len(rs.cum)
	if rs.rising {
		k = sort.Search(len(rs.cum), func(k int) bool { return rs.cum[k] >= target })
	} else {
		for j, c := range rs.cum {
			if c >= target {
				k = j
				break
			}
		}
	}
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

// DeltaCount and DeltaQuantile answer for the running sums of the buckets
// minus a snapshot, built by cumulate.
func (h *refHistogram) DeltaCount(delta *runningSums) uint64 { return delta.total() }

func (h *refHistogram) DeltaQuantile(q float64, delta *runningSums) int64 {
	if delta.total() == 0 {
		return 0
	}
	return h.lowerBound(min(delta.reach(q), len(h.buckets)-1))
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

func (h *refHistogram) walkDeltaCount(prev []uint64) uint64 {
	var total uint64
	for i, c := range h.buckets {
		total += c - prev[i]
	}
	return total
}

func (h *refHistogram) walkDeltaQuantile(q float64, prev []uint64) int64 {
	total := h.walkDeltaCount(prev)
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
	for _, i := range h.nz {
		h.buckets[i] = 0
	}
	h.nz = h.nz[:0]
	h.cumOK = false
	h.count, h.sum = 0, 0
	h.min, h.max = math.MaxInt64, math.MinInt64
}

func (h *refHistogram) String() string {
	return fmt.Sprintf("n=%d mean=%.1f p50=%d p99=%d p999=%d max=%d",
		h.count, h.Mean(), h.Quantile(0.50), h.Quantile(0.99), h.Quantile(0.999), h.Max())
}

// snapPair is one BucketSnapshot of the histogram under test and the
// snapshot of its oracle taken at the same point.
type snapPair struct {
	got  []uint64
	want refSnapshot
	// delta is the oracle's running sums since want, rebuilt at each check.
	delta runningSums
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

func (d *denseDiff) snapshot() {
	d.snaps = append(d.snaps, snapPair{got: d.h.BucketSnapshot(nil), want: d.ref.snapshot()})
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
	for si := range d.snaps {
		s := &d.snaps[si]
		ref.cumulate(&s.delta, &s.want)
		if got, want := h.DeltaCount(s.got), ref.DeltaCount(&s.delta); got != want {
			t.Fatalf("%s: DeltaCount(snapshot %d) = %d, dense %d", where, si, got, want)
		}
		for _, q := range []float64{-1, 0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1, 2} {
			if got, want := h.DeltaQuantile(q, s.got), ref.DeltaQuantile(q, &s.delta); got != want {
				t.Fatalf("%s: DeltaQuantile(%v, snapshot %d) = %d, dense %d", where, q, si, got, want)
			}
		}
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
	for si := range d.snaps {
		s := &d.snaps[si]
		prev := s.want.dense(len(ref.buckets))
		if got, want := ref.DeltaCount(&s.delta), ref.walkDeltaCount(prev); got != want {
			t.Fatalf("%s: dense DeltaCount(snapshot %d) = %d, walk %d", where, si, got, want)
		}
		for _, q := range []float64{-1, 0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1, 2} {
			if got, want := ref.DeltaQuantile(q, &s.delta), ref.walkDeltaQuantile(q, prev); got != want {
				t.Fatalf("%s: dense DeltaQuantile(%v, snapshot %d) = %d, walk %d", where, q, si, got, want)
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

// runHistProgram interprets ops as a program of records, snapshots and
// resets, in 4-byte instructions [op, shift, value, count], and checks the
// compact histogram against the dense one after each of the first 8
// snapshots and at the end; walk also pins the dense one to its walks.
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
