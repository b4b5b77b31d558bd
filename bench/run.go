package main

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// runOpts selects one run: one workload, one seed, traced or not.
type runOpts struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// smoke runs the tier-1 test scale: the exact window only, one set-up.
	smoke bool
}

// A run builds its deployment several times: setup_s is the median of the
// builds and the last build is the one measured. The warm-block tallies of
// all builds must agree (the in-run determinism check). Cheap set-ups are
// repeated more often — about setupBudget of building, between
// minSetupReps and maxSetupReps times — because a 0.1 s set-up read three
// times is mostly scheduler noise.
const (
	minSetupReps = 3
	maxSetupReps = 12
	setupBudget  = 1500 * time.Millisecond
)

// metricValue is one emitted metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run produces. The contract line carries
// Correct, Attempted, Failed and Metrics; Detail rides on the line before.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Detail    detail                 `json:"-"`
}

// detail is what a set needs beyond the contract line.
type detail struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Traced   bool   `json:"traced"`
	// SimDigest is FNV-64a over the deployment's own outcome text and the
	// exact-window counters. Equal seeds must give equal digests.
	SimDigest string `json:"sim_digest"`
	// Exact holds the exact per-layer metrics over the exact window; they
	// are available on untraced runs too because they are only counters.
	Exact map[string]float64 `json:"exact"`
	// AllocsPerPkt is MemStats.Mallocs over the exact window's packets.
	AllocsPerPkt float64 `json:"allocs_per_pkt"`
	// FailShare is failed / attempted operations.
	FailShare float64 `json:"fail_share"`
	// Blocks and Packets count the whole measured phase; ExactBlocks the
	// exact window. WallS is the measured phase's host seconds.
	Blocks      int     `json:"blocks"`
	ExactBlocks int     `json:"exact_blocks"`
	Packets     uint64  `json:"packets"`
	WallS       float64 `json:"wall_s"`
	// Spread fields of the per-block ns/pkt (not metrics).
	P10 float64 `json:"ns_per_pkt_p10"`
	P50 float64 `json:"ns_per_pkt_p50"`
	P90 float64 `json:"ns_per_pkt_p90"`
	// SetupS lists every set-up repetition.
	SetupS []float64 `json:"setup_s_reps"`
	Errors []string  `json:"errors,omitempty"`
}

// sample is one measured block.
type sample struct {
	kind   int
	pkts   int
	host   time.Duration
	traced bool
}

// run is the state of one run in flight.
type run struct {
	o       runOpts
	w       workloadDecl
	sp      *spanLog
	inst    instance
	samples []sample
	window  tally // exact-window counters
	// buildHeapMB is the live heap the measured build added (traced runs
	// only: it costs two collections).
	buildHeapMB float64
	res         result
}

func (r *run) fail(format string, args ...any) {
	r.res.Detail.Errors = append(r.res.Detail.Errors, fmt.Sprintf(format, args...))
}

// runOnce executes one run and returns its result. An error means the
// harness could not run the workload at all; a run that ran but produced
// wrong outputs returns Correct=false instead.
func runOnce(o runOpts) (*result, *spanLog, error) {
	w, ok := findWorkload(o.workload)
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	r := &run{o: o, w: w, sp: newSpanLog(fmt.Sprintf("%s-seed%d", o.workload, o.seed), o.trace)}
	r.res.Detail = detail{Workload: o.workload, Seed: o.seed, Traced: o.trace}
	root := r.sp.begin("run", -1)

	if err := r.setup(root); err != nil {
		return nil, nil, err
	}
	if err := r.measure(root); err != nil {
		return nil, nil, err
	}
	r.inst.settle()
	r.res.Attempted, r.res.Failed = r.inst.operations()
	if r.res.Attempted == 0 {
		return nil, nil, fmt.Errorf("%s: no operations attempted", o.workload)
	}
	if len(r.res.Detail.Errors) > 0 {
		// A determinism failure voids every operation of the run.
		r.res.Failed = r.res.Attempted
	}
	r.res.Correct = r.res.Failed == 0
	r.res.Detail.FailShare = ratio(r.res.Failed, r.res.Attempted)

	if o.trace {
		r.res.Metrics = r.layerMetrics()
	} else {
		r.res.Metrics = map[string]metricValue{
			"ns_per_pkt":  {r.nsPerPkt(false), "ns"},
			"setup_s":     {median(r.res.Detail.SetupS), "s"},
			"peak_rss_mb": {peakRSSMB(), "MB"},
		}
	}
	r.sp.end(root)
	return &r.res, r.sp, nil
}

// setup builds the deployment several times, timing each build through
// its warm block, and keeps the last one.
func (r *run) setup(root int) error {
	reps := minSetupReps
	if r.o.smoke {
		reps = 1
	}
	var warm []string
	for rep := 0; rep < reps; rep++ {
		if r.inst != nil {
			// Release the previous build so peak_rss_mb is one
			// deployment's, not the sum of the repetitions.
			r.inst = nil
			runtime.GC()
			debug.FreeOSMemory()
		}
		var heap float64
		if r.o.trace {
			heap = heapMB()
		}
		s := r.sp.begin("setup", root)
		inst, err := r.w.build(r.o.seed, r.o.smoke, r.sp, s)
		if err != nil {
			return fmt.Errorf("%s: build: %w", r.o.workload, err)
		}
		wb := r.sp.begin("warm_block", s)
		_, _, err = inst.block(-1, r.sp, wb, false)
		r.sp.end(wb)
		r.sp.end(s)
		if err != nil {
			return fmt.Errorf("%s: warm block: %w", r.o.workload, err)
		}
		r.inst = inst
		if r.o.trace {
			r.buildHeapMB = heapMB() - heap
		}
		took := r.sp.last("setup")
		r.res.Detail.SetupS = append(r.res.Detail.SetupS, took.Seconds())
		warm = append(warm, fmt.Sprintf("%+v", inst.tally()))
		if rep == 0 && !r.o.smoke && took > 0 {
			reps = max(minSetupReps, min(maxSetupReps, int(setupBudget/took)))
		}
	}
	for _, w := range warm[1:] {
		if w != warm[0] {
			r.fail("set-up repetitions disagree after the warm block:\n  %s\n  %s", warm[0], w)
			break
		}
	}
	return nil
}

// measure runs blocks until the deadline, and at least the exact window.
// At the end of the exact window it takes the counters and the digest.
func (r *run) measure(root int) error {
	exact := r.inst.exactBlocks()
	base := r.inst.tally()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs

	m := r.sp.begin("measure", root)
	start := time.Now()
	deadline := start.Add(time.Duration(r.o.seconds * float64(time.Second)))
	for i := 0; i < exact || (!r.o.smoke && time.Now().Before(deadline)); i++ {
		// On a traced run every other block records spans, so traced and
		// untraced blocks share one process and one cache state.
		traced := r.o.trace && i%2 == 0
		parent := m
		if traced {
			parent = r.sp.begin("block", m)
		}
		pkts, host, err := r.inst.block(i, r.sp, parent, traced)
		if traced {
			r.sp.end(parent)
		}
		if err != nil {
			return fmt.Errorf("%s: block %d: %w", r.o.workload, i, err)
		}
		if pkts <= 0 {
			return fmt.Errorf("%s: block %d offered no packets", r.o.workload, i)
		}
		r.samples = append(r.samples, sample{i % r.inst.kinds(), pkts, host, traced})
		r.res.Detail.Packets += uint64(pkts)

		if i+1 == exact {
			runtime.ReadMemStats(&ms)
			r.window = r.inst.tally().sub(base)
			r.res.Detail.AllocsPerPkt = ratio(ms.Mallocs-mallocs, r.window.Pkts)
			o := r.sp.begin("outcome", m)
			text := r.inst.report()
			r.sp.end(o)
			h := fnv.New64a()
			io.WriteString(h, text)
			fmt.Fprintf(h, "%+v", r.window)
			r.res.Detail.SimDigest = fmt.Sprintf("%016x", h.Sum64())
			r.res.Detail.Exact = r.window.exactMetrics()
			r.res.Detail.ExactBlocks = exact
		}
	}
	r.sp.end(m)
	d := &r.res.Detail
	d.Blocks = len(r.samples)
	d.WallS = time.Since(start).Seconds()
	per := r.perBlock(false)
	d.P10, d.P50, d.P90 = percentile(per, 0.10), percentile(per, 0.50), percentile(per, 0.90)
	return nil
}

// perBlock returns host ns per simulated packet of each block with the
// given traced flag.
func (r *run) perBlock(traced bool) []float64 {
	var out []float64
	for _, s := range r.samples {
		if s.traced == traced {
			out = append(out, float64(s.host.Nanoseconds())/float64(s.pkts))
		}
	}
	return out
}

// nsPerPkt is the host-time estimator: the lower quartile of the blocks.
// Interference on the host only ever adds time, so the lower quartile
// tracks the undisturbed cost where the mean and the median wander. A
// workload with several block kinds (gameday's drills) takes the lower
// quartile per kind and sums, so one pass's worth of work is priced; a
// drill's single span costs nothing, so its traced runs count too.
func (r *run) nsPerPkt(traced bool) float64 {
	kinds := r.inst.kinds()
	if kinds == 1 {
		return percentile(r.perBlock(traced), 0.25)
	}
	var ns, pkts float64
	for k := 0; k < kinds; k++ {
		hosts, p := r.ofKind(k)
		ns += percentile(hosts, 0.25) * 1e9
		pkts += float64(p)
	}
	return ns / pkts
}

// ofKind returns the host seconds of every block of kind k, and the packets
// one such block offers.
func (r *run) ofKind(k int) (hosts []float64, pkts int) {
	for _, s := range r.samples {
		if s.kind == k {
			hosts = append(hosts, s.host.Seconds())
			pkts = s.pkts
		}
	}
	return hosts, pkts
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}
