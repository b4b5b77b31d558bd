package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// compareFiles applies the declared bounds to two result files of the same
// kind (A is the baseline, B the candidate) and prints one row per
// (metric, workload). It returns non-zero on a regression, on an exact
// metric or sim_digest that differs, and on a higher fail_share.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readSetFile(pathA)
	if err == nil {
		var b *setFile
		if b, err = readSetFile(pathB); err == nil {
			return compareSets(a, b, stdout)
		}
	}
	fmt.Fprintln(stderr, "bench:", err)
	return 2
}

func compareSets(a, b *setFile, w io.Writer) int {
	if a.Provenance.CPUModel != b.Provenance.CPUModel || a.Provenance.NProc != b.Provenance.NProc ||
		a.Provenance.GOMAXPROCS != b.Provenance.GOMAXPROCS {
		fmt.Fprintf(w, "WARNING: hosts differ (%s x%d vs %s x%d): host-time verdicts do not transfer between hosts\n",
			a.Provenance.CPUModel, a.Provenance.NProc, b.Provenance.CPUModel, b.Provenance.NProc)
	}
	if a.Seed != b.Seed {
		fmt.Fprintf(w, "WARNING: seeds differ (%d vs %d): exact metrics are per seed\n", a.Seed, b.Seed)
	}
	bad := 0
	row := func(workload, metric, unit string, ma, mb, ia, ib float64, verdict string) {
		fmt.Fprintf(w, "%-16s %-28s %14.4f %14.4f %-6s iqr %10.4f %10.4f  %s\n",
			workload, metric, ma, mb, unit, ia, ib, verdict)
		if verdict != "ok" && verdict != "unresolved" {
			bad++
		}
	}
	fmt.Fprintf(w, "%-16s %-28s %14s %14s %-6s     %10s %10s  verdict\n", "workload", "metric", "A median", "B median", "unit", "A", "B")
	for _, wl := range workloads {
		// Host-time metrics: the declared relative bound.
		for _, m := range endToEnd {
			va, unit := a.values(wl.Name, m.Name)
			vb, _ := b.values(wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			allowed := m.Bound * median(va)
			if m.Name == "setup_s" {
				allowed = math.Max(allowed, setupFloorS)
			}
			ia, ib := iqr(va), iqr(vb)
			row(wl.Name, m.Name, unit, median(va), median(vb), ia, ib, verdict(va, vb, allowed))
		}
		ra, rb := a.runsOf(wl.Name), b.runsOf(wl.Name)
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		// allocs_per_pkt: an absolute bound.
		allocs := func(d detail) float64 { return d.AllocsPerPkt }
		aa, ab := detailValues(ra, allocs), detailValues(rb, allocs)
		v := "ok"
		if median(ab)-median(aa) > allocsBound {
			v = "regressed"
		}
		row(wl.Name, "allocs_per_pkt", "count", median(aa), median(ab), iqr(aa), iqr(ab), v)
		// fail_share may not rise at all.
		fails := func(d detail) float64 { return d.FailShare }
		fa, fb := detailValues(ra, fails), detailValues(rb, fails)
		v = "ok"
		if maxOf(fb) > maxOf(fa) {
			v = "regressed"
		}
		row(wl.Name, "fail_share", "ratio", maxOf(fa), maxOf(fb), 0, 0, v)
		// Exact metrics and the digest: equality, within and across files.
		all := append(append([]setRun(nil), ra...), rb...)
		names := exactNames()
		sort.Strings(names)
		for _, name := range names {
			xa, xb := ra[0].Detail.Exact[name], rb[0].Detail.Exact[name]
			v := "ok"
			for _, r := range all {
				if r.Detail.Exact[name] != xa {
					v = "mismatch"
				}
			}
			if v != "ok" || xa != 0 {
				row(wl.Name, name+" =", "", xa, xb, 0, 0, v)
			}
		}
		v = "ok"
		for _, r := range all {
			if r.Detail.SimDigest != ra[0].Detail.SimDigest {
				v = "mismatch"
			}
		}
		fmt.Fprintf(w, "%-16s %-28s %14s %14s %-6s     %10s %10s  %s\n", wl.Name, "sim_digest =",
			ra[0].Detail.SimDigest[:12], rb[0].Detail.SimDigest[:12], "", "", "", v)
		if v != "ok" {
			bad++
		}
	}
	if bad > 0 {
		fmt.Fprintf(w, "%d row(s) regressed or mismatched\n", bad)
		return 1
	}
	fmt.Fprintln(w, "no regression, no mismatch")
	return 0
}

// verdict judges a lower-is-better metric. When the spread between rounds
// is wider than the bound the difference cannot be resolved, unless every
// run of B reads better than every run of A.
func verdict(va, vb []float64, allowed float64) string {
	if math.Max(iqr(va), iqr(vb)) > allowed {
		if maxOf(vb) < minOf(va) {
			return "ok"
		}
		return "unresolved"
	}
	if median(vb)-median(va) > allowed {
		return "regressed"
	}
	return "ok"
}

func iqr(vals []float64) float64 {
	q1, q3 := quartiles(vals)
	return q3 - q1
}

func maxOf(vals []float64) float64 {
	m := math.Inf(-1)
	for _, v := range vals {
		m = math.Max(m, v)
	}
	return m
}

func minOf(vals []float64) float64 {
	m := math.Inf(1)
	for _, v := range vals {
		m = math.Min(m, v)
	}
	return m
}

func (f *setFile) runsOf(workload string) []setRun {
	var out []setRun
	for _, r := range f.Runs {
		if r.Detail.Workload == workload {
			out = append(out, r)
		}
	}
	return out
}

func detailValues(runs []setRun, get func(detail) float64) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = get(r.Detail)
	}
	return out
}
