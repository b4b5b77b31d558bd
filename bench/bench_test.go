package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"albatross"
)

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declJSON `json:"end_to_end"`
	PerLayer []declJSON `json:"per_layer"`
}

type declJSON struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestDeclarationsMatchBenchmarkJSON pins spec.go and workloads.go to
// BENCHMARK.json: same workloads in the same order, same metrics with the
// same unit, direction and bound.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json %q/%q, harness %q/%q", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
	}
	check := func(kind string, got []declJSON, want []metricDecl, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the harness %d", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, harness %+v", kind, i, g, w)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != w.Bound) {
				t.Errorf("%s[%d] %s: bound differs from the harness's %v", kind, i, g.Name, w.Bound)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
}

// keysOf returns m's keys, sorted.
func keysOf[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for name := range m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func declNames(decls []metricDecl) []string {
	out := make([]string, 0, len(decls))
	for _, d := range decls {
		out = append(out, d.Name)
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs every workload at -smoke scale twice, untraced and
// traced, and checks what the full benchmark relies on: the emitted metric
// names and units are the declared ones, every exact metric and the digest
// repeat, and no operation fails.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			o := runOpts{workload: w.Name, seed: 1, trace: trace, smoke: true}
			first, _, err := runOnce(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			second, _, err := runOnce(o)
			if err != nil {
				t.Fatalf("%s trace=%v, repeat: %v", w.Name, trace, err)
			}
			decls := endToEnd
			if trace {
				decls = perLayer
			}
			if got, want := keysOf(first.Metrics), declNames(decls); !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%v: emitted metrics %v, declared %v", w.Name, trace, got, want)
			}
			for _, d := range decls {
				if first.Metrics[d.Name].Unit != d.Unit {
					t.Errorf("%s: %s has unit %q, declared %q", w.Name, d.Name, first.Metrics[d.Name].Unit, d.Unit)
				}
			}
			for _, r := range []*result{first, second} {
				if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
					t.Errorf("%s trace=%v: correct=%v, %d of %d operations failed: %v",
						w.Name, trace, r.Correct, r.Failed, r.Attempted, r.Detail.Errors)
				}
			}
			if first.Detail.SimDigest == "" || first.Detail.SimDigest != second.Detail.SimDigest {
				t.Errorf("%s trace=%v: sim_digest %q then %q", w.Name, trace, first.Detail.SimDigest, second.Detail.SimDigest)
			}
			if got, want := keysOf(first.Detail.Exact), exactNames(); !sameSet(got, want) {
				t.Errorf("%s: exact metrics %v, declared %v", w.Name, got, want)
			}
			if !reflect.DeepEqual(first.Detail.Exact, second.Detail.Exact) {
				t.Errorf("%s trace=%v: exact metrics differ between two runs:\n%v\n%v", w.Name, trace, first.Detail.Exact, second.Detail.Exact)
			}
			if !trace {
				for _, d := range endToEnd {
					if first.Metrics[d.Name].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", w.Name, d.Name, first.Metrics[d.Name].Value)
					}
				}
			}
		}
	}
}

func sameSet(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	return reflect.DeepEqual(a, b)
}

// TestDrillSnapshots checks that bench/drills/ holds exactly the declared
// drills and that each still loads and validates.
func TestDrillSnapshots(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("drills", "*.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range files {
		names = append(names, strings.TrimSuffix(filepath.Base(f), ".yaml"))
	}
	if !sort.StringsAreSorted(drillNames) || !sameSet(names, drillNames) {
		t.Fatalf("drills/ holds %v, declared (in lexical order) %v", names, drillNames)
	}
	for _, f := range files {
		sc, err := albatross.LoadScenarioFile(f)
		if err != nil {
			t.Errorf("%s: %v", f, err)
			continue
		}
		if err := sc.Validate(); err != nil {
			t.Errorf("%s: %v", f, err)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]; for [3, 1, 2] it is [1.0, 2.0, 3.0].
	q1, q3 := quartiles([]float64{1, 2, 4, 7, 11, 16, 22, 29, 37, 46})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles of ten = %v, %v; want 3.5, 31", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of three = %v, %v; want 1, 3", q1, q3)
	}
}

// TestCompareVerdicts drives -compare's three verdicts and its exit code
// from synthetic result files.
func TestCompareVerdicts(t *testing.T) {
	mk := func(ns []float64, digest string, events float64) *setFile {
		f := &setFile{Seed: 1}
		for i, v := range ns {
			f.Runs = append(f.Runs, setRun{
				Round: i + 1, Correct: true, Attempted: 10,
				Metrics: map[string]metricValue{"ns_per_pkt": {v, "ns"}},
				Detail: detail{Workload: "node-perpkt", SimDigest: digest,
					Exact: map[string]float64{"sim.events_per_pkt": events}},
			})
		}
		return f
	}
	base := mk([]float64{1000, 1010, 1020}, "aaaaaaaaaaaaaaaa", 3)
	// The cases scale with the declared bound of ns_per_pkt.
	slow := 1000 * (1 + 2*endToEnd[0].Bound)
	wide := 1000 * (1 + 3*endToEnd[0].Bound)
	cases := []struct {
		name string
		b    *setFile
		want string
		code int
	}{
		{"same", mk([]float64{1005, 1010, 1015}, "aaaaaaaaaaaaaaaa", 3), "ok", 0},
		{"slower", mk([]float64{slow, slow + 10, slow + 20}, "aaaaaaaaaaaaaaaa", 3), "regressed", 1},
		{"noisy", mk([]float64{900, 1100, wide}, "aaaaaaaaaaaaaaaa", 3), "unresolved", 0},
		{"digest", mk([]float64{1005, 1010, 1015}, "bbbbbbbbbbbbbbbb", 3), "mismatch", 1},
		{"count", mk([]float64{1005, 1010, 1015}, "aaaaaaaaaaaaaaaa", 4), "mismatch", 1},
	}
	for _, c := range cases {
		var out bytes.Buffer
		code := compareSets(base, c.b, &out)
		if code != c.code || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: exit %d, want %d with %q in:\n%s", c.name, code, c.code, c.want, out.String())
		}
	}
}
