package metrics

import (
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"albatross/internal/stats"
)

func TestRegistryCounterGaugeSnapshot(t *testing.T) {
	r := New()
	var rx uint64 = 41
	r.Counter("albatross_pod_rx_total", "Packets received.", func() uint64 { return rx },
		L("pod", "gw"))
	r.Gauge("albatross_pod_live", "Contexts in flight.", func() float64 { return 3 },
		L("pod", "gw"))
	rx++
	s := r.Snapshot()
	if len(s.Families) != 2 {
		t.Fatalf("families = %d", len(s.Families))
	}
	// Closure-backed: snapshot sees the post-registration increment.
	v, ok := s.Find("albatross_pod_rx_total", L("pod", "gw"))
	if !ok || v.Value != 42 {
		t.Fatalf("rx series = %+v ok=%v", v, ok)
	}
	if v, ok := s.Find("albatross_pod_live"); !ok || v.Value != 3 {
		t.Fatalf("live series = %+v ok=%v", v, ok)
	}
}

func TestRegistryHistogramSnapshot(t *testing.T) {
	r := New()
	h := stats.NewHistogram(8)
	for i := int64(1); i <= 100; i++ {
		h.Record(i * 1000)
	}
	r.Histogram("albatross_latency_ns", "End-to-end latency.", h, L("pod", "gw"))
	v, ok := r.Snapshot().Find("albatross_latency_ns")
	if !ok || v.Hist == nil {
		t.Fatalf("histogram series missing: %+v", v)
	}
	if v.Hist.Count != 100 || v.Hist.Min != 1000 || v.Hist.Max != 100000 {
		t.Fatalf("hist value %+v", *v.Hist)
	}
	if v.Hist.P50 < 40000 || v.Hist.P50 > 60000 {
		t.Fatalf("p50 = %d", v.Hist.P50)
	}
}

func TestRegistryPanicsOnAbuse(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	c := func() uint64 { return 0 }
	expectPanic("invalid name", func() { New().Counter("bad name!", "", c) })
	expectPanic("invalid label key", func() { New().Counter("ok", "", c, L("bad key", "v")) })
	expectPanic("nil counter fn", func() { New().Counter("ok", "", nil) })
	expectPanic("nil histogram", func() { New().Histogram("ok", "", nil) })
	expectPanic("kind conflict", func() {
		r := New()
		r.Counter("m", "h", c)
		r.Gauge("m", "h", func() float64 { return 0 })
	})
	expectPanic("help conflict", func() {
		r := New()
		r.Counter("m", "one", c, L("pod", "a"))
		r.Counter("m", "two", c, L("pod", "b"))
	})
	expectPanic("duplicate labelset", func() {
		r := New()
		r.Counter("m", "h", c, L("pod", "a"))
		r.Counter("m", "h", c, L("pod", "a"))
	})
	expectPanic("duplicate of an early series of a wide family, keys reordered", func() {
		r := New()
		for i := 0; i < 100; i++ {
			r.Counter("m", "h", c, L("node", strconv.Itoa(i)), L("pod", "a"))
		}
		r.Counter("m", "h", c, L("pod", "a"), L("node", "37"))
	})
}

func buildRegistry() *Registry {
	r := New()
	h := stats.NewHistogram(6)
	h.Record(100)
	h.Record(10000)
	// Registration order deliberately unsorted: export must sort.
	r.Counter("zeta_total", "Last family.", func() uint64 { return 7 })
	r.Gauge("alpha_ratio", "First family.", func() float64 { return 0.25 }, L("pod", "b"))
	r.Gauge("alpha_ratio", "First family.", func() float64 { return 0.75 }, L("pod", "a"))
	r.Histogram("mid_latency_ns", "A histogram.", h, L("z", "1"), L("a", "2"))
	return r
}

func TestPrometheusExposition(t *testing.T) {
	out := buildRegistry().Snapshot().Prometheus()
	wantLines := []string{
		`# TYPE alpha_ratio gauge`,
		`alpha_ratio{pod="a"} 0.75`,
		`alpha_ratio{pod="b"} 0.25`,
		`# TYPE mid_latency_ns summary`,
		`mid_latency_ns{a="2",z="1",quantile="0.5"} `,
		`mid_latency_ns_sum{a="2",z="1"} 10100`,
		`mid_latency_ns_count{a="2",z="1"} 2`,
		`# TYPE zeta_total counter`,
		`zeta_total 7`,
	}
	pos := -1
	for _, w := range wantLines {
		i := strings.Index(out, w)
		if i < 0 {
			t.Fatalf("missing %q in exposition:\n%s", w, out)
		}
		if i < pos {
			t.Fatalf("line %q out of order (families must sort by name):\n%s", w, out)
		}
		pos = i
	}
}

func TestJSONRoundTripsAndSorts(t *testing.T) {
	raw, err := buildRegistry().Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Families []struct {
			Name   string `json:"name"`
			Kind   string `json:"kind"`
			Series []struct {
				Labels []map[string]string `json:"labels"`
			} `json:"series"`
		} `json:"families"`
	}
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, raw)
	}
	var names []string
	for _, f := range decoded.Families {
		names = append(names, f.Name)
	}
	if strings.Join(names, ",") != "alpha_ratio,mid_latency_ns,zeta_total" {
		t.Fatalf("families out of order: %v", names)
	}
	// Histogram labels sort by key: "a" before "z".
	hist := decoded.Families[1]
	if hist.Series[0].Labels[0]["key"] != "a" {
		t.Fatalf("labels not sorted: %v", hist.Series[0].Labels)
	}
}

func TestExportDeterministic(t *testing.T) {
	// Two registries built identically must export byte-identically (the
	// registry uses maps internally; export must not leak their order).
	for i := 0; i < 10; i++ {
		a, b := buildRegistry().Snapshot(), buildRegistry().Snapshot()
		if a.Prometheus() != b.Prometheus() {
			t.Fatal("Prometheus output differs between identical registries")
		}
		aj, _ := a.JSON()
		bj, _ := b.JSON()
		if string(aj) != string(bj) {
			t.Fatal("JSON output differs between identical registries")
		}
	}
}

func TestFindRejectsAmbiguity(t *testing.T) {
	s := buildRegistry().Snapshot()
	// Two alpha_ratio series match the empty label filter.
	if _, ok := s.Find("alpha_ratio"); ok {
		t.Fatal("ambiguous Find returned ok")
	}
	if _, ok := s.Find("nope"); ok {
		t.Fatal("missing family returned ok")
	}
}

func TestPromLabelsEscaping(t *testing.T) {
	cases := []struct {
		name   string
		labels []Label
		extraK string
		extraV string
		want   string
	}{
		{"empty", nil, "", "", ""},
		{"plain", []Label{L("a", "x")}, "", "", `{a="x"}`},
		{"quote", []Label{L("a", `va"l`)}, "", "", `{a="va\"l"}`},
		{"backslash", []Label{L("a", `c:\tmp`)}, "", "", `{a="c:\\tmp"}`},
		{"newline", []Label{L("a", "line1\nline2")}, "", "", `{a="line1\nline2"}`},
		{"all-three", []Label{L("a", "\"\\\n")}, "", "", `{a="\"\\\n"}`},
		{"extra-only", nil, "quantile", "0.99", `{quantile="0.99"}`},
		{"labels-plus-extra", []Label{L("a", "x")}, "quantile", "0.5", `{a="x",quantile="0.5"}`},
		{"extra-escaped", nil, "q", "v\"w", `{q="v\"w"}`},
	}
	for _, tc := range cases {
		if got := promLabels(tc.labels, tc.extraK, tc.extraV); got != tc.want {
			t.Errorf("%s: promLabels = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestPromLabelsEscapingInExposition(t *testing.T) {
	// End to end: a hostile label value must survive the full Prometheus
	// render without breaking the line structure.
	r := New()
	r.Counter("evil_total", "evil", func() uint64 { return 1 }, L("path", "a\\b\"c\nd"))
	out := r.Snapshot().Prometheus()
	want := `evil_total{path="a\\b\"c\nd"} 1`
	if !strings.Contains(out, want) {
		t.Fatalf("exposition missing escaped series line %q:\n%s", want, out)
	}
	if strings.Count(out, "\n") != 3 { // HELP, TYPE, series
		t.Fatalf("raw newline leaked into exposition:\n%q", out)
	}
}

func TestFindEdges(t *testing.T) {
	r := New()
	r.Counter("multi_total", "m", func() uint64 { return 1 }, L("pod", "a"), L("zone", "east"))
	r.Counter("multi_total", "m", func() uint64 { return 2 }, L("pod", "b"), L("zone", "east"))
	r.Gauge("single", "s", func() float64 { return 9 })
	s := r.Snapshot()

	// A filter matching several series of one family must not pick one.
	if _, ok := s.Find("multi_total", L("zone", "east")); ok {
		t.Fatal("multi-match Find returned ok")
	}
	// Narrowing to a unique series succeeds, including with a subset filter.
	if v, ok := s.Find("multi_total", L("pod", "b")); !ok || v.Value != 2 {
		t.Fatalf("unique subset Find = (%v, %v), want (2, true)", v.Value, ok)
	}
	// Right family, no label match.
	if _, ok := s.Find("multi_total", L("pod", "zzz")); ok {
		t.Fatal("no-match labels returned ok")
	}
	// Label value exists but under another key.
	if _, ok := s.Find("multi_total", L("zone", "a")); ok {
		t.Fatal("key/value crosswired Find returned ok")
	}
	// More filter labels than the series carries.
	if _, ok := s.Find("single", L("pod", "a")); ok {
		t.Fatal("over-constrained Find returned ok")
	}
	// Empty filter on a single-series family still works.
	if v, ok := s.Find("single"); !ok || v.Value != 9 {
		t.Fatalf("empty-filter Find = (%v, %v), want (9, true)", v.Value, ok)
	}
}
