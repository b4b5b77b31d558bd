package metrics

import (
	"errors"
	"hash/fnv"
	"math"
	"strconv"
	"strings"
	"testing"

	"albatross/internal/stats"
)

// stringPrometheus is the renderer the streaming one replaced: the whole
// exposition built as one string from a snapshot, labels rendered per line
// with strconv.Quote. It is kept here as the oracle the stream must match.
func stringPrometheus(s *Snapshot) string {
	labels := func(ls []Label, extraKey, extraVal string) string {
		if len(ls) == 0 && extraKey == "" {
			return ""
		}
		var parts []string
		for _, l := range ls {
			parts = append(parts, l.Key+"="+strconv.Quote(l.Value))
		}
		if extraKey != "" {
			parts = append(parts, extraKey+"="+strconv.Quote(extraVal))
		}
		return "{" + strings.Join(parts, ",") + "}"
	}
	var b strings.Builder
	for _, f := range s.Families {
		typ := f.Kind
		if typ == "histogram" {
			typ = "summary"
		}
		b.WriteString("# HELP " + f.Name + " " + f.Help + "\n")
		b.WriteString("# TYPE " + f.Name + " " + typ + "\n")
		for _, sv := range f.Series {
			if sv.Hist == nil {
				b.WriteString(f.Name + labels(sv.Labels, "", "") + " " +
					strconv.FormatFloat(sv.Value, 'g', -1, 64) + "\n")
				continue
			}
			for _, q := range []struct {
				label string
				v     int64
			}{{"0.5", sv.Hist.P50}, {"0.9", sv.Hist.P90}, {"0.99", sv.Hist.P99}, {"0.999", sv.Hist.P999}} {
				b.WriteString(f.Name + labels(sv.Labels, "quantile", q.label) + " " +
					strconv.FormatInt(q.v, 10) + "\n")
			}
			b.WriteString(f.Name + "_sum" + labels(sv.Labels, "", "") + " " + strconv.FormatInt(sv.Hist.Sum, 10) + "\n")
			b.WriteString(f.Name + "_count" + labels(sv.Labels, "", "") + " " + strconv.FormatUint(sv.Hist.Count, 10) + "\n")
		}
	}
	return b.String()
}

// streamRegistries are registries whose exports exercise every renderer
// path: all three kinds, hostile label values, unlabeled series, an empty
// histogram, non-finite gauges and a family wide enough that signature
// order differs from registration and from numeric order.
func streamRegistries() map[string]*Registry {
	hostile := New()
	hostile.Counter("evil_total", "evil", func() uint64 { return 1 }, L("path", "a\\b\"c\nd"), L("k", "é\t"))
	hostile.Gauge("inf_ratio", "non-finite", func() float64 { return math.Inf(1) }, L("s", "+"))
	hostile.Gauge("inf_ratio", "non-finite", func() float64 { return math.NaN() }, L("s", "nan"))
	hostile.Gauge("inf_ratio", "non-finite", func() float64 { return -1e-300 }, L("s", "tiny"))
	hostile.Histogram("empty_ns", "never recorded", stats.NewLatencyHistogram())

	wide := New()
	for i := 0; i < 120; i++ {
		node := strconv.Itoa((i * 37) % 120)
		h := stats.NewHistogram(4)
		for v := int64(0); v < int64(i); v++ {
			h.Record(v * v * 977)
		}
		wide.Histogram("member_latency_ns", "Latency.", h, L("pod", "gw"), L("node", node))
		wide.Counter("member_rx_total", "Rx.", func() uint64 { return uint64(i) * 1e9 }, L("node", node))
	}
	return map[string]*Registry{
		"fixture": buildRegistry(),
		"hostile": hostile,
		"wide":    wide,
		"empty":   New(),
	}
}

// TestStreamedExportMatchesStringRenderer holds WritePrometheus, Checksum
// and Snapshot.Prometheus to the string renderer they replaced.
func TestStreamedExportMatchesStringRenderer(t *testing.T) {
	for name, r := range streamRegistries() {
		want := stringPrometheus(r.Snapshot())
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatalf("%s: WritePrometheus: %v", name, err)
		}
		if got := b.String(); got != want {
			t.Fatalf("%s: streamed export differs from the string renderer:\n got %q\nwant %q", name, got, want)
		}
		if got := r.Snapshot().Prometheus(); got != want {
			t.Fatalf("%s: Snapshot.Prometheus differs from the string renderer:\n got %q\nwant %q", name, got, want)
		}
		h := fnv.New64a()
		h.Write([]byte(want))
		if sum, n := r.Checksum(); sum != h.Sum64() || n != len(want) {
			t.Fatalf("%s: Checksum = (%#x, %d), want (%#x, %d)", name, sum, n, h.Sum64(), len(want))
		}
	}
}

// failAfter accepts n bytes, then fails every write.
type failAfter struct{ n int }

var errFull = errors.New("full")

func (w *failAfter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		w.n = 0
		return 0, errFull
	}
	w.n -= len(p)
	return len(p), nil
}

func TestWritersReportTheFirstError(t *testing.T) {
	if err := buildRegistry().WritePrometheus(&failAfter{n: 40}); !errors.Is(err, errFull) {
		t.Fatalf("WritePrometheus into a full writer: %v, want errFull", err)
	}
	tl, _, _, _ := buildTimelineFixture()
	tl.Start(0)
	tl.Sample(tl.Next())
	if err := tl.writeCSV(&failAfter{n: 10}); !errors.Is(err, errFull) {
		t.Fatalf("writeCSV into a full writer: %v, want errFull", err)
	}
}
