package metrics

import (
	"hash/fnv"
	"strings"
	"testing"

	"albatross/internal/sim"
	"albatross/internal/stats"
)

// buildTimelineFixture registers one labeled counter, one gauge, and one
// histogram over mutable state, then builds a 10ms timeline over them.
func buildTimelineFixture() (tl *Timeline, count *uint64, level *float64, h *stats.Histogram) {
	reg := New()
	count = new(uint64)
	level = new(float64)
	h = stats.NewHistogram(5)
	c := count
	g := level
	reg.Counter("pkts_total", "packets", func() uint64 { return *c }, L("node", "gw-0"))
	reg.Gauge("queue_depth", "depth", func() float64 { return *g })
	reg.Histogram("lat_ns", "latency", h)
	tl = NewTimeline(reg, 10*sim.Millisecond)
	return tl, count, level, h
}

func TestTimelineColumnsAndSampling(t *testing.T) {
	tl, count, level, h := buildTimelineFixture()
	// The histogram is not sampled: it has no column.
	wantKeys := []string{
		"pkts_total{node=\"gw-0\"}",
		"queue_depth",
	}
	keys := tl.Keys()
	if len(keys) != len(wantKeys) {
		t.Fatalf("keys = %v, want %v", keys, wantKeys)
	}
	for i := range keys {
		if keys[i] != wantKeys[i] {
			t.Fatalf("keys[%d] = %q, want %q", i, keys[i], wantKeys[i])
		}
	}

	// Pre-Start activity becomes the baseline, not the first tick's delta.
	*count = 100
	tl.Start(0)
	if got := tl.Next(); got != sim.Time(10*sim.Millisecond) {
		t.Fatalf("Next = %d, want 10ms", got)
	}

	*count = 130
	*level = 2.5
	h.Record(1000)
	tl.Sample(tl.Next())

	*count = 130 // idle tick
	*level = 0
	tl.Sample(tl.Next())

	if tl.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tl.Len())
	}
	check := func(key string, want ...float64) {
		t.Helper()
		vals, ok := tl.Values(key)
		if !ok {
			t.Fatalf("missing column %q", key)
		}
		for i := range want {
			if vals[i] != want[i] {
				t.Fatalf("%s[%d] = %v, want %v", key, i, vals[i], want[i])
			}
		}
	}
	check("pkts_total{node=\"gw-0\"}", 30, 0) // deltas, baseline 100 excluded
	check("queue_depth", 2.5, 0)              // point values
	if _, ok := tl.Values("nope"); ok {
		t.Fatal("Values on unknown key reported ok")
	}
}

func TestTimelineRatioColumn(t *testing.T) {
	reg := New()
	var sprayed, delivered uint64
	reg.Counter("sprayed", "s", func() uint64 { return sprayed })
	reg.Counter("delivered", "d", func() uint64 { return delivered })
	tl := NewTimeline(reg, sim.Millisecond)
	tl.AddRatio("availability", "delivered", "sprayed", 1)
	tl.Start(0)

	sprayed, delivered = 100, 80
	tl.Sample(tl.Next())
	tl.Sample(tl.Next()) // idle: zero denominator

	av, _ := tl.Values("availability")
	if av[0] != 0.8 {
		t.Fatalf("availability[0] = %v, want 0.8", av[0])
	}
	if av[1] != 1 {
		t.Fatalf("idle-tick availability = %v, want fallback 1", av[1])
	}
}

func TestTimelineCSV(t *testing.T) {
	tl, count, _, h := buildTimelineFixture()
	tl.Start(0)
	*count = 7
	h.Record(100)
	tl.Sample(tl.Next())

	csv := tl.CSV()
	lines := strings.Split(strings.TrimSuffix(csv, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("CSV has %d lines, want header + 1 tick:\n%s", len(lines), csv)
	}
	// Label signatures contain quotes and commas: header cells must be
	// RFC 4180-quoted so a CSV reader recovers the exact key.
	if !strings.Contains(lines[0], `"pkts_total{node=""gw-0""}"`) {
		t.Fatalf("labeled column header not CSV-quoted: %s", lines[0])
	}
	if !strings.HasPrefix(lines[1], "10,") {
		t.Fatalf("tick row should start at t_ms=10: %s", lines[1])
	}
	if !strings.Contains(lines[1], ",7,") && !strings.HasSuffix(lines[1], ",7") {
		t.Fatalf("counter delta 7 missing from row: %s", lines[1])
	}

	sum1, n1 := tl.Checksum()
	sum2, n2 := tl.Checksum()
	if sum1 != sum2 || n1 != n2 || n1 != len(csv) {
		t.Fatalf("Checksum not stable: (%x,%d) vs (%x,%d), csv len %d", sum1, n1, sum2, n2, len(csv))
	}
	// The checksum is streamed: it must still be the FNV-64a of the CSV text.
	want := fnv.New64a()
	want.Write([]byte(csv))
	if sum1 != want.Sum64() {
		t.Fatalf("Checksum %#x, want the CSV's FNV-64a %#x", sum1, want.Sum64())
	}
}

func TestTimelineMisuse(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	reg := New()
	reg.Counter("c", "c", func() uint64 { return 0 })

	expectPanic("zero period", func() { NewTimeline(reg, 0) })

	tl := NewTimeline(reg, sim.Millisecond)
	expectPanic("Next before Start", func() { tl.Next() })
	expectPanic("Sample before Start", func() { tl.Sample(0) })
	expectPanic("unknown ratio operand", func() { tl.AddRatio("r", "c", "nope", 0) })
	expectPanic("duplicate column", func() { tl.AddRatio("c", "c", "c", 0) })

	tl.Start(0)
	expectPanic("double Start", func() { tl.Start(0) })
	expectPanic("AddRatio after Start", func() { tl.AddRatio("r2", "c", "c", 0) })
	expectPanic("off-tick Sample", func() { tl.Sample(sim.Time(1)) })
}
