package trace_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"albatross/internal/core"
	"albatross/internal/errs"
	"albatross/internal/pod"
	"albatross/internal/service"
	"albatross/internal/sim"
	"albatross/internal/workload"
	"albatross/internal/workload/trace"
)

// sampleTrace builds a small hand-made schedule covering the field ranges
// the record encoding has to carry: target assignments and the -1
// sentinel, zero offsets, repeated timestamps.
func sampleTrace() *trace.Trace {
	flows := workload.GenerateFlows(5, 3, 42)
	t := &trace.Trace{Header: trace.Header{Note: "unit", Seed: 42, Nodes: 3}}
	at := []sim.Duration{0, 10, 10, 250, 4000}
	for i, f := range flows {
		t.Events = append(t.Events, trace.Event{
			At:    at[i],
			Flow:  f,
			Bytes: 64 + i,
			Node:  i%3 - 1, // exercises -1 and real indices
			Pod:   0,
		})
	}
	return t
}

// TestTraceRoundTrip pins the wire format: write → read must reproduce the
// events exactly and stamp the derived header fields.
func TestTraceRoundTrip(t *testing.T) {
	orig := sampleTrace()
	var buf bytes.Buffer
	if err := orig.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := trace.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Events, orig.Events) {
		t.Fatalf("events differ after round trip:\n got %+v\nwant %+v", got.Events, orig.Events)
	}
	if got.Header.Version != trace.Version || got.Header.Events != len(orig.Events) {
		t.Fatalf("header not stamped: %+v", got.Header)
	}
	if got.Header.DurationNS != int64(orig.Span()) {
		t.Fatalf("duration %d != span %d", got.Header.DurationNS, orig.Span())
	}
	// A second serialization of the decoded trace is byte-identical: the
	// format has one canonical encoding.
	var buf2 bytes.Buffer
	if err := got.Write(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("re-serialization is not byte-identical")
	}
}

// TestTraceFileSidecar pins WriteFile's artifact pair: the binary loads
// back, and the JSON sidecar exists next to it.
func TestTraceFileSidecar(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.trace")
	orig := sampleTrace()
	if err := orig.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := trace.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Events, orig.Events) {
		t.Fatal("events differ after file round trip")
	}
	data, err := os.ReadFile(path + ".json")
	if err != nil {
		t.Fatal(err)
	}
	var side trace.Header
	if err := json.Unmarshal(data, &side); err != nil {
		t.Fatal(err)
	}
	if side.Events != len(orig.Events) || side.Seed != 42 {
		t.Fatalf("sidecar header %+v does not match trace", side)
	}
}

// TestTraceRejectsCorruption spot-checks the validation the fuzz harness
// explores: truncation, bad magic, version skew, checksum damage — each
// must fail with ErrBadTrace (and the errs.BadConfig sentinel).
func TestTraceRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleTrace().Write(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	cases := map[string][]byte{
		"empty":         {},
		"short magic":   good[:3],
		"short header":  good[:14],
		"truncated rec": good[:len(good)-7],
	}
	badMagic := bytes.Clone(good)
	badMagic[0] = 'X'
	cases["bad magic"] = badMagic
	badVer := bytes.Clone(good)
	badVer[4] = 99
	cases["bad version"] = badVer
	flipped := bytes.Clone(good)
	flipped[len(flipped)-1] ^= 0xff
	cases["checksum"] = flipped

	for name, data := range cases {
		if _, err := trace.Read(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: accepted corrupt input", name)
		} else if !errors.Is(err, trace.ErrBadTrace) || !errors.Is(err, errs.BadConfig) {
			t.Errorf("%s: error %v does not wrap ErrBadTrace/errs.BadConfig", name, err)
		}
	}
}

// TestRecordReplayMetricsByteIdentical is the tentpole contract at node
// scope: record a live run through a recording sink, replay the trace into a
// freshly built identical node, and require the full metrics exports —
// Prometheus text and JSON — to match byte for byte.
func TestRecordReplayMetricsByteIdentical(t *testing.T) {
	build := func() (*core.Node, *core.PodRuntime) {
		n, err := core.NewNode(core.NodeConfig{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		flows := workload.GenerateFlows(500, 20, 7)
		pr, err := n.AddPod(core.PodConfig{
			Spec:  pod.Spec{Name: "gw", Service: service.VPCVPC, DataCores: 4, CtrlCores: 1, Mode: pod.ModePLB},
			Flows: workload.ServiceFlows(flows, 0),
		})
		if err != nil {
			t.Fatal(err)
		}
		return n, pr
	}

	flows := workload.GenerateFlows(500, 20, 7)
	n1, p1 := build()
	rec := trace.NewRecorder(n1.Engine)
	live := p1.Sink()
	src, err := workload.New(
		workload.WithFlows(flows),
		workload.WithRate(workload.ConstantRate(4e5)),
		workload.WithSeed(99),
		workload.WithSink(func(f workload.Flow, bytes int) {
			rec.Record(f, bytes, -1, -1)
			live(f, bytes)
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Start(n1.Engine); err != nil {
		t.Fatal(err)
	}
	n1.RunFor(20 * sim.Millisecond)
	src.Stop()
	n1.RunFor(5 * sim.Millisecond)

	var buf bytes.Buffer
	if err := rec.Trace().Write(&buf); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if recorded := len(rec.Trace().Events); recorded == 0 || len(tr.Events) != recorded {
		t.Fatalf("recorded %d events, decoded %d", recorded, len(tr.Events))
	}

	n2, p2 := build()
	rp, err := trace.Replay(n2.Engine, tr, p2.Sink())
	if err != nil {
		t.Fatal(err)
	}
	n2.RunFor(25 * sim.Millisecond)
	if !rp.Done() || rp.Injected != uint64(len(tr.Events)) {
		t.Fatalf("replay incomplete: injected %d of %d", rp.Injected, len(tr.Events))
	}

	prom1, prom2 := n1.Metrics().Prometheus(), n2.Metrics().Prometheus()
	if prom1 != prom2 {
		t.Fatal("Prometheus exports differ between recorded run and replay")
	}
	j1, err := n1.Metrics().JSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := n2.Metrics().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Fatal("JSON exports differ between recorded run and replay")
	}
}
