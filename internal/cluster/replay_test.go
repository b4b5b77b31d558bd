package cluster

import (
	"bytes"
	"strings"
	"testing"

	"albatross/internal/core"
	"albatross/internal/faults"
	"albatross/internal/pod"
	"albatross/internal/service"
	"albatross/internal/sim"
	"albatross/internal/workload"
	"albatross/internal/workload/trace"
)

// TestReplayAcrossSeedsAndCrashPlan is record → save → replay → diff as a
// regression oracle. One live 3-node run is recorded, written to the wire
// format and read back. With service jitter off (the only per-packet RNG
// draw) the schedule alone decides every outcome, so replays under three
// node seeds are byte-identical to the recording. A replay under a node
// crash may differ from healthy only in the crashed node's lines, the ECMP
// totals and the metrics checksum: the crash lands inside the traffic and
// BFD detects it after the traffic ends, so its whole cost is
// detection-window blackhole — nothing remaps, and no conservation
// residual moves.
func TestReplayAcrossSeedsAndCrashPlan(t *testing.T) {
	const (
		nodes      = 3
		trafficLen = 40 * sim.Millisecond
		totalLen   = 300 * sim.Millisecond // past BFD detection of the crash
	)
	wf := workload.GenerateFlows(1200, 100, testSeed)
	podCfg := core.PodConfig{
		Spec:             pod.Spec{Name: "gw", Service: service.VPCVPC, DataCores: 4, CtrlCores: 1, Mode: pod.ModePLB},
		Flows:            workload.ServiceFlows(wf, 0),
		JitterSigma:      -1,
		TraceSampleEvery: 64,
	}
	build := func(seed uint64, plan *faults.Plan) *Cluster {
		c, err := New(Config{Nodes: nodes, Seed: seed, Faults: plan})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.AddPod(podCfg); err != nil {
			t.Fatal(err)
		}
		return c
	}

	rc := build(testSeed, nil)
	rec := trace.NewRecorder(rc.Engine)
	src := &workload.Source{Flows: wf, Rate: workload.ConstantRate(2e5), Seed: testSeed + 1,
		Sink: rc.RecordingSink(rec)}
	if err := src.Start(rc.Engine); err != nil {
		t.Fatal(err)
	}
	rc.RunFor(trafficLen)
	src.Stop()
	rc.RunFor(totalLen - trafficLen)
	recorded := rc.Outcome()

	var buf bytes.Buffer
	if err := rec.Trace().Write(&buf); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) <= 1000 {
		t.Fatalf("recorded only %d events", len(tr.Events))
	}

	replay := func(seed uint64, plan *faults.Plan) *Cluster {
		c := build(seed, plan)
		rp, err := c.ReplayTrace(tr)
		if err != nil {
			t.Fatal(err)
		}
		c.RunFor(totalLen)
		if !rp.Done() {
			t.Fatalf("replay injected %d of %d events", rp.Injected, len(tr.Events))
		}
		return c
	}
	healthy := replay(testSeed, nil)
	if out := healthy.Outcome(); out != recorded {
		t.Fatalf("replay differs from the recorded run:\n%s", trace.Diff("recorded", recorded, "replayed", out))
	}
	for _, seed := range []uint64{testSeed + 1000, testSeed + 2000} {
		if out := replay(seed, nil).Outcome(); out != recorded {
			t.Fatalf("replay at seed %d differs:\n%s", seed, trace.Diff("recorded", recorded, "replayed", out))
		}
	}

	crash := replay(testSeed, (&faults.Plan{}).NodeCrash(15*sim.Millisecond, 1, 2*sim.Second))
	d := trace.Diff("healthy", recorded, "crash", crash.Outcome())
	if d.Empty() {
		t.Fatal("node-crash replay produced an identical outcome report")
	}
	keys := append(append([]string(nil), d.OnlyA...), d.OnlyB...)
	for _, c := range d.Changed {
		keys = append(keys, c.Key)
	}
	for _, k := range keys {
		if k != "cluster/traffic" && k != "metrics/fnv64a" && !strings.HasPrefix(k, "node1/") {
			t.Fatalf("crash diff leaked outside the detection-window lines: %q\n%s", k, d)
		}
		if strings.Contains(k, "/conserve/") {
			t.Fatalf("a conservation residual moved under the crash: %q\n%s", k, d)
		}
	}
	if crash.Blackholed() == 0 || healthy.Blackholed() != 0 || crash.Remapped != healthy.Remapped {
		t.Fatalf("crash loss is not detection-window blackhole: blackholed %d (healthy %d), remapped %d vs %d",
			crash.Blackholed(), healthy.Blackholed(), crash.Remapped, healthy.Remapped)
	}
	var accounted uint64
	for _, m := range crash.Members() {
		for _, pr := range m.Node.Pods() {
			accounted += pr.Tx + pr.NICDrops + pr.QueueDrops + pr.PLBDrops + pr.ServiceDrop +
				pr.RxLost + pr.CrashDrops + pr.FaultLost
		}
	}
	if accounted += crash.Blackholed() + crash.Drops; crash.Sprayed != accounted {
		t.Fatalf("crash replay sprayed %d, accounted %d", crash.Sprayed, accounted)
	}
}
