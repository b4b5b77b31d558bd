package trace_test

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"albatross/internal/cluster"
	"albatross/internal/core"
	"albatross/internal/faults"
	"albatross/internal/pod"
	"albatross/internal/service"
	"albatross/internal/sim"
	"albatross/internal/workload"
	"albatross/internal/workload/trace"
)

var update = flag.Bool("update", false, "rewrite the differ golden files from the current output")

// golden compares got against testdata/<name>, rewriting the file when the
// -update flag is set.
func golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test ./internal/workload/trace/ -run %s -update): %v", t.Name(), err)
	}
	if got != string(want) {
		t.Fatalf("output differs from %s (rerun with -update after intentional changes):\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// crashScenario records a short live run on a tiny 3-node cluster, then
// replays the trace twice — once healthy, once with node 1 crashing inside
// the traffic window — and returns the two outcome reports. The simulation
// is deterministic byte-for-byte, so the resulting diff is golden-stable.
func crashScenario(t *testing.T) (healthy, crashed string) {
	t.Helper()
	const seed = 11
	wf := workload.GenerateFlows(300, 16, seed)
	podCfg := core.PodConfig{
		Spec:             pod.Spec{Name: "gw", Service: service.VPCVPC, DataCores: 2, CtrlCores: 1, Mode: pod.ModePLB},
		Flows:            workload.ServiceFlows(wf, 0),
		JitterSigma:      -1, // schedule-determined outcomes (see cluster.TestReplayAcrossSeedsAndCrashPlan)
		TraceSampleEvery: 64,
	}
	totalLen := 300 * sim.Millisecond

	recCl, err := cluster.New(cluster.Config{Nodes: 3, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if err := recCl.AddPod(podCfg); err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(recCl.Engine)
	src, err := workload.New(
		workload.WithFlows(wf),
		workload.WithRate(workload.ConstantRate(1e5)),
		workload.WithSeed(seed+1),
		workload.WithSink(recCl.RecordingSink(rec)),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Start(recCl.Engine); err != nil {
		t.Fatal(err)
	}
	recCl.RunFor(10 * sim.Millisecond)
	src.Stop()
	recCl.RunFor(totalLen - 10*sim.Millisecond)
	tr := rec.Trace()

	replay := func(plan *faults.Plan) string {
		cl, err := cluster.New(cluster.Config{Nodes: 3, Seed: seed, Faults: plan})
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.AddPod(podCfg); err != nil {
			t.Fatal(err)
		}
		rp, err := cl.ReplayTrace(tr)
		if err != nil {
			t.Fatal(err)
		}
		cl.RunFor(totalLen)
		if !rp.Done() {
			t.Fatal("replay did not complete")
		}
		return cl.Outcome()
	}
	return replay(nil), replay((&faults.Plan{}).NodeCrash(5*sim.Millisecond, 1, 2*sim.Second))
}

// TestDiffGolden pins the differ's two canonical renderings: identical
// replays produce the "no differences" report, and a node-crash replay
// produces a delta confined to the crashed node, the cluster ECMP totals,
// and the metrics checksum.
func TestDiffGolden(t *testing.T) {
	healthy, crashed := crashScenario(t)

	same := trace.Diff("healthy", healthy, "healthy-bis", healthy)
	if !same.Empty() {
		t.Fatalf("identical reports produced a non-empty diff: %s", same.String())
	}
	golden(t, "diff_no_differences.golden", same.String())

	d := trace.Diff("healthy", healthy, "crash", crashed)
	if d.Empty() {
		t.Fatal("node-crash replay produced an identical outcome report")
	}
	keys := append(append([]string(nil), d.OnlyA...), d.OnlyB...)
	for _, c := range d.Changed {
		keys = append(keys, c.Key)
	}
	for _, k := range keys {
		if k != "cluster/traffic" && k != "metrics/fnv64a" && !strings.HasPrefix(k, "node1/") {
			t.Fatalf("diff leaked outside the crashed node's lines: %q", k)
		}
	}
	golden(t, "diff_node_crash.golden", d.String())
}

// TestDiffOneSidedKeys covers lines present in only one report — the
// differ must list them under the +/- sections in report order.
func TestDiffOneSidedKeys(t *testing.T) {
	a := "alpha | 1\nshared | x\nzeta | 2\n"
	b := "shared | y\nnew/line | 3\n"
	d := trace.Diff("A", a, "B", b)
	if len(d.Changed) != 1 || d.Changed[0].Key != "shared" {
		t.Fatalf("changed = %+v, want only 'shared'", d.Changed)
	}
	if len(d.OnlyA) != 2 || d.OnlyA[0] != "alpha" || d.OnlyA[1] != "zeta" {
		t.Fatalf("OnlyA = %v", d.OnlyA)
	}
	if len(d.OnlyB) != 1 || d.OnlyB[0] != "new/line" {
		t.Fatalf("OnlyB = %v", d.OnlyB)
	}
	s := d.String()
	for _, frag := range []string{"~ shared", "- alpha (only in A)", "+ new/line (only in B)"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("rendering missing %q:\n%s", frag, s)
		}
	}
}
