package cluster

import (
	"strings"
	"testing"

	"albatross/internal/core"
	"albatross/internal/faults"
	"albatross/internal/pod"
	"albatross/internal/service"
	"albatross/internal/sim"
	"albatross/internal/workload"
)

// runTimeline drives a 4-node cluster under a NodeCrash with 10ms sampling
// and returns the cluster (timeline armed and populated).
func runTimeline(t *testing.T, shards int) *Cluster {
	t.Helper()
	plan := (&faults.Plan{}).NodeCrash(40*sim.Millisecond, 1, 200*sim.Millisecond)
	c, err := New(Config{
		Nodes: 4, Seed: testSeed, Faults: plan, Shards: shards,
		SnapshotEvery: 10 * sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	wf := workload.GenerateFlows(2000, 100, testSeed)
	if err := c.AddPod(core.PodConfig{
		Spec:  pod.Spec{Name: "gw", Service: service.VPCVPC, DataCores: 4, CtrlCores: 1, Mode: pod.ModePLB},
		Flows: workload.ServiceFlows(wf, 0),
	}); err != nil {
		t.Fatal(err)
	}
	src := &workload.Source{Flows: wf, Rate: workload.ConstantRate(2e5), Seed: testSeed + 1, Sink: c.Sink()}
	if err := src.Start(c.Engine); err != nil {
		t.Fatal(err)
	}
	c.RunFor(150 * sim.Millisecond)
	src.Stop()
	c.RunFor(50 * sim.Millisecond)
	return c
}

func TestTimelineRecordsCrashTrajectory(t *testing.T) {
	c := runTimeline(t, 1)
	tl := c.Timeline()
	if tl == nil {
		t.Fatal("timeline nil with SnapshotEvery set")
	}
	// 200ms of run at 10ms per tick, ticks continuing across RunFor calls.
	if tl.Len() != 20 {
		t.Fatalf("ticks = %d, want 20", tl.Len())
	}

	avail, ok := tl.Values("availability")
	if !ok {
		t.Fatal("availability column missing")
	}
	elig, _ := tl.Values("albatross_cluster_eligible_members")
	// Crash at 40ms, BFD detection window 200ms... bounded by route
	// withdrawal: before the crash every member is eligible and
	// availability is ~1.
	if elig[2] != 4 {
		t.Fatalf("eligible members before crash = %v, want 4", elig[2])
	}
	if avail[2] < 0.95 {
		t.Fatalf("pre-crash availability = %v, want ~1", avail[2])
	}
	// The blackhole window dents availability toward (N-1)/N: one of four
	// routes blackholes while the other three deliver.
	floor := 1.0
	for _, v := range avail {
		floor = min(floor, v)
	}
	if floor >= 0.9 || floor <= 0.5 {
		t.Fatalf("availability dip floor %v outside (0.5, 0.9): %v", floor, avail)
	}
	// After BFD withdraws the route the survivors absorb the flows: the
	// final ticks converge back to ~1 with 3 eligible members.
	last := tl.Len() - 1
	if elig[last] != 3 {
		t.Fatalf("eligible members at end = %v, want 3 (node still down)", elig[last])
	}
	if avail[last] < 0.99 {
		t.Fatalf("availability did not converge: final tick %v", avail[last])
	}

	// Blackholed deltas are nonzero only inside the detection window.
	bh, _ := tl.Values("albatross_cluster_blackholed_packets_total")
	var preCrash, total float64
	for i, v := range bh {
		total += v
		if i < 3 { // ticks at 10/20/30ms precede the 40ms crash
			preCrash += v
		}
	}
	if preCrash != 0 {
		t.Fatalf("blackholed packets before the crash: %v", bh)
	}
	if total == 0 {
		t.Fatal("no blackholed packets recorded in any tick despite the crash")
	}

	// The outcome report carries the series fingerprint line.
	if !strings.Contains(c.Outcome(), "series/fnv64a | ") {
		t.Fatal("outcome missing series/fnv64a line with sampling enabled")
	}
}

// TestTimelineShardCountInvariance pins the determinism claim at the
// cluster layer: the CSV series export is byte-identical whether the run
// used one worker or four.
func TestTimelineShardCountInvariance(t *testing.T) {
	a := runTimeline(t, 1)
	b := runTimeline(t, 4)
	acsv, bcsv := a.Timeline().CSV(), b.Timeline().CSV()
	if acsv != bcsv {
		t.Fatalf("series CSV differs between shards=1 and shards=4:\n--- s1\n%s\n--- s4\n%s", acsv, bcsv)
	}
	if a.Outcome() != b.Outcome() {
		t.Fatal("outcome (with series fingerprint) differs between shard counts")
	}
}

// TestTimelineSlicingIsFree verifies the slicing argument directly: a run
// with sampling produces the same final outcome counters as the same run
// without sampling — only the series line differs.
func TestTimelineSlicingIsFree(t *testing.T) {
	run := func(every sim.Duration) *Cluster {
		plan := (&faults.Plan{}).NodeCrash(30*sim.Millisecond, 2, 60*sim.Millisecond)
		c, err := New(Config{Nodes: 4, Seed: testSeed, Faults: plan, Shards: 1, SnapshotEvery: every})
		if err != nil {
			t.Fatal(err)
		}
		wf := workload.GenerateFlows(1000, 50, testSeed)
		if err := c.AddPod(core.PodConfig{
			Spec:  pod.Spec{Name: "gw", Service: service.VPCVPC, DataCores: 4, CtrlCores: 1, Mode: pod.ModePLB},
			Flows: workload.ServiceFlows(wf, 0),
		}); err != nil {
			t.Fatal(err)
		}
		src := &workload.Source{Flows: wf, Rate: workload.ConstantRate(1e5), Seed: testSeed + 1, Sink: c.Sink()}
		if err := src.Start(c.Engine); err != nil {
			t.Fatal(err)
		}
		c.RunFor(100 * sim.Millisecond)
		src.Stop()
		c.RunFor(10 * sim.Millisecond)
		return c
	}
	plain := run(0)
	sampled := run(7 * sim.Millisecond) // deliberately misaligned with event times
	if plain.Timeline() != nil {
		t.Fatal("timeline armed with SnapshotEvery=0")
	}
	stripped := strings.Join(strings.Split(strings.TrimSuffix(sampled.Outcome(), "\n"), "\n"), "\n")
	var kept []string
	for _, line := range strings.Split(stripped, "\n") {
		if !strings.HasPrefix(line, "series/fnv64a") {
			kept = append(kept, line)
		}
	}
	if strings.Join(kept, "\n")+"\n" != plain.Outcome() {
		t.Fatalf("sampling changed the simulation outcome:\n--- plain\n%s\n--- sampled\n%s",
			plain.Outcome(), sampled.Outcome())
	}
}
