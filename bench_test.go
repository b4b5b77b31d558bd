// Benchmarks that regenerate the paper's tables and figures. One benchmark
// per table/figure (quick scale; run cmd/albatross-bench for the full-
// scale reproduction). Packet-path and cluster-path cost per simulated
// packet is measured by the repo benchmark: go run ./bench.
//
//	go test -bench=. -benchmem
package albatross

import (
	"runtime"
	"testing"

	"albatross/internal/eval"
	"albatross/internal/sim"
)

// benchExperiment runs a registered paper experiment once per iteration
// and fails the benchmark if its shape checks fail.
func benchExperiment(b *testing.B, id string) {
	exp, ok := eval.Find(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	cfg := eval.Config{Seed: 1, Quick: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := exp.Run(cfg)
		if !r.Passed() {
			b.Fatalf("%s failed: %v", id, r.FailedChecks())
		}
	}
}

// Tables.
func BenchmarkTable3_ServiceThroughput(b *testing.B) { benchExperiment(b, "tab3") }
func BenchmarkTable4_PipelineLatency(b *testing.B)   { benchExperiment(b, "tab4") }
func BenchmarkTable5_FPGAResources(b *testing.B)     { benchExperiment(b, "tab5") }
func BenchmarkTable6_LPMScale(b *testing.B)          { benchExperiment(b, "tab6") }

// Figures.
func BenchmarkFig4_PLBvsRSS(b *testing.B)             { benchExperiment(b, "fig4") }
func BenchmarkFig5_CacheHitRate(b *testing.B)         { benchExperiment(b, "fig5") }
func BenchmarkFig7_BGPProxy(b *testing.B)             { benchExperiment(b, "fig7") }
func BenchmarkFig8_LoadBalance(b *testing.B)          { benchExperiment(b, "fig8") }
func BenchmarkFig9_P99Latency(b *testing.B)           { benchExperiment(b, "fig9") }
func BenchmarkFig10_UtilStddev(b *testing.B)          { benchExperiment(b, "fig10") }
func BenchmarkFig11_LatencyDistribution(b *testing.B) { benchExperiment(b, "fig11") }
func BenchmarkFig12_DropFlag(b *testing.B)            { benchExperiment(b, "fig12") }
func BenchmarkFig13_WithoutRateLimiter(b *testing.B)  { benchExperiment(b, "fig13") }
func BenchmarkFig14_WithRateLimiter(b *testing.B)     { benchExperiment(b, "fig14") }
func BenchmarkFig15_AZCost(b *testing.B)              { benchExperiment(b, "fig15") }
func BenchmarkFig16_NUMA(b *testing.B)                { benchExperiment(b, "fig16") }
func BenchmarkFig17_NUMABalancing(b *testing.B)       { benchExperiment(b, "fig17") }

// Appendix and extension experiments.
func BenchmarkSplitPCIeSavings(b *testing.B)  { benchExperiment(b, "split") }
func BenchmarkPriorityIsolation(b *testing.B) { benchExperiment(b, "priority") }
func BenchmarkElasticity(b *testing.B)        { benchExperiment(b, "elasticity") }
func BenchmarkSessionOffload(b *testing.B)    { benchExperiment(b, "offload") }

// Ablations.
func BenchmarkMemoryFrequency(b *testing.B)      { benchExperiment(b, "memfreq") }
func BenchmarkMetaPlacement(b *testing.B)        { benchExperiment(b, "meta") }
func BenchmarkStatefulNF(b *testing.B)           { benchExperiment(b, "stateful") }
func BenchmarkTwoStageMemory(b *testing.B)       { benchExperiment(b, "gopmem") }
func BenchmarkDriverTuning(b *testing.B)         { benchExperiment(b, "driver") }
func BenchmarkLLCPrefetch(b *testing.B)          { benchExperiment(b, "tuning") }
func BenchmarkReorderQueueTradeoff(b *testing.B) { benchExperiment(b, "ordq") }
func BenchmarkPodIsolation(b *testing.B)         { benchExperiment(b, "isolation") }

// BenchmarkEngineTimerChurn measures the schedule/cancel hot loop the PLB
// order-queue timers and CPU completions exercise: a sliding window of
// pending timers where every iteration cancels one and re-arms it. With the
// event pool and lazy cancellation this runs allocation-free; the 4-ary
// heap keeps sift depth shallow at this window size.
func BenchmarkEngineTimerChurn(b *testing.B) {
	const window = 1024
	e := sim.NewEngine()
	fn := func(any) {}
	timers := make([]sim.Timer, window)
	for i := range timers {
		timers[i] = e.AfterArg(sim.Duration(i+1)*sim.Microsecond, fn, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot := i % window
		timers[slot].Stop()
		timers[slot] = e.AfterArg(sim.Duration(slot+1)*sim.Microsecond, fn, nil)
	}
}

// benchEval runs a fixed subset of fast quick-scale experiments through the
// RunAll worker pool at the given parallelism. Comparing the Serial and
// Parallel variants shows the harness speedup on multi-core hosts (they
// tie on GOMAXPROCS=1).
func benchEval(b *testing.B, parallelism int) {
	ids := []string{"tab4", "tab5", "fig7", "fig15", "gopmem"}
	exps := make([]eval.Experiment, 0, len(ids))
	for _, id := range ids {
		e, ok := eval.Find(id)
		if !ok {
			b.Fatalf("experiment %q not registered", id)
		}
		exps = append(exps, e)
	}
	cfg := eval.Config{Seed: 1, Quick: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, rec := range eval.RunAll(exps, cfg, parallelism) {
			if !rec.Result.Passed() {
				b.Fatalf("%s failed: %v", rec.Exp.ID, rec.Result.FailedChecks())
			}
		}
	}
}

func BenchmarkEvalSerial(b *testing.B)   { benchEval(b, 1) }
func BenchmarkEvalParallel(b *testing.B) { benchEval(b, runtime.NumCPU()) }
