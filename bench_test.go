// Benchmarks that regenerate every table and figure of the paper's
// evaluation (the per-experiment index is DESIGN.md §4; the recorded
// paper-vs-measured comparison is EXPERIMENTS.md).
//
// Each benchmark runs the corresponding experiment once per iteration and
// prints its table through b.Log on the first iteration. Scale is
// controlled by the DRISHTI_* environment variables:
//
//	go test -bench=. -benchtime=1x -timeout 0           # full suite (≈40 min)
//	DRISHTI_INSTR=400000 DRISHTI_MIXES=8 go test -bench Fig13 -benchtime 1x
//
// Within one `go test -bench` process every cell lands in the harness's
// in-memory result store, so experiments that share runs
// (fig13/fig14/tab05/tab06 reuse one sweep) are served from it, and
// benching everything costs far less than the sum of the parts.
package drishti_test

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"drishti"
)

// benchParams returns the harness-default experiment scale unchanged — the
// supported way to trim a laptop run is the DRISHTI_* environment variables
// (e.g. DRISHTI_INSTR, DRISHTI_MIXES), which DefaultExperimentParams already
// honors. (An earlier version of this comment claimed the function itself
// trimmed the scale; the code was kept and the comment fixed.)
func benchParams() drishti.ExperimentParams {
	return drishti.DefaultExperimentParams()
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	p := benchParams()
	for i := 0; i < b.N; i++ {
		var out io.Writer = io.Discard
		var buf bytes.Buffer
		if i == 0 {
			out = &buf
		}
		if err := drishti.RunExperiment(id, p, out); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if i == 0 {
			b.Logf("\n%s", buf.String())
		}
	}
}

// --- motivation (Section 3) -------------------------------------------------

func BenchmarkFig02PCScatter(b *testing.B)       { runExperiment(b, "fig02") }
func BenchmarkFig03ETRViews(b *testing.B)        { runExperiment(b, "fig03") }
func BenchmarkFig04FreqDist(b *testing.B)        { runExperiment(b, "fig04") }
func BenchmarkFig05SetMPKA(b *testing.B)         { runExperiment(b, "fig05") }
func BenchmarkTab01SampledSetCases(b *testing.B) { runExperiment(b, "tab01") }
func BenchmarkTab02DesignSpace(b *testing.B)     { runExperiment(b, "tab02") }

// --- design (Section 4) -------------------------------------------------------

func BenchmarkFig10PredictorAPKI(b *testing.B) { runExperiment(b, "fig10") }
func BenchmarkFig11aNoNocstar(b *testing.B)    { runExperiment(b, "fig11a") }
func BenchmarkFig11bLatencySweep(b *testing.B) { runExperiment(b, "fig11b") }
func BenchmarkTab03Budget(b *testing.B)        { runExperiment(b, "tab03") }

// --- main results (Section 5.2) ----------------------------------------------

func BenchmarkFig13MainPerf(b *testing.B)      { runExperiment(b, "fig13") }
func BenchmarkFig14MissReduction(b *testing.B) { runExperiment(b, "fig14") }
func BenchmarkTab05WPKI(b *testing.B)          { runExperiment(b, "tab05") }
func BenchmarkFig15Energy(b *testing.B)        { runExperiment(b, "fig15") }
func BenchmarkTab06Metrics(b *testing.B)       { runExperiment(b, "tab06") }

// --- detailed analysis (Section 5.3) -------------------------------------------

func BenchmarkFig16PerMix(b *testing.B)         { runExperiment(b, "fig16") }
func BenchmarkFig17Ablation(b *testing.B)       { runExperiment(b, "fig17") }
func BenchmarkFig18DrishtiETR(b *testing.B)     { runExperiment(b, "fig18") }
func BenchmarkFig19OtherWorkloads(b *testing.B) { runExperiment(b, "fig19") }

// --- sensitivity (Section 5.4) --------------------------------------------------

func BenchmarkFig20LLCSize(b *testing.B)      { runExperiment(b, "fig20") }
func BenchmarkFig21L2Size(b *testing.B)       { runExperiment(b, "fig21") }
func BenchmarkFig22DRAMChannels(b *testing.B) { runExperiment(b, "fig22") }
func BenchmarkFig23Prefetchers(b *testing.B)  { runExperiment(b, "fig23") }

// --- applicability (Section 6) ----------------------------------------------------

func BenchmarkTab07Applicability(b *testing.B) { runExperiment(b, "tab07") }
func BenchmarkTab08OtherPolicies(b *testing.B) { runExperiment(b, "tab08") }

// --- beyond the paper -----------------------------------------------------------

func BenchmarkScalability(b *testing.B)      { runExperiment(b, "scal") }
func BenchmarkExtApplicability(b *testing.B) { runExperiment(b, "extA") }
func BenchmarkFidelityAblation(b *testing.B) { runExperiment(b, "extB") }

// --- micro-benchmarks of the substrate ---------------------------------------------

// BenchmarkSimulatorThroughput measures raw simulation speed: instructions
// simulated per second for a 4-core D-Mockingjay system.
func BenchmarkSimulatorThroughput(b *testing.B) {
	cfg := drishti.ScaledConfig(4, 8)
	cfg.Instructions = 50_000
	cfg.Warmup = 10_000
	cfg.Policy = drishti.PolicySpec{Name: "mockingjay", Drishti: true}
	model, _ := drishti.ModelByName("605.mcf_s-1554B")
	mix := drishti.Homogeneous(model.Scale(8, cfg.SetIndexBits()), 4, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := drishti.RunMix(cfg, mix); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(4*(cfg.Instructions+cfg.Warmup))*float64(b.N)/b.Elapsed().Seconds(), "instr/s")
}

// BenchmarkSimulatorThroughputCores measures the same D-Mockingjay system at
// larger core counts (toward the paper's 64–128-core "scal" configurations),
// where per-step scheduler and probe costs are multiplied by core count.
func BenchmarkSimulatorThroughputCores(b *testing.B) {
	for _, cores := range []int{8, 64} {
		b.Run(fmt.Sprintf("%dcores", cores), func(b *testing.B) {
			cfg := drishti.ScaledConfig(cores, 8)
			cfg.Instructions = 20_000
			cfg.Warmup = 5_000
			cfg.Policy = drishti.PolicySpec{Name: "mockingjay", Drishti: true}
			model, _ := drishti.ModelByName("605.mcf_s-1554B")
			mix := drishti.Homogeneous(model.Scale(8, cfg.SetIndexBits()), cores, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := drishti.RunMix(cfg, mix); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(uint64(cores)*(cfg.Instructions+cfg.Warmup))*float64(b.N)/b.Elapsed().Seconds(), "instr/s")
		})
	}
}

// BenchmarkBatchedSweep measures effective sweep throughput for one
// 6-policy × 1-mix sweep group — exactly the work a sweep pays per mix:
// one alone pass per core (for the weighted-speedup metrics), the LRU
// baseline, and one run per policy. The unbatched sub-benchmark runs them
// as the historical 11 separate simulations; the batched one runs a single
// lockstep batch in which the alone passes are lanes and the LRU lane
// doubles as the baseline. Both report the same effective instruction
// count (what the unbatched realization simulates) divided by wall time,
// so the instr/s ratio IS the sweep-level speedup. The config disables
// prefetchers so the batch takes the tier-2 path (shared private-cache
// replay); results are bit-identical either way (golden-tested in
// internal/sim).
func BenchmarkBatchedSweep(b *testing.B) {
	const cores = 4
	cfg := drishti.ScaledConfig(cores, 8)
	cfg.Instructions = 200_000
	cfg.Warmup = 50_000
	cfg.L1Prefetcher = "none"
	cfg.L2Prefetcher = "none"
	model, _ := drishti.ModelByName("605.mcf_s-1554B")
	mix := drishti.Homogeneous(model.Scale(8, cfg.SetIndexBits()), cores, 1)
	specs := []drishti.PolicySpec{
		{Name: "lru"}, {Name: "dip"}, {Name: "srrip"},
		{Name: "hawkeye"}, {Name: "hawkeye", Drishti: true}, {Name: "mockingjay", Drishti: true},
	}
	// The unbatched realization: cores single-core alone runs plus
	// (1 baseline + len(specs)) full-mix runs.
	perRun := cfg.Instructions + cfg.Warmup
	effective := float64(uint64(cores)*perRun + uint64(cores)*uint64(len(specs)+1)*perRun)

	b.Run("unbatched", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := drishti.RunAloneN(cfg, mix, 1); err != nil {
				b.Fatal(err)
			}
			base := cfg
			base.Policy = drishti.PolicySpec{Name: "lru"}
			if _, err := drishti.RunMix(base, mix); err != nil {
				b.Fatal(err)
			}
			for _, s := range specs {
				c := cfg
				c.Policy = s
				if _, err := drishti.RunMix(c, mix); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(effective*float64(b.N)/b.Elapsed().Seconds(), "instr/s")
	})

	b.Run("batched", func(b *testing.B) {
		variants := make([]drishti.BatchVariant, 0, cores+len(specs))
		for c := 0; c < cores; c++ {
			variants = append(variants, drishti.BatchVariant{
				Policy: drishti.PolicySpec{Name: "lru"}, Alone: true, AloneCore: c,
			})
		}
		for _, s := range specs { // the lru lane doubles as the baseline
			variants = append(variants, drishti.BatchVariant{Policy: s})
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := drishti.RunBatch(cfg, variants, mix); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(effective*float64(b.N)/b.Elapsed().Seconds(), "instr/s")
	})
}

// BenchmarkParallelBatchedSweep measures the same 10-lane batch group as
// BenchmarkBatchedSweep/batched with the intra-batch lane pool at one,
// two, and GOMAXPROCS workers (Config.LaneWorkers). Every sub-benchmark
// reports the same effective instr/s as BenchmarkBatchedSweep, so
// wN/w1 is directly the lane-parallel speedup; results are bit-identical
// at every worker count (internal/sim TestBatchWorkersSweepDeterminism).
// "wmax" is GOMAXPROCS rather than a fixed count so the committed
// baseline keeps stable benchmark names across hosts — on a single-CPU
// runner it degenerates to w1, which is exactly the no-regression case
// the bench gate pins.
func BenchmarkParallelBatchedSweep(b *testing.B) {
	const cores = 4
	cfg := drishti.ScaledConfig(cores, 8)
	cfg.Instructions = 200_000
	cfg.Warmup = 50_000
	cfg.L1Prefetcher = "none"
	cfg.L2Prefetcher = "none"
	model, _ := drishti.ModelByName("605.mcf_s-1554B")
	mix := drishti.Homogeneous(model.Scale(8, cfg.SetIndexBits()), cores, 1)
	specs := []drishti.PolicySpec{
		{Name: "lru"}, {Name: "dip"}, {Name: "srrip"},
		{Name: "hawkeye"}, {Name: "hawkeye", Drishti: true}, {Name: "mockingjay", Drishti: true},
	}
	perRun := cfg.Instructions + cfg.Warmup
	effective := float64(uint64(cores)*perRun + uint64(cores)*uint64(len(specs)+1)*perRun)

	variants := make([]drishti.BatchVariant, 0, cores+len(specs))
	for c := 0; c < cores; c++ {
		variants = append(variants, drishti.BatchVariant{
			Policy: drishti.PolicySpec{Name: "lru"}, Alone: true, AloneCore: c,
		})
	}
	for _, s := range specs {
		variants = append(variants, drishti.BatchVariant{Policy: s})
	}

	for _, w := range []struct {
		name    string
		workers int
	}{
		{"w1", 1},
		{"w2", 2},
		{"wmax", runtime.GOMAXPROCS(0)},
	} {
		b.Run(w.name, func(b *testing.B) {
			c := cfg
			c.LaneWorkers = w.workers
			for i := 0; i < b.N; i++ {
				if _, err := drishti.RunBatch(c, variants, mix); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(effective*float64(b.N)/b.Elapsed().Seconds(), "instr/s")
		})
	}
}

// phaseCount is a minimal sim phase observer (the hook distributed
// tracing attaches): it only accumulates, like the span-attribute
// collector in internal/dist does.
type phaseCount struct {
	n int
	d time.Duration
}

func (p *phaseCount) ObservePhase(phase string, lane int, d time.Duration) {
	p.n++
	p.d += d
}

// BenchmarkTracedBatchedSweep is BenchmarkBatchedSweep/batched with a
// phase observer attached — the tracing-ON cost of the sim-side hooks.
// EXPERIMENTS.md §1.7 records the measured overhead (target <2%).
// Deliberately outside the bench-gate set: the gate pins the tracing-off
// path, which is a single nil check.
func BenchmarkTracedBatchedSweep(b *testing.B) {
	const cores = 4
	cfg := drishti.ScaledConfig(cores, 8)
	cfg.Instructions = 200_000
	cfg.Warmup = 50_000
	cfg.L1Prefetcher = "none"
	cfg.L2Prefetcher = "none"
	model, _ := drishti.ModelByName("605.mcf_s-1554B")
	mix := drishti.Homogeneous(model.Scale(8, cfg.SetIndexBits()), cores, 1)
	specs := []drishti.PolicySpec{
		{Name: "lru"}, {Name: "dip"}, {Name: "srrip"},
		{Name: "hawkeye"}, {Name: "hawkeye", Drishti: true}, {Name: "mockingjay", Drishti: true},
	}
	perRun := cfg.Instructions + cfg.Warmup
	effective := float64(uint64(cores)*perRun + uint64(cores)*uint64(len(specs)+1)*perRun)

	obs := &phaseCount{}
	cfg.Phases = obs
	variants := make([]drishti.BatchVariant, 0, cores+len(specs))
	for c := 0; c < cores; c++ {
		variants = append(variants, drishti.BatchVariant{
			Policy: drishti.PolicySpec{Name: "lru"}, Alone: true, AloneCore: c,
		})
	}
	for _, s := range specs {
		variants = append(variants, drishti.BatchVariant{Policy: s})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := drishti.RunBatch(cfg, variants, mix); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(effective*float64(b.N)/b.Elapsed().Seconds(), "instr/s")
	if obs.n == 0 {
		b.Fatal("phase observer never fired")
	}
}

// BenchmarkTraceGeneration measures workload-generator throughput.
func BenchmarkTraceGeneration(b *testing.B) {
	g, err := drishti.NewGenerator(drishti.SPECModels()[0], 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}
