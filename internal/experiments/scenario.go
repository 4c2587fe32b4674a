package experiments

import (
	"fmt"
	"io"

	"drishti/internal/scenario"
	"drishti/internal/workload"
)

// RunScenario executes a compiled scenario — every run in its sweep, every
// policy per run — through the same cached sweep harness the paper's
// experiments use, and prints one table per run: policy, normalized
// weighted speedup (vs. the LRU baseline measured on the same mix), MPKI,
// WPKI, and unfairness. The scenario's machine settings are authoritative;
// Params supplies only execution knobs (parallelism, batching, logging,
// telemetry), which never change results.
func RunScenario(p Params, c *scenario.Compiled, w io.Writer) error {
	fmt.Fprintf(w, "== scenario %s (seed=%d, %d run(s) x %d polic%s)\n",
		c.Spec.Name, c.Spec.Seed, len(c.Runs), len(c.Policies), plural(len(c.Policies), "y", "ies"))
	for _, run := range c.Runs {
		cfg := run.Cfg
		if p.TelemetryEpoch > 0 && p.TelemetrySink != nil {
			cfg.TelemetryEpoch = p.TelemetryEpoch
			cfg.TelemetrySink = p.TelemetrySink
		}
		sr, err := runSweep(cfg, []workload.Mix{run.Mix}, c.Policies, p)
		if err != nil {
			return fmt.Errorf("scenario %s run %s: %w", c.Spec.Name, run.Name, err)
		}
		fmt.Fprintf(w, "\n-- run %s: cores=%d slice=%dKB instr=%d mix=%s\n",
			run.Name, cfg.Cores, cfg.SliceKB, cfg.Instructions, run.Mix.Name)
		fmt.Fprintf(w, "   %-22s %8s %8s %8s %10s\n", "policy", "normWS", "MPKI", "WPKI", "unfairness")
		for si, spec := range c.Policies {
			out := sr.outcomes[si][0]
			fmt.Fprintf(w, "   %-22s %8.4f %8.2f %8.2f %10.3f\n",
				spec.DisplayName(), out.normWS, out.res.MPKI, out.res.WPKI, out.multi.Unfairness)
		}
	}
	return nil
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}
