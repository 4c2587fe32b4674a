package experiments

import (
	"fmt"
	"io"

	"drishti/internal/fabric"
	"drishti/internal/policies"
	"drishti/internal/sim"
	"drishti/internal/workload"
)

// Fig17Ablation reproduces Fig 17: the utility of each Drishti enhancement
// on 32 cores — Mockingjay, then +global view (per-core global predictor
// only), then +dynamic sampled cache (full D-Mockingjay) — split by suite
// and mix type.
func Fig17Ablation(p Params, w io.Writer) error {
	header(w, "fig17", "enhancement ablation: global view, then +DSC", p)
	const cores = 32
	cfg := p.config(cores)
	specs := []policies.Spec{
		{Name: "mockingjay"},
		// Global view only: per-core global predictor over NOCSTAR, but
		// conventional random sampled sets at the baseline count.
		{Name: "mockingjay",
			Placement:      policies.PlacementPtr(fabric.PerCoreGlobal),
			UseNocstar:     policies.BoolPtr(true),
			DynamicSampler: policies.BoolPtr(false)},
		// Full Drishti: global view + dynamic sampled cache.
		{Name: "mockingjay", Drishti: true},
	}
	labels := []string{"mockingjay", "+global view", "+global view & DSC"}

	groups := []struct {
		name  string
		mixes []workload.Mix
	}{
		{"SPEC homo", homoSubset(p, cfg, cores, workload.SPECModels())},
		{"GAP homo", homoSubset(p, cfg, cores, workload.GAPModels())},
		{"heterogeneous", workload.HeterogeneousMixes(p.scaleModels(cfg, workload.AllSPECGAP()), cores, p.Mixes, p.Seed^0xdeadbeef)},
	}
	for _, g := range groups {
		sr, err := runSweep(cfg, g.mixes, specs, p)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-15s", g.name)
		for si := range specs {
			fmt.Fprintf(w, "  %s=%+.2f%%", labels[si], pctOver(sr.geoNormWS(si)))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "paper shape: each step adds performance (3.8→6→9.7% SPEC-side; 9.7→15→16.9% GAP-side)")
	return nil
}

func homoSubset(p Params, cfg sim.Config, cores int, models []workload.Model) []workload.Mix {
	scaled := p.scaleModels(cfg, models)
	return spread(workload.HomogeneousMixes(scaled, cores, p.Seed), p.Mixes)
}

// Fig18DrishtiETR reproduces Fig 18: with Drishti's per-core-yet-global
// predictor, the ETR predictions for the hot xalan PC sit close to the
// global view (contrast with Fig 3's myopic scatter).
func Fig18DrishtiETR(p Params, w io.Writer) error {
	header(w, "fig18", "ETR views with Drishti (xalan)", p)
	return etrViews(p, w, policies.Spec{Name: "mockingjay", Drishti: true}, "drishti (per-core global banks)")
}

// Fig19OtherWorkloads reproduces Fig 19: the four policies on CVP1-,
// CloudSuite/Google-datacenter-, and XSBench-like mixes for 16 and 32 cores.
func Fig19OtherWorkloads(p Params, w io.Writer) error {
	header(w, "fig19", "datacenter-class workloads", p)
	specs := mainSpecs()
	fmt.Fprintf(w, "%-8s", "cores")
	for _, s := range specs {
		fmt.Fprintf(w, "  %-14s", s.DisplayName())
	}
	fmt.Fprintln(w)
	for _, cores := range []int{16, 32} {
		cfg := p.config(cores)
		models := p.scaleModels(cfg, workload.Fig19Models())
		mixes := workload.HeterogeneousMixes(models, cores, min2(p.Mixes*2, 50), p.Seed^0xf19)
		sr, err := runSweep(cfg, mixes, specs, p)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-8d", cores)
		for si := range specs {
			fmt.Fprintf(w, "  %+13.2f%%", pctOver(sr.geoNormWS(si)))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "paper shape: base policies gain only 2–3%; Drishti adds ≈2% more on average")
	return nil
}

func min2(a, b int) int {
	if a < b {
		return a
	}
	return b
}
