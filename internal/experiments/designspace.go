package experiments

import (
	"fmt"
	"io"

	"drishti/internal/fabric"
	"drishti/internal/policies"
)

// Tab02DesignSpace quantifies Table 2: the four ways to give reuse
// predictors a global view (global sampled cache — centralized or
// distributed — vs global predictor — centralized or per-core), measured by
// the traffic they put on the interconnect: prediction lookups that cross
// slices, training messages, and broadcasts. The paper argues per-core-yet-
// global predictors win because they need no broadcast and little bandwidth;
// this experiment reproduces that argument with numbers.
func Tab02DesignSpace(p Params, w io.Writer) error {
	header(w, "tab02", "predictor/sampled-cache design space (Mockingjay, 16 cores)", p)
	const cores = 16
	cfg := p.config(cores)
	mix, err := p.homoMix(cfg, cores, "xalancbmk_s-202B")
	if err != nil {
		return err
	}
	rows := []struct {
		label string
		place fabric.Placement
	}{
		{"local SC + local pred (baseline, myopic)", fabric.Local},
		{"global SC centralized + local pred", fabric.GlobalSCCentralized},
		{"global SC distributed + local pred", fabric.GlobalSCDistributed},
		{"local SC + centralized pred", fabric.Centralized},
		{"local SC + per-core global pred (Drishti)", fabric.PerCoreGlobal},
	}
	fmt.Fprintf(w, "%-44s %-8s %-10s %-11s %-11s %-9s %-12s\n",
		"design", "global?", "lookups", "trainings", "broadcasts", "remote", "hottest-bank")
	// Every design is one cell of a single batch group.
	specs := make([]policies.Spec, len(rows))
	for i, row := range rows {
		specs[i] = policies.Spec{
			Name:             "mockingjay",
			Placement:        policies.PlacementPtr(row.place),
			FixedPredLatency: 1, // isolate traffic from timing
		}
	}
	results, err := runCells(p, cfg, mix, specs)
	if err != nil {
		return err
	}
	for i, row := range rows {
		res := results[i]
		var g string
		if row.place.GlobalView() {
			g = "yes"
		} else {
			g = "no"
		}
		f := res.Fabric
		// The bandwidth story is concentration: how much traffic the
		// single busiest predictor bank absorbs (Fig 10's hot spot).
		var maxBank float64
		for _, v := range res.BankAPKI {
			if v > maxBank {
				maxBank = v
			}
		}
		fmt.Fprintf(w, "%-44s %-8s %-10d %-11d %-11d %-9d %-12.1f\n",
			row.label, g, f.Lookups, f.Trainings, f.Broadcasts,
			f.RemoteLookups+f.RemoteTrains, maxBank)
	}
	fmt.Fprintln(w, "paper shape (Table 2): global-SC designs broadcast; a centralized predictor")
	fmt.Fprintln(w, "concentrates everything on one hot bank (high bandwidth demand); the per-core")
	fmt.Fprintln(w, "global predictor spreads the same global view across banks with no broadcast")
	return nil
}
